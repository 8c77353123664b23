//! Compilation-determinism check: compiling the same source with the
//! same options must be bit-identical across repeated calls (checkpoint
//! resume in `CompileSession` and the serial/parallel equivalence of
//! variant evaluation both rest on this).
//!
//! Usage: `cargo run --release --example det_check`

use dt_passes::{
    compile_source, pipeline_pass_names, CompileOptions, OptLevel, PassGate, Personality,
};

fn main() {
    let mut srcs: Vec<(String, String)> = dt_testsuite::real_world_suite()
        .iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    let shape = dt_testsuite::synth::SynthConfig {
        functions: 6,
        vars_per_function: 14,
        stmts_per_function: 24,
        max_expr_depth: 6,
    };
    for seed in [15u64, 118, 126, 321] {
        srcs.push((
            format!("synth{seed}"),
            dt_testsuite::synth::generate(seed, &shape),
        ));
    }
    let mut failures = 0usize;
    for (name, src) in &srcs {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                // Full pipeline, plus each single-pass-disabled variant
                // (the exact builds variant evaluation performs).
                let mut gates: Vec<(String, PassGate)> =
                    vec![("<all>".into(), PassGate::allow_all())];
                for pass in pipeline_pass_names(personality, level) {
                    gates.push((pass.to_string(), PassGate::disabling([pass])));
                }
                for (gname, gate) in gates {
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = gate;
                    let h0 = compile_source(src, &opts).unwrap().content_hash();
                    for _ in 0..3 {
                        let h = compile_source(src, &opts).unwrap().content_hash();
                        if h != h0 {
                            failures += 1;
                            println!(
                                "{name} {personality:?} {level:?} gate {gname}: NONDETERMINISTIC"
                            );
                            break;
                        }
                    }
                }
            }
        }
        eprintln!("{name}: checked");
    }
    println!("determinism check complete: {failures} unstable configurations");
    if failures > 0 {
        std::process::exit(1);
    }
}
