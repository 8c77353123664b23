//! Staged-session equivalence check: every variant built by resuming a
//! checkpointed [`CompileSession`] from a mid-pipeline snapshot must be
//! bit-identical to compiling the same gated configuration from
//! scratch, across the whole suite, both personalities, every level,
//! and every single-pass gate — plus a handful of multi-pass gates. Also
//! verifies every variant resumes at the first middle-end instance its
//! gate disables (or skips the whole middle end when it disables none),
//! which is the position the session's snapshot store must cover.
//!
//! Usage: `cargo run --release --example session_check`

use dt_passes::{
    compile_source, pipeline, pipeline_pass_names, CompileOptions, CompileSession, OptLevel,
    PassGate, Personality,
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
    for seed in [7u64, 77, 204] {
        srcs.push((
            format!("synth{seed}"),
            dt_testsuite::synth::generate(seed, &shape),
        ));
    }

    let mut failures = 0usize;
    let mut variants = 0usize;
    let mut skipped = 0usize;
    for (name, src) in &srcs {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let module = dt_frontend::lower_source(src).unwrap();
                let session = CompileSession::new(module, personality, level, None);
                let mid = pipeline::build(personality, level).mid;

                let names = pipeline_pass_names(personality, level);
                let mut gates: Vec<(String, PassGate)> =
                    vec![("<all>".into(), PassGate::allow_all())];
                for &pass in &names {
                    gates.push((pass.to_string(), PassGate::disabling([pass])));
                }
                // A few multi-pass gates (first+last, and a prefix).
                if names.len() >= 2 {
                    gates.push((
                        "<first+last>".into(),
                        PassGate::disabling([names[0], names[names.len() - 1]]),
                    ));
                    let k = names.len().min(4);
                    gates.push((
                        format!("<first {k}>"),
                        PassGate::disabling(names[..k].iter().copied()),
                    ));
                }
                for (gname, gate) in gates {
                    let mut opts = CompileOptions::new(personality, level);
                    opts.gate = gate.clone();
                    let scratch = compile_source(src, &opts).unwrap().content_hash();
                    variants += 1;
                    let resumed = session.build_variant(&gate);
                    if resumed.object.content_hash() != scratch {
                        failures += 1;
                        println!(
                            "{name} {personality:?} {level:?} gate {gname}: \
                             session DIVERGES from scratch build"
                        );
                    }
                    let first_disabled = mid
                        .iter()
                        .position(|inst| !gate.allows(inst))
                        .unwrap_or(mid.len());
                    if resumed.prefix_skipped != first_disabled {
                        failures += 1;
                        println!(
                            "{name} {personality:?} {level:?} gate {gname}: resumed at {} \
                             instead of the first disabled instance {first_disabled}",
                            resumed.prefix_skipped
                        );
                    }
                    skipped += resumed.prefix_skipped;
                }
            }
        }
        eprintln!("{name}: checked");
    }
    println!(
        "session check complete: {variants} gate(s), \
         {skipped} prefix pass(es) skipped, {failures} failure(s)"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
