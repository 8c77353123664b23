//! Staged-compilation benchmarks: the full per-pass variant matrix
//! built from scratch vs through a checkpointed [`CompileSession`],
//! plus the backend-only fast path. Prints the session's snapshot count
//! after the matrix benchmark, and the tuner's telemetry (prefix passes
//! skipped, artifact-store hits) after the config sweep, so the work
//! avoided is visible next to the timings.

use criterion::{criterion_group, criterion_main, Criterion};
use dt_passes::{
    compile_source, pipeline_pass_names, CompileOptions, CompileSession, PassGate, Personality,
};

fn source() -> String {
    dt_testsuite::program("zlib").unwrap().source.to_string()
}

const PERSONALITY: Personality = Personality::Gcc;
const LEVEL: dt_passes::OptLevel = dt_passes::OptLevel::O2;

/// One object per gateable pass, each compiled from source.
fn matrix_from_scratch(src: &str) -> u64 {
    let mut acc = 0u64;
    for pass in pipeline_pass_names(PERSONALITY, LEVEL) {
        let mut opts = CompileOptions::new(PERSONALITY, LEVEL);
        opts.gate = PassGate::disabling([pass]);
        acc ^= compile_source(src, &opts).unwrap().content_hash();
    }
    acc
}

/// The same matrix, resumed from one session's checkpoints.
fn matrix_checkpointed(session: &CompileSession) -> u64 {
    let mut acc = 0u64;
    for pass in pipeline_pass_names(PERSONALITY, LEVEL) {
        acc ^= session
            .build_variant(&PassGate::disabling([pass]))
            .object
            .content_hash();
    }
    acc
}

fn bench_variant_matrix(c: &mut Criterion) {
    let src = source();
    let session = CompileSession::from_source(&src, PERSONALITY, LEVEL, None).unwrap();
    // The two strategies must agree bit-for-bit before we time them.
    assert_eq!(matrix_from_scratch(&src), matrix_checkpointed(&session));

    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.bench_function("variant_matrix_from_scratch", |b| {
        b.iter(|| matrix_from_scratch(&src))
    });
    group.bench_function("variant_matrix_checkpointed", |b| {
        b.iter(|| matrix_checkpointed(&session))
    });
    // Session construction (the one-time cost the resumed matrix
    // amortizes): full ungated pipeline + snapshots.
    group.bench_function("session_construction", |b| {
        b.iter(|| CompileSession::from_source(&src, PERSONALITY, LEVEL, None).unwrap())
    });
    // Backend-only gates reuse the optimized module outright.
    group.bench_function("variant_backend_only_gate", |b| {
        b.iter(|| {
            session
                .build_variant(&PassGate::disabling(["schedule-insns2"]))
                .object
        })
    });
    group.finish();

    println!("session stats: {} snapshot(s)", session.stats().snapshots);
}

/// Tuner-level comparison: one full `evaluate` + a `dy`-style config
/// sweep through the shared artifact store, with the new telemetry
/// counters printed afterwards.
fn bench_tuner_configs(c: &mut Criterion) {
    let p = debugtuner::ProgramInput {
        name: "session-bench".into(),
        source: source(),
        harness: "fuzz_inflate".into(),
        inputs: vec![vec![3, 65, 66, 67, 0, 2, 7]],
        entry_args: vec![],
    };
    let tuner = debugtuner::DebugTuner::new(debugtuner::TunerConfig {
        max_steps_per_input: 1_000_000,
        threads: 1,
    });
    let names = pipeline_pass_names(PERSONALITY, LEVEL);
    let gates: Vec<PassGate> = (1..=4.min(names.len()))
        .map(|y| PassGate::disabling(names[..y].iter().copied()))
        .collect();

    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.bench_function("tuner_config_sweep_shared_store", |b| {
        b.iter(|| {
            gates
                .iter()
                .map(|g| tuner.evaluate_config(&p, PERSONALITY, LEVEL, g).product)
                .sum::<f64>()
        })
    });
    group.bench_function("config_sweep_from_scratch", |b| {
        b.iter(|| {
            gates
                .iter()
                .map(|g| {
                    let fresh = debugtuner::DebugTuner::new(tuner.config.clone());
                    fresh.evaluate_config(&p, PERSONALITY, LEVEL, g).product
                })
                .sum::<f64>()
        })
    });
    group.finish();

    println!("{}", tuner.stats().summary());
}

criterion_group!(benches, bench_variant_matrix, bench_tuner_configs);
criterion_main!(benches);
