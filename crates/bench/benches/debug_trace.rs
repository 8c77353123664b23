//! Slow-step vs fast-path debug-session benchmarks (the PR 5 bench
//! trajectory): the same temporary-breakpoint session run through the
//! single-`step()` reference engine and through the in-VM breakpoint
//! bitmap (`BreakPlan` + `Vm::run_until_break`), on the two largest
//! suite programs at `O2`. Both engines produce bit-identical traces
//! (asserted once per config before measuring); the ratio between the
//! paired benchmarks is the headline speedup tracked in BENCH_*.json.

use criterion::{criterion_group, criterion_main, Criterion};
use dt_debugger::{trace, trace_with_plan_stats, BreakPlan, SessionConfig};
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};

fn bench_program(c: &mut Criterion, name: &str) {
    let p = dt_testsuite::program(name).unwrap();
    let obj = compile_source(
        p.source,
        &CompileOptions::new(Personality::Gcc, OptLevel::O2),
    )
    .unwrap();
    let inputs: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
    let harness = p.harnesses[0];
    let session = SessionConfig::default();
    let plan = BreakPlan::new(&obj);
    assert_eq!(
        trace(&obj, harness, &inputs, &session).unwrap(),
        trace_with_plan_stats(&obj, harness, &inputs, &session, &plan)
            .unwrap()
            .0,
        "{name}: engines must agree before being compared"
    );

    // 50 samples per benchmark: the headline slow/fast ratio feeds the
    // tracked BENCH_*.json snapshot, so it gets extra noise margin.
    let mut group = c.benchmark_group("debug_trace");
    group.sample_size(50);
    group.bench_function(format!("trace_slow_{name}_o2").as_str(), |b| {
        b.iter(|| trace(&obj, harness, &inputs, &session).unwrap())
    });
    group.bench_function(format!("trace_fast_{name}_o2").as_str(), |b| {
        b.iter(|| trace_with_plan_stats(&obj, harness, &inputs, &session, &plan).unwrap())
    });
    // The one-shot form (plan built inside the measurement) bounds the
    // break-even point for single-use objects like variant builds.
    group.bench_function(format!("trace_fast_oneshot_{name}_o2").as_str(), |b| {
        b.iter(|| {
            trace_with_plan_stats(&obj, harness, &inputs, &session, &BreakPlan::new(&obj)).unwrap()
        })
    });
    group.finish();
}

fn bench_debug_trace(c: &mut Criterion) {
    bench_program(c, "libpng");
    bench_program(c, "wasm3");
}

criterion_group!(benches, bench_debug_trace);
criterion_main!(benches);
