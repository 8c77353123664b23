//! `rank_matrix`: the pass-ranking variant matrix (Section III-B).
//!
//! Set-up builds the suite's inputs from the workload seed. Each timed
//! round creates a fresh `DebugTuner` and issues one
//! `DebugTuner::evaluate` per program, personality and level (91 ops on
//! the full suite), closed-loop, followed by `rank_passes_across` per
//! personality and level.

use crate::common::{self, obj, val, Args, Expected, Op, Outcome, Size, Value};
use crate::layers;
use crate::spans::{self, enter, span};
use debugtuner::{
    rank_passes_across, DebugTuner, PassEffect, PassRanking, ProgramEvaluation, ProgramInput,
    TunerConfig,
};
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_metrics::Metrics;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{pipeline_pass_names, CompileSession, OptLevel, PassGate, Personality};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fuzzing iterations per harness when building the inputs.
const FUZZ_ITERS: u32 = 300;
const TINY_FUZZ_ITERS: u32 = 30;
/// Instruction budget per debugger input (the experiments' tuner's).
const MAX_STEPS: u64 = 3_000_000;
const EXPECTED: &str = include_str!("../expected/rank_matrix.json");

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let iters = match args.size {
        Size::Full => FUZZ_ITERS,
        Size::Tiny => TINY_FUZZ_ITERS,
    };
    let programs = common::set_up(args, &mut out, |p| common::suite_input(p, iters, args.seed));
    let ops = common::ops(programs.len());
    if args.trace {
        traced(&programs, &ops, &mut out);
        return out;
    }

    // Timed rounds: every op of every round must return the first
    // round's evaluation.
    let threads = args.threads();
    let mut first: Option<Vec<Value>> = None;
    let mut rankings: Vec<Value> = Vec::new();
    let mut bad_rounds: Vec<BTreeSet<usize>> = Vec::new();
    let start = Instant::now();
    while common::another_round(args, start, &out.round_walls) {
        let t = Instant::now();
        let (evals, op_ms, ranks) = round(&programs, &ops, threads);
        out.round_walls.push(t.elapsed().as_secs_f64());
        out.op_ms.push(op_ms);
        let mut bad = BTreeSet::new();
        for (i, e) in evals.iter().enumerate() {
            match (e, first.as_ref().map(|f| &f[i])) {
                (None, _) => {
                    out.problem(format!("{} panicked", common::op_key(&programs, &ops[i])));
                    bad.insert(i);
                }
                (Some(e), Some(f)) if e != f => {
                    out.problem(format!(
                        "{} differs between rounds",
                        common::op_key(&programs, &ops[i])
                    ));
                    bad.insert(i);
                }
                _ => {}
            }
        }
        if first.is_none() {
            first = Some(
                evals
                    .into_iter()
                    .map(|e| e.unwrap_or(Value::Null))
                    .collect(),
            );
            rankings = ranks;
        }
        bad_rounds.push(bad);
    }
    let first = first.expect("at least one round");

    // Outputs that are wrong in every round: expected outputs of the
    // default seed, and the differential check of every build.
    let mut wrong = check_expected(args, &programs, &ops, &first, &rankings, &mut out);
    wrong.extend(common::differential(
        &programs,
        &ops,
        |_| Vec::new(),
        &mut out,
    ));
    for bad in &bad_rounds {
        out.attempted += ops.len() as u64;
        out.failed += bad.union(&wrong).count() as u64;
    }
    out
}

/// One round on a fresh tuner: evaluations as JSON (`None` for a
/// panic), op latencies in ms, and the rankings per personality and
/// level.
fn round(
    programs: &[ProgramInput],
    ops: &[Op],
    threads: usize,
) -> (Vec<Option<Value>>, Vec<f64>, Vec<Value>) {
    let tuner = DebugTuner::new(TunerConfig {
        max_steps_per_input: MAX_STEPS,
        threads,
    });
    let mut evals = Vec::with_capacity(ops.len());
    let mut op_ms = Vec::with_capacity(ops.len());
    let mut rankings = Vec::new();
    for group in ops.chunks(programs.len()) {
        let mut group_evals = Vec::new();
        for &(i, p, l) in group {
            let t = Instant::now();
            let e = catch_unwind(AssertUnwindSafe(|| tuner.evaluate(&programs[i], p, l))).ok();
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            evals.push(e.as_ref().map(val));
            group_evals.extend(e);
        }
        let ranking = (group_evals.len() == group.len())
            .then(|| catch_unwind(|| rank_passes_across(&group_evals)).ok())
            .flatten();
        rankings.push(ranking_json(ranking.as_ref()));
    }
    (evals, op_ms, rankings)
}

fn ranking_json(r: Option<&PassRanking>) -> Value {
    r.map_or(Value::Null, val)
}

/// Compares the rankings and each op's reference metrics with the
/// outputs recorded for the default seed. Returns the ops whose output
/// is wrong.
fn check_expected(
    args: &Args,
    programs: &[ProgramInput],
    ops: &[Op],
    evals: &[Value],
    rankings: &[Value],
    out: &mut Outcome,
) -> BTreeSet<usize> {
    let mut wrong = BTreeSet::new();
    if !args.golden() {
        return wrong;
    }
    let expected = common::parse_expected(EXPECTED);
    let mut recorded = Expected::new();
    for (i, op) in ops.iter().enumerate() {
        let field = |k: &str| evals[i].get(k).cloned().unwrap_or(Value::Null);
        let got = obj(vec![
            ("reference", field("reference")),
            ("reference_defects", field("reference_defects")),
        ]);
        let key = common::op_key(programs, op);
        if !common::compare_expected(&expected, &mut recorded, &key, got, args.record_expected) {
            out.problem(format!("{key}: reference metrics differ from expected/"));
            wrong.insert(i);
        }
    }
    for (g, (p, l)) in layers::levels().into_iter().enumerate() {
        let key = format!("ranking|{p}|{l}");
        let got = rankings[g].clone();
        if !common::compare_expected(&expected, &mut recorded, &key, got, args.record_expected) {
            out.problem(format!("{key}: ranking differs from expected/"));
            wrong.extend(g * programs.len()..(g + 1) * programs.len());
        }
    }
    if args.record_expected {
        common::write_expected("rank_matrix.json", &recorded)
            .expect("expected outputs are writable");
    }
    wrong
}

// ------------------------------------------------------------ traced

/// Per-program artifacts of the replay, as `ArtifactStore` keeps them.
struct Artifacts {
    analysis: SourceAnalysis,
    module: dt_ir::Module,
    o0_steppable: usize,
    base_trace: DebugTrace,
}

fn artifacts(program: &ProgramInput) -> Artifacts {
    let analysis = span("frontend.analysis", || {
        let parsed = dt_minic::compile_check(&program.source).expect("program is valid");
        SourceAnalysis::of(&parsed)
    });
    let module = span("frontend.lower", || {
        dt_frontend::lower_source(&program.source)
    })
    .expect("program lowers");
    spans::count("frontend.ir_insts", layers::ir_insts(&module) as f64);
    let o0 = span("machine.backend", || {
        dt_machine::run_backend(&module, &dt_machine::BackendConfig::default())
    });
    let plan = span("debugger.plan", || BreakPlan::new(&o0));
    let session = SessionConfig {
        max_steps_per_input: MAX_STEPS,
        entry_args: program.entry_args.clone(),
        ground_truth: true,
    };
    let (base_trace, stats) = span("debugger.gt_trace", || {
        dt_debugger::trace_with_plan_stats(&o0, &program.harness, &program.inputs, &session, &plan)
    })
    .expect("baseline session");
    common::count_trace(&stats);
    Artifacts {
        analysis,
        module,
        o0_steppable: o0.debug.steppable_lines().len(),
        base_trace,
    }
}

fn trace_and_score(
    obj: &dt_machine::Object,
    program: &ProgramInput,
    art: &Artifacts,
) -> (Metrics, DebugTrace) {
    let plan = span("debugger.plan", || BreakPlan::new(obj));
    let session = SessionConfig {
        max_steps_per_input: MAX_STEPS,
        entry_args: program.entry_args.clone(),
        ground_truth: false,
    };
    let (trace, stats) = span("debugger.trace", || {
        dt_debugger::trace_with_plan_stats(obj, &program.harness, &program.inputs, &session, &plan)
    })
    .expect("debug session runs");
    common::count_trace(&stats);
    let m = span("metrics.hybrid", || {
        dt_metrics::hybrid(&trace, &art.base_trace, &art.analysis)
    });
    (m, trace)
}

fn check(trace: &DebugTrace, art: &Artifacts) -> DefectSummary {
    let summary = span("checker.check", || {
        dt_checker::check(trace, &art.base_trace, &art.analysis).summary
    });
    spans::count("checker.flagged", (summary.total() > 0) as u64 as f64);
    summary
}

type TraceCache = HashMap<(String, u64), (Metrics, DefectSummary)>;

/// `DebugTuner::evaluate` replayed through each layer's public
/// functions, serially. Returns the evaluation and the reference
/// object.
fn replay_evaluate(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    store: &mut HashMap<String, Artifacts>,
    cache: &mut TraceCache,
) -> (ProgramEvaluation, dt_machine::Object) {
    let art: &Artifacts = store
        .entry(program.name.clone())
        .or_insert_with(|| artifacts(program));
    let session = span("passes.session", || {
        CompileSession::new(art.module.clone(), personality, level, None)
    });
    spans::count("passes.snapshots", session.stats().snapshots as f64);
    let reference_obj = span("passes.reference", || session.reference_object());
    let (reference, ref_trace) = trace_and_score(&reference_obj, program, art);
    let methods = span("metrics.all_methods", || {
        dt_metrics::all_methods(
            &reference_obj.debug,
            &ref_trace,
            &art.base_trace,
            &art.analysis,
        )
    });
    let reference_defects = check(&ref_trace, art);

    let scope = format!("{}|{personality}|{level}", program.name);
    let mut effects = Vec::new();
    for pass in pipeline_pass_names(personality, level) {
        let built = span("passes.variant", || {
            session.build_variant(&PassGate::disabling([pass]))
        });
        spans::count("passes.prefix_skipped", built.prefix_skipped as f64);
        if built.object.text_eq(&reference_obj) {
            spans::count("passes.noop_variants", 1.0);
            effects.push(PassEffect {
                pass: pass.to_string(),
                metrics: None,
                relative_increment: 0.0,
                defects: None,
                defect_delta: 0.0,
            });
            continue;
        }
        let key = (scope.clone(), built.object.content_hash());
        let (m, defects) = match cache.get(&key) {
            Some(&hit) => hit,
            None => {
                let (m, trace) = trace_and_score(&built.object, program, art);
                let hit = (m, check(&trace, art));
                cache.insert(key, hit);
                hit
            }
        };
        let rel = if reference.product > 0.0 {
            (m.product - reference.product) / reference.product
        } else if m.product > 0.0 {
            1.0
        } else {
            0.0
        };
        effects.push(PassEffect {
            pass: pass.to_string(),
            metrics: Some(m),
            relative_increment: rel,
            defects: Some(defects),
            defect_delta: defects.rate() - reference_defects.rate(),
        });
    }
    let eval = ProgramEvaluation {
        program: program.name.clone(),
        reference,
        methods,
        effects,
        steppable_lines_o0: art.o0_steppable,
        stepped_lines_o0: art.base_trace.stepped_lines().len(),
        reference_defects,
    };
    (eval, reference_obj)
}

/// The traced run: the untraced serial evaluation as the reference,
/// then the same ops replayed under spans, then the build probes.
fn traced(programs: &[ProgramInput], ops: &[Op], out: &mut Outcome) {
    let tuner = DebugTuner::new(TunerConfig {
        max_steps_per_input: MAX_STEPS,
        threads: 1,
    });
    let t = Instant::now();
    let mut ref_ms = Vec::new();
    let mut ref_evals = Vec::new();
    let mut ref_ranks = Vec::new();
    for group in ops.chunks(programs.len()) {
        let mut evals = Vec::new();
        for &(i, p, l) in group {
            let t = Instant::now();
            evals.push(tuner.evaluate(&programs[i], p, l));
            ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        ref_ranks.push(rank_passes_across(&evals));
        ref_evals.extend(evals);
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut store = HashMap::new();
    let mut cache = TraceCache::new();
    let mut objects = Vec::new();
    for (g, group) in ops.chunks(programs.len()).enumerate() {
        let mut evals = Vec::new();
        for (k, &(i, p, l)) in group.iter().enumerate() {
            let id = g * programs.len() + k;
            spans::set_op(Some(id as u32));
            let _op = enter("op.rank_matrix");
            let (eval, obj) = replay_evaluate(&programs[i], p, l, &mut store, &mut cache);
            evals.push(eval);
            objects.push(obj);
        }
        spans::set_op(None);
        let ranking = span("core.rank", || rank_passes_across(&evals));
        if ranking_json(Some(&ranking)) != ranking_json(Some(&ref_ranks[g])) {
            out.problem(format!("replayed ranking {g} differs from DebugTuner's"));
        }
        for (k, eval) in evals.iter().enumerate() {
            let id = g * programs.len() + k;
            if val(eval) != val(&ref_evals[id]) {
                out.problem(format!(
                    "{}: replayed PassEffects differ from DebugTuner::evaluate",
                    common::op_key(programs, &ops[id])
                ));
            }
        }
    }
    let traced_s = t.elapsed().as_secs_f64();

    for (id, &(i, p, l)) in ops.iter().enumerate() {
        spans::set_op(Some(id as u32));
        let module = dt_frontend::lower_source(&programs[i].source).expect("program lowers");
        let (insts, obj) = layers::probe_reference_build(&module, p, l);
        spans::count("passes.ir_insts_out", insts as f64);
        spans::count("machine.text_bytes", obj.text.len() as f64);
        if obj.content_hash() != objects[id].content_hash() {
            out.problem(format!(
                "{}: probe build differs",
                common::op_key(programs, &ops[id])
            ));
        }
    }
    spans::set_op(None);

    let stats = tuner.stats();
    out.add("core.builds", stats.builds as f64);
    out.add("core.traces", stats.traces as f64);
    out.add("core.pruned_variants", stats.pruned_variants as f64);
    out.add("core.resumed_variants", stats.resumed_variants as f64);
    out.add("core.artifact_hits", stats.artifact_hits as f64);
    out.add(
        "core.trace_cache_hit_ratio",
        stats.trace_cache_hits as f64 / stats.traces.max(1) as f64,
    );
    out.add("trace.overhead_ratio", traced_s / untraced_s);
    out.replayed_op_ms = ref_ms;
    out.attempted = ops.len() as u64;
    out.failed = out.problems.len().min(ops.len()) as u64;
}
