//! `defect_hunt`: the checker as a fuzzing oracle.
//!
//! Set-up builds a seed corpus per suite program from the workload seed
//! (the suite's own seeds plus a short fuzz, `cmin` and `trace_min`
//! pass). Each op is one single-threaded `dt_checker::hunt` of one
//! program at one personality and level with a fixed `HuntConfig` whose
//! fuzzing seed derives from the workload seed (91 ops on the full
//! suite).

use crate::common::{self, obj, val, Args, Expected, Op, Outcome, Size, Value};
use crate::layers;
use crate::spans::{self, enter, span};
use debugtuner::ProgramInput;
use dt_checker::{DefectSummary, HuntConfig, HuntResult};
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{CompileOptions, CompileSession, OptLevel, PassGate, Personality};
use serde::Deserialize;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fuzzing iterations per harness when building the seed corpus.
const SEED_ITERS: u32 = 100;
/// Fuzzing iterations of one hunt.
const HUNT_ITERS: u32 = 150;
const TINY_ITERS: u32 = 20;
const EXPECTED: &str = include_str!("../expected/defect_hunt.json");

fn config(args: &Args, id: usize) -> HuntConfig {
    HuntConfig {
        fuzz: dt_corpus::FuzzConfig {
            iterations: match args.size {
                Size::Full => HUNT_ITERS,
                Size::Tiny => TINY_ITERS,
            },
            max_len: 48,
            seed: common::mix(args.seed, 0x4855_4e54 + id as u64),
            max_steps: 300_000,
            entry_args: Vec::new(),
        },
        max_steps_per_input: 1_000_000,
    }
}

/// The program's inputs with the suite's own seeds first: the hunt's
/// seed corpus.
fn seed_corpus(p: &dt_testsuite::TestProgram, iterations: u32, seed: u64) -> ProgramInput {
    let mut input = common::suite_input(p, iterations, seed);
    let mut seeds: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
    for i in input.inputs {
        if !seeds.contains(&i) {
            seeds.push(i);
        }
    }
    input.inputs = seeds;
    input
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(h: &str) -> Vec<u8> {
    (0..h.len() / 2)
        .map(|k| u8::from_str_radix(&h[2 * k..2 * k + 2], 16).expect("digests hold hex"))
        .collect()
}

/// Everything a hunt returns, as JSON.
fn digest(r: &HuntResult) -> Value {
    let hexes = |v: &[Vec<u8>]| Value::Array(v.iter().map(|q| Value::Str(hex(q))).collect());
    let defects = r
        .defect_inputs
        .iter()
        .map(|(i, s)| Value::Array(vec![Value::Str(hex(i)), val(s)]))
        .collect();
    obj(vec![
        ("queue", hexes(&r.report.queue)),
        ("coverage_points", val(&r.report.coverage_points)),
        ("executions", val(&r.report.executions)),
        ("oracle_hits", hexes(&r.report.oracle_hits)),
        ("defect_inputs", Value::Array(defects)),
    ])
}

fn defect_pairs(d: &Value) -> &[Value] {
    d.get("defect_inputs")
        .and_then(Value::as_array)
        .unwrap_or_default()
}

/// The recorded form of a hunt: its defect summary totals plus a hash
/// of the whole digest.
fn summary(d: &Value) -> Value {
    let mut total = DefectSummary::default();
    for pair in defect_pairs(d) {
        let s = pair
            .as_array()
            .and_then(|p| DefectSummary::from_value(&p[1]).ok())
            .unwrap_or_default();
        total.wrong += s.wrong;
        total.stale += s.stale;
        total.phantom += s.phantom;
        total.misplaced += s.misplaced;
        total.lines_checked += s.lines_checked;
        total.values_checked += s.values_checked;
    }
    let field = |k: &str| d.get(k).cloned().unwrap_or(Value::Null);
    let queue_len = d
        .get("queue")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    let text = serde_json::to_string(d).expect("digest serializes");
    obj(vec![
        ("flagged_inputs", val(&defect_pairs(d).len())),
        ("defects", val(&total)),
        ("executions", field("executions")),
        ("coverage_points", field("coverage_points")),
        ("queue_len", val(&queue_len)),
        (
            "digest_fnv",
            Value::Str(format!("{:016x}", common::fnv1a(&text))),
        ),
    ])
}

fn hunt(
    t: &ProgramInput,
    p: Personality,
    l: OptLevel,
    cfg: &HuntConfig,
) -> Result<HuntResult, String> {
    dt_checker::hunt(
        &t.source,
        &t.harness,
        &CompileOptions::new(p, l),
        &t.inputs,
        cfg,
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let iters = match args.size {
        Size::Full => SEED_ITERS,
        Size::Tiny => TINY_ITERS,
    };
    let targets = common::set_up(args, &mut out, |p| seed_corpus(p, iters, args.seed));
    let ops = common::ops(targets.len());
    let configs: Vec<HuntConfig> = (0..ops.len()).map(|id| config(args, id)).collect();
    if args.trace {
        traced(&targets, &ops, &configs, &mut out);
        return out;
    }

    let mut first: Option<Vec<Value>> = None;
    let mut bad_rounds: Vec<BTreeSet<usize>> = Vec::new();
    let start = Instant::now();
    while common::another_round(args, start, &out.round_walls) {
        let round_start = Instant::now();
        let mut op_ms = Vec::with_capacity(ops.len());
        let mut digests = Vec::with_capacity(ops.len());
        let mut bad = BTreeSet::new();
        for (id, &(i, p, l)) in ops.iter().enumerate() {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| hunt(&targets[i], p, l, &configs[id])));
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let d = match r {
                Ok(r) => r.map(|r| digest(&r)),
                Err(_) => Err("panicked".to_string()),
            }
            .unwrap_or_else(|e| {
                out.problem(format!("{}: {e}", common::op_key(&targets, &ops[id])));
                bad.insert(id);
                Value::Null
            });
            if first.as_ref().is_some_and(|f| f[id] != d) {
                out.problem(format!(
                    "{} differs between rounds",
                    common::op_key(&targets, &ops[id])
                ));
                bad.insert(id);
            }
            digests.push(d);
        }
        out.round_walls.push(round_start.elapsed().as_secs_f64());
        out.op_ms.push(op_ms);
        first.get_or_insert(digests);
        bad_rounds.push(bad);
    }
    let first = first.expect("at least one round");

    let mut wrong = check_expected(args, &targets, &ops, &first, &mut out);
    // The optimized build must also compute what `O0` computes on every
    // input the hunt flagged.
    let flagged = |id: usize| -> Vec<Vec<u8>> {
        defect_pairs(&first[id])
            .iter()
            .filter_map(|pair| pair.as_array()?.first()?.as_str().map(unhex))
            .collect()
    };
    wrong.extend(common::differential(&targets, &ops, flagged, &mut out));
    for bad in &bad_rounds {
        out.attempted += ops.len() as u64;
        out.failed += bad.union(&wrong).count() as u64;
    }
    out
}

fn check_expected(
    args: &Args,
    targets: &[ProgramInput],
    ops: &[Op],
    digests: &[Value],
    out: &mut Outcome,
) -> BTreeSet<usize> {
    let mut wrong = BTreeSet::new();
    if !args.golden() {
        return wrong;
    }
    let expected = common::parse_expected(EXPECTED);
    let mut recorded = Expected::new();
    for (id, op) in ops.iter().enumerate() {
        let key = common::op_key(targets, op);
        let got = summary(&digests[id]);
        if !common::compare_expected(&expected, &mut recorded, &key, got, args.record_expected) {
            out.problem(format!("{key}: defect summary differs from expected/"));
            wrong.insert(id);
        }
    }
    if args.record_expected {
        common::write_expected("defect_hunt.json", &recorded)
            .expect("expected outputs are writable");
    }
    wrong
}

// ------------------------------------------------------------ traced

/// `dt_checker::hunt` replayed through each layer's public functions.
/// Returns the result and the optimized object.
fn replay_hunt(
    t: &ProgramInput,
    p: Personality,
    l: OptLevel,
    cfg: &HuntConfig,
) -> (HuntResult, dt_machine::Object, dt_ir::Module) {
    let analysis = span("frontend.analysis", || {
        SourceAnalysis::of(&dt_minic::compile_check(&t.source).expect("program is valid"))
    });
    let module =
        span("frontend.lower", || dt_frontend::lower_source(&t.source)).expect("program lowers");
    spans::count("frontend.ir_insts", layers::ir_insts(&module) as f64);
    let o0 = span("machine.backend", || {
        dt_machine::run_backend(&module, &dt_machine::BackendConfig::default())
    });
    let o0_plan = span("debugger.plan", || BreakPlan::new(&o0));
    let session = span("passes.session", || {
        CompileSession::new(module.clone(), p, l, None)
    });
    spans::count("passes.snapshots", session.stats().snapshots as f64);
    let built = span("passes.variant", || {
        session.build_variant(&PassGate::allow_all())
    });
    spans::count("passes.prefix_skipped", built.prefix_skipped as f64);
    let opt = built.object;
    let opt_plan = span("debugger.plan", || BreakPlan::new(&opt));

    let gt_session = SessionConfig {
        max_steps_per_input: cfg.max_steps_per_input,
        entry_args: cfg.fuzz.entry_args.clone(),
        ground_truth: true,
    };
    let session_cfg = SessionConfig {
        ground_truth: false,
        ..gt_session.clone()
    };
    let mut base_memo: HashMap<Vec<u8>, Option<DebugTrace>> = HashMap::new();
    let mut defect_inputs: Vec<(Vec<u8>, DefectSummary)> = Vec::new();
    let interesting = |input: &[u8]| -> bool {
        let base = base_memo.entry(input.to_vec()).or_insert_with(|| {
            span("debugger.gt_trace", || {
                dt_debugger::trace_with_plan_stats(
                    &o0,
                    &t.harness,
                    &[input.to_vec()],
                    &gt_session,
                    &o0_plan,
                )
            })
            .ok()
            .map(|(trace, stats)| {
                common::count_trace(&stats);
                trace
            })
        });
        let Some(base) = base else {
            return false;
        };
        let inputs = [input.to_vec()];
        let Ok((trace, stats)) = span("debugger.trace", || {
            dt_debugger::trace_with_plan_stats(&opt, &t.harness, &inputs, &session_cfg, &opt_plan)
        }) else {
            return false;
        };
        common::count_trace(&stats);
        let summary = span("checker.check", || {
            dt_checker::check(&trace, base, &analysis).summary
        });
        let flagged = summary.total() > 0;
        spans::count("checker.flagged", flagged as u64 as f64);
        if flagged {
            defect_inputs.push((input.to_vec(), summary));
        }
        flagged
    };
    let report = span("corpus.fuzz_self", || {
        dt_corpus::fuzz_with_oracle(&opt, &t.harness, &t.inputs, &cfg.fuzz, interesting)
    });
    spans::count("corpus.executions", report.executions as f64);
    spans::count("corpus.queue_len", report.queue.len() as f64);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    defect_inputs.retain(|(i, _)| seen.insert(i.clone()));
    (
        HuntResult {
            report,
            defect_inputs,
        },
        opt,
        module,
    )
}

fn traced(targets: &[ProgramInput], ops: &[Op], configs: &[HuntConfig], out: &mut Outcome) {
    let t = Instant::now();
    let mut ref_ms = Vec::new();
    let mut ref_digests = Vec::new();
    for (id, &(i, p, l)) in ops.iter().enumerate() {
        let t = Instant::now();
        let r = hunt(&targets[i], p, l, &configs[id]);
        ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ref_digests.push(r.map(|r| digest(&r)).unwrap_or(Value::Null));
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut builds = Vec::new();
    for (id, &(i, p, l)) in ops.iter().enumerate() {
        spans::set_op(Some(id as u32));
        let _op = enter("op.defect_hunt");
        let (r, obj, module) = replay_hunt(&targets[i], p, l, &configs[id]);
        if digest(&r) != ref_digests[id] {
            out.problem(format!(
                "{}: replayed hunt differs from dt_checker::hunt",
                common::op_key(targets, &ops[id])
            ));
        }
        builds.push((obj.content_hash(), module));
    }
    let traced_s = t.elapsed().as_secs_f64();

    for (id, &(_, p, l)) in ops.iter().enumerate() {
        spans::set_op(Some(id as u32));
        let (insts, obj) = layers::probe_reference_build(&builds[id].1, p, l);
        spans::count("passes.ir_insts_out", insts as f64);
        spans::count("machine.text_bytes", obj.text.len() as f64);
        if obj.content_hash() != builds[id].0 {
            out.problem(format!(
                "{}: probe build differs",
                common::op_key(targets, &ops[id])
            ));
        }
    }
    spans::set_op(None);
    out.add("trace.overhead_ratio", traced_s / untraced_s);
    out.replayed_op_ms = ref_ms;
    out.attempted = ops.len() as u64;
    out.failed = out.problems.len().min(ops.len()) as u64;
}
