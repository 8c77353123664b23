//! Arguments, the outcome every workload returns, and the checks and
//! input generation the workloads share.

use crate::spans::span;
use debugtuner::ProgramInput;
use dt_passes::{compile_source, CompileOptions, OptLevel, Personality};
use dt_vm::{Halt, Vm, VmConfig};
use serde::Serialize;
pub use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The seed whose outputs are recorded under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few ops on two programs, for smoke tests.
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
    /// Rewrite the expected outputs instead of comparing against them.
    pub record_expected: bool,
}

impl Args {
    /// Whether this run's outputs can be compared with `expected/`.
    pub fn golden(&self) -> bool {
        self.size == Size::Full && self.seed == DEFAULT_SEED
    }

    /// Worker threads for a tuner: at most two, and at most `nproc`.
    pub fn threads(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(2)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed round (one pass over every op).
    pub round_walls: Vec<f64>,
    /// Per round, the latency of each op in milliseconds, in op order.
    pub op_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Per-layer metrics of a traced run.
    pub layer: BTreeMap<String, f64>,
    /// Untraced latency in ms of each op a traced run replayed.
    pub replayed_op_ms: Vec<f64>,
}

impl Outcome {
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: check failed: {msg}");
        self.problems.push(msg);
    }

    /// Adds `v` to per-layer metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.layer.entry(name.to_string()).or_default() += v;
    }
}

/// Whether to start another timed round: the first always runs, a
/// later one only if a median round still ends within `--seconds`.
pub fn another_round(args: &Args, start: std::time::Instant, walls: &[f64]) -> bool {
    walls.is_empty() || start.elapsed().as_secs_f64() + median(walls) <= args.seconds
}

/// Splits a seed into independent per-purpose seeds (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a string: gives each program its own seed stream and
/// condenses hunt digests.
pub fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// One op: program index, personality, level.
pub type Op = (usize, Personality, OptLevel);

/// Every program at every studied personality and level, grouped by
/// personality and level.
pub fn ops(programs: usize) -> Vec<Op> {
    crate::layers::levels()
        .into_iter()
        .flat_map(|(p, l)| (0..programs).map(move |i| (i, p, l)))
        .collect()
}

pub fn op_key(programs: &[ProgramInput], op: &Op) -> String {
    format!("{}|{}|{}", programs[op.0].name, op.1, op.2)
}

/// Set-up: builds every suite program's input with `build`, five times
/// in a timed run (one in a traced run), recording each repetition's
/// time. Every repetition must build the same inputs.
pub fn set_up(
    args: &Args,
    out: &mut Outcome,
    build: impl Fn(&dt_testsuite::TestProgram) -> ProgramInput,
) -> Vec<ProgramInput> {
    let reps = if args.trace { 1 } else { 5 };
    let mut first: Option<Vec<ProgramInput>> = None;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let programs: Vec<ProgramInput> = suite(args.size).iter().map(&build).collect();
        out.setup_s.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(programs),
            Some(f) if f.iter().zip(&programs).any(|(a, b)| a.inputs != b.inputs) => {
                out.problem("set-up built different inputs from the same seed");
            }
            Some(_) => {}
        }
    }
    first.expect("at least one set-up repetition")
}

/// Adds a debug session's counters to the trace.
pub fn count_trace(stats: &dt_debugger::TraceStats) {
    crate::spans::count("debugger.fast_steps", stats.fast_steps as f64);
    crate::spans::count("debugger.break_stops", stats.break_stops as f64);
    crate::spans::count("debugger.inputs_abandoned", stats.inputs_abandoned as f64);
}

/// The real-world suite, or its first two programs at tiny size.
pub fn suite(size: Size) -> Vec<dt_testsuite::TestProgram> {
    let mut suite = dt_testsuite::real_world_suite();
    if size == Size::Tiny {
        suite.truncate(2);
    }
    suite
}

/// The paper's input pipeline for one suite program (fuzz, then `cmin`,
/// then `trace_min` over the `O0` binary), seeded from the workload
/// seed: `ProgramInput::from_suite` with the fuzzing seed exposed.
pub fn suite_input(p: &dt_testsuite::TestProgram, iterations: u32, seed: u64) -> ProgramInput {
    let harness = p.harnesses[0].to_string();
    let module = span("frontend.lower", || dt_frontend::lower_source(p.source))
        .expect("suite program lowers");
    let obj = span("machine.backend", || {
        dt_machine::run_backend(&module, &dt_machine::BackendConfig::default())
    });
    let seeds: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
    let cfg = dt_corpus::FuzzConfig {
        iterations,
        max_len: 48,
        seed: mix(seed, fnv1a(p.name)),
        max_steps: 300_000,
        entry_args: Vec::new(),
    };
    let report = span("corpus.fuzz_self", || {
        dt_corpus::fuzz(&obj, &harness, &seeds, &cfg)
    });
    crate::spans::count("corpus.executions", report.executions as f64);
    crate::spans::count("corpus.queue_len", report.queue.len() as f64);
    let cmin = span("corpus.cmin", || {
        dt_corpus::cmin(&obj, &harness, &[], &report.queue, 300_000)
    });
    let inputs = span("corpus.trace_min", || {
        dt_corpus::trace_min(&obj, &harness, &[], &cmin, 2_000_000)
    });
    ProgramInput {
        name: p.name.to_string(),
        source: p.source.to_string(),
        harness,
        inputs,
        entry_args: Vec::new(),
    }
}

/// Differential check of every op's optimized build against `O0` on the
/// program's inputs plus `extra(op)`. Returns the ops whose build
/// computes something else.
pub fn differential(
    programs: &[ProgramInput],
    ops: &[Op],
    extra: impl Fn(usize) -> Vec<Vec<u8>>,
    out: &mut Outcome,
) -> std::collections::BTreeSet<usize> {
    let oracles: Vec<Result<Differential, String>> = programs
        .iter()
        .map(|p| Differential::new(&p.source, &p.harness))
        .collect();
    let mut wrong = std::collections::BTreeSet::new();
    for (id, &(i, p, l)) in ops.iter().enumerate() {
        let mut inputs = programs[i].inputs.clone();
        inputs.extend(extra(id));
        let result = oracles[i]
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|d| d.check(p, l, &inputs));
        if let Err(e) = result {
            out.problem(format!("{}: {e}", programs[i].name));
            wrong.insert(id);
        }
    }
    wrong
}

/// Differential check of the compiler: on every input on which the
/// `O0` build finishes, the build at `level` must finish with the same
/// return value and output.
struct Differential {
    source: String,
    harness: String,
    o0: dt_machine::Object,
}

const DIFF_STEPS: u64 = 5_000_000;

fn run(obj: &dt_machine::Object, harness: &str, input: &[u8]) -> Result<dt_vm::ExecResult, String> {
    let cfg = VmConfig {
        max_steps: DIFF_STEPS,
        model_cycles: false,
        ..VmConfig::default()
    };
    Vm::run_to_completion(obj, harness, &[], input, cfg)
}

impl Differential {
    fn new(source: &str, harness: &str) -> Result<Self, String> {
        let o0 = compile_source(source, &CompileOptions::new(Personality::Gcc, OptLevel::O0))?;
        Ok(Differential {
            source: source.to_string(),
            harness: harness.to_string(),
            o0,
        })
    }

    /// Returns the number of inputs compared.
    fn check(
        &self,
        personality: Personality,
        level: OptLevel,
        inputs: &[Vec<u8>],
    ) -> Result<usize, String> {
        let opt = compile_source(&self.source, &CompileOptions::new(personality, level))?;
        let mut compared = 0;
        for input in inputs {
            let base = run(&self.o0, &self.harness, input)?;
            if base.halt != Halt::Finished {
                continue;
            }
            let got = run(&opt, &self.harness, input)?;
            if got.halt != Halt::Finished || got.ret != base.ret || got.output != base.output {
                return Err(format!(
                    "{personality} {level} on input {input:?}: O0 returned {} with output {:?}, \
                     the optimized build {:?} returned {} with output {:?}",
                    base.ret, base.output, got.halt, got.ret, got.output
                ));
            }
            compared += 1;
        }
        Ok(compared)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The value at the highest percentile that leaves at least ten samples
/// above it (the maximum when there are fewer than eleven), with that
/// percentile.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let i = if n > 10 { n - 11 } else { n - 1 };
    (s[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// A JSON object built from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Any serializable value as a JSON value.
pub fn val<T: Serialize + ?Sized>(x: &T) -> Value {
    x.to_value()
}

/// Recorded outputs, keyed by op or output name.
pub type Expected = BTreeMap<String, Value>;

pub fn parse_expected(text: &str) -> Expected {
    serde_json::from_str(text).expect("expected outputs are a JSON object")
}

/// Compares `got` with the recorded value `key`, as JSON text, or
/// records it. Returns whether they agree.
pub fn compare_expected(
    expected: &Expected,
    recorded: &mut Expected,
    key: &str,
    got: Value,
    record: bool,
) -> bool {
    if record {
        recorded.insert(key.to_string(), got);
        return true;
    }
    let text = |v: &Value| serde_json::to_string(v).expect("JSON value serializes");
    expected.get(key).map(text) == Some(text(&got))
}

/// Writes an expected-output file into the benchmark's source tree.
pub fn write_expected(file: &str, value: &Expected) -> std::io::Result<()> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(file);
    let text = serde_json::to_string_pretty(value).expect("JSON value serializes");
    std::fs::write(&path, text + "\n")?;
    eprintln!("perfbench: recorded {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct) = tail(&v);
        assert_eq!(t, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
