//! Differential debug-info *correctness* oracle.
//!
//! DebugTuner's metrics measure how much debug information survives
//! optimization; this crate asks whether the surviving information is
//! **true**. It diffs a debug trace of an optimized binary against the
//! ground-truth trace of the O0 build (same source, same inputs) and
//! classifies every divergence into the defect taxonomy of the related
//! work ("Who is Debugging the Debuggers?", "Where Did My Variable
//! Go?"):
//!
//! * **wrong value** — the debugger prints a value for a variable that
//!   differs from the variable's true value at that line;
//! * **stale value** — a wrong value that equals the variable's true
//!   value at an *earlier* point of the run (a location list left
//!   pointing at an out-of-date home, the classic dropped-`dbg.value`
//!   symptom);
//! * **phantom variable** — a value is reported for a variable outside
//!   its source-level scope, and the value is one the variable never
//!   held (in-scope-looking garbage, per `minic`'s per-line scope
//!   analysis);
//! * **misplaced line** — the optimized binary stops on a line the O0
//!   run never reached on the same inputs (line-table damage from
//!   code motion).
//!
//! The O0 trace is recorded with [`dt_debugger::SessionConfig::ground_truth`]
//! so its values come from the VM's shadow state rather than from
//! location lists — the oracle's baseline is the source semantics, not
//! another debugger view.

use dt_debugger::{BreakPlan, DebugTrace, SessionConfig, TraceStats};
use dt_machine::Object;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::CompileOptions;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The defect taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefectClass {
    WrongValue,
    StaleValue,
    PhantomVariable,
    MisplacedLine,
}

/// One classified divergence between an optimized trace and the O0
/// ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Defect {
    pub class: DefectClass,
    /// Function the stop was attributed to.
    pub func: String,
    pub line: u32,
    /// The offending variable (`None` for misplaced lines).
    pub var: Option<String>,
    /// What the debugger printed.
    pub observed: Option<i64>,
    /// The ground-truth value (`None` when none exists, e.g. phantoms).
    pub expected: Option<i64>,
}

/// Defect counts per class plus the comparison volume behind them.
/// `Copy` so it can ride along in caches next to `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectSummary {
    pub wrong: u32,
    pub stale: u32,
    pub phantom: u32,
    pub misplaced: u32,
    /// Stepped lines examined.
    pub lines_checked: u32,
    /// Variable values compared (or scope-screened).
    pub values_checked: u32,
}

impl DefectSummary {
    /// Total classified defects.
    pub fn total(&self) -> u32 {
        self.wrong + self.stale + self.phantom + self.misplaced
    }

    /// Defects per comparison opportunity, in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        let opportunities = (self.lines_checked + self.values_checked).max(1);
        self.total() as f64 / opportunities as f64
    }
}

/// The oracle's verdict on one optimized trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Classified defects, ordered by line then variable.
    pub defects: Vec<Defect>,
    pub summary: DefectSummary,
}

impl CheckReport {
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

/// First-hit position of every stepped line (the temporal order the
/// staleness test needs). Falls back to ascending line order for
/// PR-1-era traces without `hit_order`.
fn hit_positions(trace: &DebugTrace) -> HashMap<u32, usize> {
    if trace.hit_order.is_empty() {
        trace
            .lines
            .keys()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect()
    } else {
        trace
            .hit_order
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect()
    }
}

/// Diffs an optimized-binary trace against the O0 ground-truth trace
/// and classifies every divergence. Both traces must come from the
/// same source and input set; `base` should be recorded with
/// [`SessionConfig::ground_truth`] on the O0 build.
pub fn check(opt: &DebugTrace, base: &DebugTrace, analysis: &SourceAnalysis) -> CheckReport {
    let base_pos = hit_positions(base);

    // Every value each variable ever held in the ground-truth run, and
    // the earliest position it held each one (for staleness).
    let mut held: HashMap<(&str, &str), BTreeSet<i64>> = HashMap::new();
    let mut earliest: HashMap<(&str, &str, i64), usize> = HashMap::new();
    for (line, obs) in &base.lines {
        let pos = base_pos[line];
        for (var, &v) in &obs.values {
            held.entry((&obs.func, var)).or_default().insert(v);
            earliest
                .entry((&obs.func, var, v))
                .and_modify(|p| *p = (*p).min(pos))
                .or_insert(pos);
        }
    }

    let mut defects = Vec::new();
    let mut summary = DefectSummary::default();

    for (&line, obs) in &opt.lines {
        summary.lines_checked += 1;
        let Some(base_obs) = base.lines.get(&line) else {
            summary.misplaced += 1;
            defects.push(Defect {
                class: DefectClass::MisplacedLine,
                func: obs.func.clone(),
                line,
                var: None,
                observed: None,
                expected: None,
            });
            continue;
        };
        if obs.func != base_obs.func {
            // The line exists in both runs but is attributed to a
            // different function (cross-function code motion); value
            // comparison would be meaningless.
            continue;
        }
        let line_pos = base_pos[&line];
        for (var, &observed) in &obs.values {
            // Trace keys carry an `#k` occurrence suffix for shadowed
            // names; scope queries use the bare source name.
            let bare = var.split('#').next().unwrap_or(var);
            let in_scope = analysis
                .defined_at(&obs.func, line)
                .any(|name| name == bare);
            if !in_scope {
                summary.values_checked += 1;
                let ever_held = held
                    .get(&(obs.func.as_str(), var.as_str()))
                    .is_some_and(|vals| vals.contains(&observed));
                // Reporting a value the variable genuinely held nearby
                // is benign scope widening; a value it never held is a
                // phantom.
                if !ever_held {
                    summary.phantom += 1;
                    defects.push(Defect {
                        class: DefectClass::PhantomVariable,
                        func: obs.func.clone(),
                        line,
                        var: Some(var.clone()),
                        observed: Some(observed),
                        expected: None,
                    });
                }
                continue;
            }
            let Some(&expected) = base_obs.values.get(var) else {
                continue; // no ground truth at this line: cannot judge
            };
            summary.values_checked += 1;
            if observed == expected {
                continue;
            }
            let is_stale = earliest
                .get(&(obs.func.as_str(), var.as_str(), observed))
                .is_some_and(|&p| p < line_pos);
            let class = if is_stale {
                summary.stale += 1;
                DefectClass::StaleValue
            } else {
                summary.wrong += 1;
                DefectClass::WrongValue
            };
            defects.push(Defect {
                class,
                func: obs.func.clone(),
                line,
                var: Some(var.clone()),
                observed: Some(observed),
                expected: Some(expected),
            });
        }
    }

    CheckReport { defects, summary }
}

/// The `O0` ground truth of one source program: the per-line scope
/// analysis, the lowered IR module (which optimized builds compile
/// from), the `O0` object and its breakpoint plan.
///
/// The `O0` pipeline is empty and its backend configuration is the
/// default for both personalities, so one ground truth serves every
/// personality, level, gate and profile of the program.
pub struct GroundTruth {
    pub analysis: SourceAnalysis,
    pub module: dt_ir::Module,
    pub o0: Object,
    /// Precomputed breakpoint plan of the `O0` object: every
    /// ground-truth session takes the fast path.
    pub o0_plan: BreakPlan,
}

impl GroundTruth {
    /// Parses, analyzes and lowers `source` once and builds its `O0`
    /// object.
    pub fn new(source: &str) -> Result<Self, String> {
        let analysis = SourceAnalysis::of(&dt_minic::compile_check(source)?);
        let module = dt_frontend::lower_source(source)?;
        let o0 = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let o0_plan = BreakPlan::new(&o0);
        Ok(GroundTruth {
            analysis,
            module,
            o0,
            o0_plan,
        })
    }

    /// A ground-truth ([`SessionConfig::ground_truth`]) session of the
    /// `O0` object over `inputs`: the baseline [`check`] diffs against.
    pub fn trace(
        &self,
        harness: &str,
        inputs: &[Vec<u8>],
        entry_args: &[i64],
        max_steps_per_input: u64,
    ) -> Result<(DebugTrace, TraceStats), String> {
        let session = SessionConfig {
            max_steps_per_input,
            entry_args: entry_args.to_vec(),
            ground_truth: true,
        };
        dt_debugger::trace_with_plan_stats(&self.o0, harness, inputs, &session, &self.o0_plan)
    }
}

/// A plain (non-ground-truth) fast-path session of an optimized object.
fn trace_optimized(
    obj: &Object,
    plan: &BreakPlan,
    harness: &str,
    inputs: &[Vec<u8>],
    entry_args: &[i64],
    max_steps_per_input: u64,
) -> Result<DebugTrace, String> {
    let session = SessionConfig {
        max_steps_per_input,
        entry_args: entry_args.to_vec(),
        ground_truth: false,
    };
    dt_debugger::trace_with_plan_stats(obj, harness, inputs, &session, plan).map(|(t, _)| t)
}

/// Compiles `source` at O0 (ground-truth session) and with `options`
/// (gate and profile included), traces both over `inputs`, and runs
/// [`check`].
pub fn check_compiled(
    source: &str,
    harness: &str,
    inputs: &[Vec<u8>],
    entry_args: &[i64],
    options: &CompileOptions,
    max_steps_per_input: u64,
) -> Result<CheckReport, String> {
    let gt = GroundTruth::new(source)?;
    let opt_obj = dt_passes::compile(&gt.module, options);
    let (base, _) = gt.trace(harness, inputs, entry_args, max_steps_per_input)?;
    let opt = trace_optimized(
        &opt_obj,
        &BreakPlan::new(&opt_obj),
        harness,
        inputs,
        entry_args,
        max_steps_per_input,
    )?;
    Ok(check(&opt, &base, &gt.analysis))
}

/// A defect-hunting fuzzing campaign (the predecessor paper's workflow
/// against gdb/lldb): coverage-guided fuzzing of the optimized binary
/// with the checker as interestingness oracle.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    pub fuzz: dt_corpus::FuzzConfig,
    /// Step budget for each oracle debug session.
    pub max_steps_per_input: u64,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            fuzz: dt_corpus::FuzzConfig {
                iterations: 300,
                ..Default::default()
            },
            max_steps_per_input: 1_000_000,
        }
    }
}

/// Hunt outcome: the fuzzing report plus, for each flagged input, the
/// checker's summary on that input alone.
#[derive(Debug, Clone)]
pub struct HuntResult {
    pub report: dt_corpus::FuzzReport,
    pub defect_inputs: Vec<(Vec<u8>, DefectSummary)>,
}

/// Fuzzes the optimized build of `source` (gate and profile from
/// `options`), flagging inputs on which the debugger's view of the
/// optimized binary diverges from the O0 ground truth. Deterministic
/// for a fixed [`HuntConfig`].
pub fn hunt(
    source: &str,
    harness: &str,
    options: &CompileOptions,
    seeds: &[Vec<u8>],
    config: &HuntConfig,
) -> Result<HuntResult, String> {
    let gt = GroundTruth::new(source)?;
    let opt_obj = dt_passes::compile(&gt.module, options);
    // One plan for the optimized binary, reused across every fuzzed
    // input (the oracle traces the same object per input — the hot
    // loop of the hunt).
    let opt_plan = BreakPlan::new(&opt_obj);
    let (entry_args, max_steps) = (&config.fuzz.entry_args, config.max_steps_per_input);
    // The fuzzer may ask about the same input more than once: memoize
    // per-input baseline traces (`None` = the O0 run failed).
    let mut base_memo: HashMap<Vec<u8>, Option<DebugTrace>> = HashMap::new();
    let mut defect_inputs: Vec<(Vec<u8>, DefectSummary)> = Vec::new();
    let interesting = |input: &[u8]| -> bool {
        let inputs = [input.to_vec()];
        let base = base_memo.entry(input.to_vec()).or_insert_with(|| {
            gt.trace(harness, &inputs, entry_args, max_steps)
                .ok()
                .map(|(t, _)| t)
        });
        let Some(base) = base else {
            return false;
        };
        let Ok(opt) = trace_optimized(&opt_obj, &opt_plan, harness, &inputs, entry_args, max_steps)
        else {
            return false;
        };
        let summary = check(&opt, base, &gt.analysis).summary;
        if summary.total() > 0 {
            defect_inputs.push((input.to_vec(), summary));
            true
        } else {
            false
        }
    };
    let report = dt_corpus::fuzz_with_oracle(&opt_obj, harness, seeds, &config.fuzz, interesting);
    // The fuzzer deduplicates oracle hits after the oracle returns, so
    // drop the duplicate summaries it never recorded.
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    defect_inputs.retain(|(i, _)| seen.insert(i.clone()));
    Ok(HuntResult {
        report,
        defect_inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_debugger::{DebugTrace, LineObservation};
    use dt_passes::{OptLevel, PassGate, Personality};
    use std::collections::{BTreeMap, BTreeSet};

    fn obs(func: &str, values: &[(&str, i64)]) -> LineObservation {
        LineObservation {
            func: func.into(),
            vars: values
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<BTreeSet<_>>(),
            values: values
                .iter()
                .map(|(n, v)| (n.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    fn trace_of(lines: Vec<(u32, LineObservation)>) -> DebugTrace {
        let hit_order: Vec<u32> = lines.iter().map(|(l, _)| *l).collect();
        DebugTrace {
            lines: lines.into_iter().collect(),
            hits: hit_order.len() as u64,
            inputs_run: 1,
            hit_order,
        }
    }

    fn analysis_of(src: &str) -> SourceAnalysis {
        SourceAnalysis::of(&dt_minic::compile_check(src).unwrap())
    }

    const SRC: &str = "\
int f() {
    int x = 1;
    int y = 2;
    x = 3;
    out(x + y);
    return x;
}";

    #[test]
    fn identical_traces_have_no_defects() {
        let base = trace_of(vec![
            (2, obs("f", &[])),
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 3), ("y", 2)])),
        ]);
        let r = check(&base.clone(), &base, &analysis_of(SRC));
        assert!(r.defects.is_empty());
        assert_eq!(r.summary.total(), 0);
        assert!(r.summary.values_checked > 0);
    }

    #[test]
    fn stale_values_are_distinguished_from_wrong() {
        let base = trace_of(vec![
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 3), ("y", 2)])),
        ]);
        // At line 5 the debugger shows x's *old* value 1 (stale) and a
        // fabricated y = 99 (wrong).
        let opt = trace_of(vec![
            (3, obs("f", &[("x", 1)])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
            (5, obs("f", &[("x", 1), ("y", 99)])),
        ]);
        let r = check(&opt, &base, &analysis_of(SRC));
        assert_eq!(r.summary.stale, 1);
        assert_eq!(r.summary.wrong, 1);
        let stale = r
            .defects
            .iter()
            .find(|d| d.class == DefectClass::StaleValue)
            .unwrap();
        assert_eq!(stale.var.as_deref(), Some("x"));
        assert_eq!(stale.observed, Some(1));
        assert_eq!(stale.expected, Some(3));
    }

    #[test]
    fn misplaced_lines_are_flagged() {
        let base = trace_of(vec![(3, obs("f", &[("x", 1)]))]);
        let opt = trace_of(vec![(3, obs("f", &[("x", 1)])), (42, obs("f", &[]))]);
        let r = check(&opt, &base, &analysis_of(SRC));
        assert_eq!(r.summary.misplaced, 1);
        assert_eq!(r.defects.len(), 1);
        assert_eq!(r.defects[0].class, DefectClass::MisplacedLine);
        assert_eq!(r.defects[0].line, 42);
    }

    #[test]
    fn phantoms_require_a_never_held_value() {
        // `y` is declared on line 3, so it is out of scope on line 2.
        let base = trace_of(vec![
            (2, obs("f", &[])),
            (4, obs("f", &[("x", 1), ("y", 2)])),
        ]);
        // Reporting y = 2 on line 2 is benign (it held 2 later in the
        // same frame); y = 77 is a phantom.
        let benign = trace_of(vec![(2, obs("f", &[("y", 2)]))]);
        let r = check(&benign, &base, &analysis_of(SRC));
        assert_eq!(r.summary.phantom, 0, "{:?}", r.defects);

        let phantom = trace_of(vec![(2, obs("f", &[("y", 77)]))]);
        let r = check(&phantom, &base, &analysis_of(SRC));
        assert_eq!(r.summary.phantom, 1);
        assert_eq!(r.defects[0].class, DefectClass::PhantomVariable);
    }

    #[test]
    fn check_compiled_is_clean_at_o0() {
        let r = check_compiled(
            SRC,
            "f",
            &[vec![]],
            &[],
            &CompileOptions::new(Personality::Gcc, OptLevel::O0),
            1_000_000,
        )
        .unwrap();
        assert_eq!(r.summary.total(), 0, "O0 vs O0 must be clean: {r:?}");
        assert!(r.summary.lines_checked > 0);
    }

    #[test]
    fn check_compiled_is_deterministic() {
        let opts = CompileOptions {
            gate: PassGate::default(),
            ..CompileOptions::new(Personality::Gcc, OptLevel::O2)
        };
        let a = check_compiled(SRC, "f", &[vec![]], &[], &opts, 1_000_000).unwrap();
        let b = check_compiled(SRC, "f", &[vec![]], &[], &opts, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
