//! DEBUGTUNER: systematic analysis of the impact of individual
//! compiler optimization passes on debug-information quality, and
//! construction of debug-friendly optimization levels (the paper's
//! primary contribution, Section III).
//!
//! The framework has the paper's two components:
//!
//! * **Debug-information evaluation** ([`eval`]): for a program and an
//!   optimization level, build the `O0` baseline and the level's
//!   reference binary plus one variant per gateable pass with that
//!   pass disabled; discard variants whose `.text` equals the
//!   reference (the pass changed nothing); extract temp-breakpoint
//!   debug traces for the rest; compute the hybrid product metric for
//!   each.
//! * **Compiler-configuration tuning** ([`rank`], [`config`]):
//!   aggregate the per-pass relative metric increments across the test
//!   suite by average rank, and derive `Ox-dy` configurations that
//!   disable the top *y* passes (with the paper's special treatment of
//!   the top-level inliner switches). [`pareto`] computes the
//!   debuggability/performance front of Figure 2.
//!
//! ```no_run
//! use debugtuner::{DebugTuner, TunerConfig};
//! use dt_passes::{OptLevel, Personality};
//!
//! let tuner = DebugTuner::new(TunerConfig::default());
//! let programs = debugtuner::suite_programs(400);
//! let ranking = tuner.rank_passes(&programs, Personality::Gcc, OptLevel::O2);
//! for entry in ranking.entries.iter().take(10) {
//!     println!("{}  {:+.2}%", entry.pass, entry.geomean_increment * 100.0);
//! }
//! ```

pub mod artifacts;
pub mod config;
pub mod eval;
pub mod pareto;
pub mod perf;
pub mod rank;
pub mod telemetry;

pub use artifacts::ArtifactStore;
pub use config::{dy_config, dy_family, DyConfig};
pub use eval::{
    evaluate_program, evaluate_program_parallel, PassEffect, ProgramEvaluation, ProgramInput,
};
pub use pareto::{pareto_front, TradeoffPoint};
pub use perf::{PerfReport, SpecBaseline};
pub use rank::{rank_passes_across, PassRanking, RankEntry};
pub use telemetry::{EvalStats, Telemetry};

use dt_passes::{OptLevel, Personality};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Global tuner settings.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Instruction budget per debugger input.
    pub max_steps_per_input: u64,
    /// Worker threads for the build/trace matrix.
    pub threads: usize,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            max_steps_per_input: 3_000_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// The DebugTuner framework instance and the only evaluation engine
/// (see [`eval`]): caches whole evaluations so that the experiment
/// binaries can share work across tables, keeps one
/// [`ArtifactStore`] as the memo layer below every evaluation, and
/// keeps live telemetry of the work performed vs avoided.
pub struct DebugTuner {
    pub config: TunerConfig,
    cache: Mutex<HashMap<String, ProgramEvaluation>>,
    /// Shared per-program artifacts (analysis, `O0`, the ground-truth
    /// baseline trace) and checkpointed compile sessions, reused across
    /// every evaluation and configuration measurement of this tuner.
    artifacts: ArtifactStore,
    telemetry: Telemetry,
}

impl DebugTuner {
    /// A tuner with the given settings.
    pub fn new(config: TunerConfig) -> Self {
        DebugTuner {
            config,
            cache: Mutex::new(HashMap::new()),
            artifacts: ArtifactStore::new(),
            telemetry: Telemetry::default(),
        }
    }

    /// A serializable snapshot of the work performed so far (builds,
    /// traces, cache hits, per-stage wall-clock).
    pub fn stats(&self) -> EvalStats {
        self.telemetry.snapshot(self.config.threads)
    }

    /// Evaluates the whole suite in parallel and aggregates the pass
    /// ranking (Section III-B).
    pub fn rank_passes(
        &self,
        programs: &[ProgramInput],
        personality: Personality,
        level: OptLevel,
    ) -> PassRanking {
        let evals = self.evaluate_all(programs, personality, level);
        let rank_start = std::time::Instant::now();
        let ranking = rank_passes_across(&evals);
        self.telemetry.record_rank(rank_start.elapsed());
        ranking
    }

    /// Parallel evaluation of many programs. Parallelism is applied
    /// across programs here; each program's own variant fan-out runs
    /// serially inside its worker so the machine is not oversubscribed
    /// with `threads * threads` sessions.
    pub fn evaluate_all(
        &self,
        programs: &[ProgramInput],
        personality: Personality,
        level: OptLevel,
    ) -> Vec<ProgramEvaluation> {
        let threads = self.config.threads.max(1);
        let results: Mutex<Vec<Option<ProgramEvaluation>>> = Mutex::new(vec![None; programs.len()]);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(programs.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= programs.len() {
                        break;
                    }
                    let eval = self.evaluate_with_threads(&programs[i], personality, level, 1);
                    results.lock()[i] = Some(eval);
                });
            }
        });
        results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("all evaluated"))
            .collect()
    }
}

impl Default for DebugTuner {
    fn default() -> Self {
        Self::new(TunerConfig::default())
    }
}

/// The 13-program suite as tuner inputs, with fuzzing-derived,
/// minimized input sets (Section IV's pipeline). `fuzz_iterations`
/// bounds the campaign per harness.
pub fn suite_programs(fuzz_iterations: u32) -> Vec<ProgramInput> {
    dt_testsuite::real_world_suite()
        .into_iter()
        .map(|p| ProgramInput::from_suite(&p, fuzz_iterations))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> ProgramInput {
        ProgramInput {
            name: "tiny".into(),
            source: "\
int helper(int v) {
    int w = v * 3;
    return w + 1;
}
int fuzz_main() {
    int a = in(0);
    int b = 0;
    if (a > 10) {
        b = helper(a);
    } else {
        b = a - 1;
    }
    out(b);
    return b;
}"
            .into(),
            harness: "fuzz_main".into(),
            inputs: vec![vec![50], vec![1]],
            entry_args: vec![],
        }
    }

    #[test]
    fn evaluation_is_cached() {
        let tuner = DebugTuner::default();
        let p = tiny_program();
        let a = tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        let b = tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        assert_eq!(a.reference.product, b.reference.product);
        // The reference-only path is served from the same cache.
        let r = tuner.evaluate_reference(&p, Personality::Gcc, OptLevel::O1);
        assert_eq!(r.reference.product, a.reference.product);
        assert!(r.effects.is_empty());
        let stats = tuner.stats();
        assert_eq!(stats.eval_cache_hits, 2);
        assert_eq!(stats.programs, 1);
    }

    /// The staged-session acceptance criteria: evaluation resumes
    /// variant builds from checkpoints (prefix passes skipped > 0),
    /// shares program artifacts across levels, and the tuner's
    /// `evaluate_config` agrees exactly with the fan-out's reference.
    #[test]
    fn evaluation_resumes_variants_and_shares_artifacts() {
        let tuner = DebugTuner::default();
        let p = tiny_program();
        let eval = tuner.evaluate(&p, Personality::Gcc, OptLevel::O2);
        let stats = tuner.stats();
        assert!(stats.sessions >= 1, "no session built: {stats:?}");
        assert!(stats.snapshots > 0);
        assert!(stats.resumed_variants > 0);
        assert!(
            stats.prefix_passes_skipped > 0,
            "checkpoint resume never skipped work: {stats:?}"
        );
        // A second level of the same program hits the artifact store
        // (one O0 build + one ground-truth baseline per program).
        tuner.evaluate(&p, Personality::Gcc, OptLevel::O1);
        assert!(tuner.stats().artifact_hits >= 1);
        // The explicit-config path shares the same session + baseline,
        // so an empty gate reproduces the reference metrics exactly.
        let m = tuner.evaluate_config(
            &p,
            Personality::Gcc,
            OptLevel::O2,
            &dt_passes::PassGate::allow_all(),
        );
        assert_eq!(m.product, eval.reference.product);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let tuner = DebugTuner::new(TunerConfig {
            threads: 4,
            ..Default::default()
        });
        let programs = vec![tiny_program(), {
            let mut p = tiny_program();
            p.name = "tiny2".into();
            p
        }];
        let evals = tuner.evaluate_all(&programs, Personality::Clang, OptLevel::O2);
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0].reference.product, evals[1].reference.product);
    }
}
