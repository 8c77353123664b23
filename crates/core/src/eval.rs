//! The debug-information evaluation component (Section III-A).
//!
//! [`DebugTuner`] is the only evaluation engine. The workflow has four
//! stages: (1) the program's shared artifacts (parsed analysis, the
//! `O0` object, the single ground-truth baseline trace) from the
//! tuner's [`crate::ArtifactStore`]; (2) the level's reference build
//! and its debug trace; (3) the reference metrics and correctness
//! summary; (4) one variant per gateable pass with that pass disabled.
//! [`DebugTuner::evaluate_reference`] runs stages 1–3 only, and
//! [`DebugTuner::evaluate`] all four.
//!
//! The fourth stage is embarrassingly parallel: each variant's build +
//! debug-trace session is independent, so it fans out across worker
//! threads. Workers write results into per-pass slots, so ordering and
//! values never depend on scheduling and every thread count produces
//! a bit-identical `ProgramEvaluation`.
//!
//! Variant builds of one program/personality/level go through a single
//! checkpointed [`dt_passes::CompileSession`], so a variant disabling
//! pass *p* resumes from the snapshot before *p*'s first occurrence
//! instead of recompiling from source (bit-identical by construction —
//! see `dt_passes::session`).

use crate::artifacts::ProgramArtifacts;
use crate::{DebugTuner, TunerConfig};
use dt_checker::DefectSummary;
use dt_debugger::{BreakPlan, DebugTrace, SessionConfig};
use dt_machine::Object;
use dt_metrics::Metrics;
use dt_passes::{
    pipeline_pass_names, CompileOptions, CompileSession, OptLevel, PassGate, Personality,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A program plus the inputs driving its debug sessions.
#[derive(Debug, Clone)]
pub struct ProgramInput {
    pub name: String,
    pub source: String,
    /// Harness entry point.
    pub harness: String,
    pub inputs: Vec<Vec<u8>>,
    pub entry_args: Vec<i64>,
}

impl ProgramInput {
    /// Builds tuner input from a suite program by running the paper's
    /// input pipeline: fuzz → cmin → trace-min over the O0 binary.
    pub fn from_suite(p: &dt_testsuite::TestProgram, fuzz_iterations: u32) -> Self {
        let harness = p.harnesses[0].to_string();
        let module = dt_frontend::lower_source(p.source).expect("suite program lowers");
        let obj = dt_machine::run_backend(&module, &dt_machine::BackendConfig::default());
        let seeds: Vec<Vec<u8>> = p.seeds.iter().map(|s| s.to_vec()).collect();
        let fuzz_cfg = dt_corpus::FuzzConfig {
            iterations: fuzz_iterations,
            max_len: 48,
            seed: 0xD7 ^ p.name.len() as u64,
            max_steps: 300_000,
            entry_args: Vec::new(),
        };
        let report = dt_corpus::fuzz(&obj, &harness, &seeds, &fuzz_cfg);
        let cmin = dt_corpus::cmin(&obj, &harness, &[], &report.queue, 300_000);
        let inputs = dt_corpus::trace_min(&obj, &harness, &[], &cmin, 2_000_000);
        ProgramInput {
            name: p.name.to_string(),
            source: p.source.to_string(),
            harness,
            inputs,
            entry_args: Vec::new(),
        }
    }
}

/// Effect of disabling one pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassEffect {
    pub pass: String,
    /// Hybrid metrics with the pass disabled; `None` when the `.text`
    /// was identical to the reference (variant discarded, Section
    /// III-A's pruning) — the metric then equals the reference's.
    pub metrics: Option<Metrics>,
    /// `(M_{o,t} - M_o) / M_o` on the product metric.
    pub relative_increment: f64,
    /// Correctness-oracle summary of the variant's trace against the
    /// O0 ground truth; `None` when the variant was pruned (the
    /// summary then equals the reference's).
    #[serde(default)]
    pub defects: Option<DefectSummary>,
    /// Variant defect rate minus reference defect rate: negative means
    /// disabling the pass makes the surviving debug info more truthful.
    #[serde(default)]
    pub defect_delta: f64,
}

impl PassEffect {
    /// The product metric of the variant (reference's when pruned).
    pub fn product(&self, reference: &Metrics) -> f64 {
        self.metrics.map_or(reference.product, |m| m.product)
    }
}

/// Full evaluation of one program at one personality/level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramEvaluation {
    pub program: String,
    /// Hybrid metrics of the unmodified level (the `M_o` baseline).
    pub reference: Metrics,
    /// All four methods on the unmodified level (feeds Table I-style
    /// comparisons).
    pub methods: dt_metrics::MethodComparison,
    /// One entry per gateable pass.
    pub effects: Vec<PassEffect>,
    /// Steppable lines in the O0 binary / stepped by the input set.
    pub steppable_lines_o0: usize,
    pub stepped_lines_o0: usize,
    /// Correctness-oracle summary of the unmodified level against the
    /// O0 ground truth (the `M_o` baseline's truthfulness).
    #[serde(default)]
    pub reference_defects: DefectSummary,
}

/// Runs the four-stage evaluation workflow for one program, serially,
/// on a fresh [`DebugTuner`].
pub fn evaluate_program(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
) -> ProgramEvaluation {
    evaluate_program_parallel(program, personality, level, max_steps, 1)
}

/// Runs the four-stage evaluation workflow on a fresh [`DebugTuner`]
/// with the per-pass variant stage fanned out across `threads`
/// workers. Bit-identical to [`evaluate_program`] for any thread count.
pub fn evaluate_program_parallel(
    program: &ProgramInput,
    personality: Personality,
    level: OptLevel,
    max_steps: u64,
    threads: usize,
) -> ProgramEvaluation {
    DebugTuner::new(TunerConfig {
        max_steps_per_input: max_steps,
        threads,
    })
    .evaluate(program, personality, level)
}

fn eval_key(program: &ProgramInput, personality: Personality, level: OptLevel) -> String {
    format!("{}|{personality}|{level}", program.name)
}

impl DebugTuner {
    /// Evaluates one program at one personality/level (cached), fanning
    /// the per-pass variant builds and trace sessions out across
    /// `config.threads` workers.
    pub fn evaluate(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> ProgramEvaluation {
        self.evaluate_with_threads(program, personality, level, self.config.threads)
    }

    /// Stages 1–3 only: the reference build of one program at one
    /// personality/level, its metrics, method comparison and
    /// correctness summary. `effects` is always empty.
    ///
    /// Served from the evaluation cache when [`DebugTuner::evaluate`]
    /// already ran for the key. Otherwise the reference is a plain
    /// compile of the shared lowered module: no checkpointed session
    /// is built or retained, since no variant will resume from it.
    pub fn evaluate_reference(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
    ) -> ProgramEvaluation {
        if let Some(hit) = self
            .cache
            .lock()
            .get(&eval_key(program, personality, level))
        {
            self.telemetry.record_eval_cache_hit();
            return ProgramEvaluation {
                effects: Vec::new(),
                ..hit.clone()
            };
        }
        let wall_start = Instant::now();
        let (_, _, eval) = self.reference_stage(program, |art| {
            self.timed_build(|| {
                dt_passes::compile(&art.module, &CompileOptions::new(personality, level))
            })
        });
        self.telemetry.record_wall(wall_start.elapsed());
        eval
    }

    /// [`DebugTuner::evaluate`] with an explicit variant fan-out width.
    pub(crate) fn evaluate_with_threads(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        threads: usize,
    ) -> ProgramEvaluation {
        let key = eval_key(program, personality, level);
        if let Some(hit) = self.cache.lock().get(&key) {
            self.telemetry.record_eval_cache_hit();
            return hit.clone();
        }
        let wall_start = Instant::now();
        // The reference comes from the level's checkpointed session,
        // which the variant stage then resumes from.
        let mut session = None;
        let (art, reference_obj, mut eval) = self.reference_stage(program, |art| {
            let s = self.artifacts.session_for(
                &program.name,
                art,
                personality,
                level,
                Some(&self.telemetry),
            );
            let obj = self.timed_build(|| s.reference_object());
            session = Some(s);
            obj
        });
        let session = session.expect("reference stage opened the session");
        eval.effects =
            self.variant_effects(program, &art, &session, &reference_obj, &eval, threads);
        self.telemetry.record_wall(wall_start.elapsed());
        self.cache.lock().insert(key, eval.clone());
        eval
    }

    /// Stages 1–3, shared by [`DebugTuner::evaluate`] and
    /// [`DebugTuner::evaluate_reference`]: the program's shared
    /// artifacts, the reference object from `build_reference`, its
    /// trace, metrics and correctness summary. Returns the evaluation
    /// with empty `effects`.
    fn reference_stage(
        &self,
        program: &ProgramInput,
        build_reference: impl FnOnce(&ProgramArtifacts) -> Object,
    ) -> (Arc<ProgramArtifacts>, Object, ProgramEvaluation) {
        self.telemetry.record_program();
        let art = self.artifacts.program_artifacts(
            program,
            self.config.max_steps_per_input,
            Some(&self.telemetry),
        );
        let reference_obj = build_reference(&art);
        let (reference, ref_trace) = self.score(program, &art, &reference_obj);
        let methods = dt_metrics::all_methods(
            &reference_obj.debug,
            &ref_trace,
            &art.base_trace,
            &art.analysis,
        );
        let reference_defects =
            dt_checker::check(&ref_trace, &art.base_trace, &art.analysis).summary;
        let eval = ProgramEvaluation {
            program: program.name.clone(),
            reference,
            methods,
            effects: Vec::new(),
            steppable_lines_o0: art.o0.debug.steppable_lines().len(),
            stepped_lines_o0: art.base_trace.stepped_lines().len(),
            reference_defects,
        };
        (art, reference_obj, eval)
    }

    /// Stage 4: one variant per gateable pass, with `.text` pruning.
    /// Each pass gets a dedicated result slot, so the output order (and
    /// every value in it) is independent of worker scheduling.
    fn variant_effects(
        &self,
        program: &ProgramInput,
        art: &ProgramArtifacts,
        session: &CompileSession,
        reference_obj: &Object,
        reference_eval: &ProgramEvaluation,
        threads: usize,
    ) -> Vec<PassEffect> {
        let reference = &reference_eval.reference;
        let reference_defects = reference_eval.reference_defects;
        let passes = pipeline_pass_names(session.personality(), session.level());
        let variant_effect = |pass: &str| -> PassEffect {
            let variant = self.build_variant(session, &PassGate::disabling([pass]));
            if variant.text_eq(reference_obj) {
                self.telemetry.record_pruned_variant();
                return PassEffect {
                    pass: pass.to_string(),
                    metrics: None,
                    relative_increment: 0.0,
                    defects: None,
                    defect_delta: 0.0,
                };
            }
            let (m, variant_trace) = self.score(program, art, &variant);
            let defects = dt_checker::check(&variant_trace, &art.base_trace, &art.analysis).summary;
            let rel = if reference.product > 0.0 {
                (m.product - reference.product) / reference.product
            } else if m.product > 0.0 {
                1.0
            } else {
                0.0
            };
            PassEffect {
                pass: pass.to_string(),
                metrics: Some(m),
                relative_increment: rel,
                defects: Some(defects),
                defect_delta: defects.rate() - reference_defects.rate(),
            }
        };

        let workers = threads.max(1).min(passes.len().max(1));
        if workers <= 1 {
            return passes.iter().map(|pass| variant_effect(pass)).collect();
        }
        let slots: Vec<Mutex<Option<PassEffect>>> =
            passes.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= passes.len() {
                        break;
                    }
                    let effect = variant_effect(passes[i]);
                    *slots[i].lock() = Some(effect);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("all variants evaluated"))
            .collect()
    }

    /// Evaluates one explicit configuration (level + gate) of a program
    /// through the tuner's shared artifact store, returning the hybrid
    /// metrics (used for `Ox-dy` measurements): the baseline trace,
    /// `O0` object, and checkpointed compile session are reused across
    /// calls (and with [`DebugTuner::evaluate`] runs of the same
    /// program), and the gated build resumes from a mid-pipeline
    /// snapshot instead of recompiling from source.
    pub fn evaluate_config(
        &self,
        program: &ProgramInput,
        personality: Personality,
        level: OptLevel,
        gate: &PassGate,
    ) -> Metrics {
        let t = Some(&self.telemetry);
        let art = self
            .artifacts
            .program_artifacts(program, self.config.max_steps_per_input, t);
        let session = self
            .artifacts
            .session_for(&program.name, &art, personality, level, t);
        let obj = self.build_variant(&session, gate);
        self.score(program, &art, &obj).0
    }

    fn timed_build(&self, build: impl FnOnce() -> Object) -> Object {
        let start = Instant::now();
        let obj = build();
        self.telemetry.record_build(start.elapsed());
        obj
    }

    /// One gated build through `session`, resuming from a checkpoint.
    fn build_variant(&self, session: &CompileSession, gate: &PassGate) -> Object {
        let start = Instant::now();
        let built = session.build_variant(gate);
        self.telemetry.record_build(start.elapsed());
        self.telemetry
            .record_variant_resume(built.prefix_skipped as u64);
        built.object
    }

    /// Traces `obj` over the program's inputs and computes its hybrid
    /// metrics against the ground-truth baseline. Sessions take the
    /// fast path (in-VM breakpoint bitmap on a per-object
    /// [`BreakPlan`], early-exit inputs) — bit-identical to the
    /// slow-step reference engine by construction.
    fn score(
        &self,
        program: &ProgramInput,
        art: &ProgramArtifacts,
        obj: &Object,
    ) -> (Metrics, DebugTrace) {
        let start = Instant::now();
        let session = SessionConfig {
            max_steps_per_input: self.config.max_steps_per_input,
            entry_args: program.entry_args.clone(),
            ground_truth: false,
        };
        let (trace, stats) = dt_debugger::trace_with_plan_stats(
            obj,
            &program.harness,
            &program.inputs,
            &session,
            &BreakPlan::new(obj),
        )
        .expect("debug session runs");
        let m = dt_metrics::hybrid(&trace, &art.base_trace, &art.analysis);
        self.telemetry.record_trace(start.elapsed());
        self.telemetry.record_fast_trace(&stats);
        (m, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> ProgramInput {
        ProgramInput {
            name: "eval-test".into(),
            source: "\
int scale(int v, int k) {
    int r = v * k;
    return r + 1;
}
int fuzz_main() {
    int a = in(0);
    int total = 0;
    for (int i = 0; i < 5; i++) {
        total += scale(a, i);
    }
    if (total > 100) {
        total = 100;
    }
    out(total);
    return total;
}"
            .into(),
            harness: "fuzz_main".into(),
            inputs: vec![vec![9], vec![60]],
            entry_args: vec![],
        }
    }

    #[test]
    fn o1_loses_debug_info_vs_o0() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O1, 1_000_000);
        assert!(eval.reference.product < 1.0, "O1 must lose something");
        assert!(eval.reference.product > 0.1, "but not everything");
        assert!(!eval.effects.is_empty());
    }

    #[test]
    fn text_pruning_marks_noop_passes() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O1, 1_000_000);
        let pruned = eval.effects.iter().filter(|e| e.metrics.is_none()).count();
        assert!(pruned > 0, "some passes must not affect this tiny program");
    }

    #[test]
    fn some_pass_recovers_debug_info_at_o2() {
        let eval = evaluate_program(&program(), Personality::Gcc, OptLevel::O2, 1_000_000);
        let best = eval
            .effects
            .iter()
            .map(|e| e.relative_increment)
            .fold(f64::MIN, f64::max);
        assert!(
            best > 0.0,
            "disabling some pass must improve the product metric (best {best})"
        );
    }

    #[test]
    fn higher_levels_score_lower() {
        let p = program();
        let e1 = evaluate_program(&p, Personality::Gcc, OptLevel::O1, 1_000_000);
        let e3 = evaluate_program(&p, Personality::Gcc, OptLevel::O3, 1_000_000);
        assert!(
            e3.reference.product <= e1.reference.product + 1e-9,
            "O3 ({}) must not beat O1 ({})",
            e3.reference.product,
            e1.reference.product
        );
    }

    /// The reference-only path (a plain compile on a fresh tuner)
    /// agrees field for field with the full evaluation, except for the
    /// variant effects it never computes.
    #[test]
    fn evaluate_reference_matches_evaluate_without_effects() {
        let p = program();
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let reference = DebugTuner::default().evaluate_reference(&p, personality, level);
                assert!(reference.effects.is_empty());
                let full = DebugTuner::default().evaluate(&p, personality, level);
                let full = ProgramEvaluation {
                    effects: Vec::new(),
                    ..full
                };
                assert_eq!(
                    serde_json::to_value(&reference).unwrap(),
                    serde_json::to_value(&full).unwrap(),
                    "{personality} {level}"
                );
            }
        }
    }
}
