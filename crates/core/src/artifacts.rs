//! The shared per-program artifact store and compile-session registry.
//!
//! Section III-A's workflow re-derives the same intermediate products
//! over and over: every variant evaluation re-parses the program,
//! rebuilds the `O0` baseline, re-traces the ground-truth session, and
//! re-runs the whole optimization pipeline from source. The
//! [`ArtifactStore`] keeps exactly one of each per program:
//!
//! * **program artifacts** ([`ProgramArtifacts`]) — the checker's
//!   [`GroundTruth`] (parsed [`SourceAnalysis`], lowered IR module,
//!   `O0` object and its breakpoint plan) plus the ground-truth
//!   baseline [`DebugTrace`] over the program's input set, shared
//!   across personalities, levels, and `Ox-dy` configs;
//! * **compile sessions** ([`CompileSession`]) — one checkpointed
//!   pipeline per program/personality/level, shared by the per-pass
//!   variant fan-out and every gated configuration built afterwards.
//!
//! Each [`crate::DebugTuner`] owns one store, the only memo layer
//! below its evaluations. Entries are keyed by program name: like the
//! tuner's evaluation cache, the store assumes one [`ProgramInput`]
//! (source + inputs) per name and one step budget per store. Both
//! lookups are safe under concurrent use; a lost race costs a redundant
//! computation of a bit-identical value, never divergent results.

use crate::eval::ProgramInput;
use crate::telemetry::Telemetry;
use dt_checker::GroundTruth;
use dt_debugger::{BreakPlan, DebugTrace};
use dt_machine::Object;
use dt_minic::analysis::SourceAnalysis;
use dt_passes::{CompileSession, OptLevel, Personality};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything derivable from one program independent of the
/// optimization level under study.
pub struct ProgramArtifacts {
    pub analysis: SourceAnalysis,
    /// The lowered IR module (seeds compile sessions without
    /// re-lexing/re-parsing/re-lowering).
    pub module: dt_ir::Module,
    /// The `O0` object. Personality-independent (see [`GroundTruth`];
    /// pinned by a unit test below).
    pub o0: Object,
    /// Precomputed breakpoint plan of the `O0` object, shared by every
    /// session that re-traces the baseline binary (ground-truth
    /// sessions take the same fast path as plain ones).
    pub o0_plan: BreakPlan,
    /// Ground-truth (`SessionConfig::ground_truth`) baseline trace of
    /// the `O0` object over the program's input set — the single
    /// baseline every evaluation path diffs against.
    pub base_trace: DebugTrace,
}

/// Shared store of program artifacts and checkpointed compile
/// sessions, owned by [`crate::DebugTuner`].
#[derive(Default)]
pub struct ArtifactStore {
    programs: Mutex<HashMap<String, Arc<ProgramArtifacts>>>,
    sessions: Mutex<HashMap<(String, Personality, OptLevel), Arc<CompileSession>>>,
}

impl ArtifactStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// The program's shared artifacts (parsed analysis, `O0` object,
    /// its breakpoint plan, and the ground-truth baseline trace),
    /// building them on first use. Public so external drivers — the
    /// differential-equivalence check, benches — can trace against the
    /// same cached `O0` plan the evaluation paths use.
    pub fn program_artifacts(
        &self,
        program: &ProgramInput,
        max_steps: u64,
        telemetry: Option<&Telemetry>,
    ) -> Arc<ProgramArtifacts> {
        if let Some(hit) = self.programs.lock().get(&program.name) {
            if let Some(t) = telemetry {
                t.record_artifact_hit();
            }
            return hit.clone();
        }
        let build_start = Instant::now();
        let gt = GroundTruth::new(&program.source).expect("program is valid");
        if let Some(t) = telemetry {
            t.record_build(build_start.elapsed());
        }

        let trace_start = Instant::now();
        let (base_trace, trace_stats) = gt
            .trace(
                &program.harness,
                &program.inputs,
                &program.entry_args,
                max_steps,
            )
            .expect("baseline session");
        if let Some(t) = telemetry {
            t.record_trace(trace_start.elapsed());
            t.record_fast_trace(&trace_stats);
        }

        let GroundTruth {
            analysis,
            module,
            o0,
            o0_plan,
        } = gt;
        let art = Arc::new(ProgramArtifacts {
            analysis,
            module,
            o0,
            o0_plan,
            base_trace,
        });
        self.programs
            .lock()
            .entry(program.name.clone())
            .or_insert(art)
            .clone()
    }

    /// The checkpointed compile session for one
    /// program/personality/level, constructing (and recording) it on
    /// first use. Construction runs the full ungated pipeline once.
    pub(crate) fn session_for(
        &self,
        program_name: &str,
        artifacts: &ProgramArtifacts,
        personality: Personality,
        level: OptLevel,
        telemetry: Option<&Telemetry>,
    ) -> Arc<CompileSession> {
        let key = (program_name.to_string(), personality, level);
        if let Some(hit) = self.sessions.lock().get(&key) {
            return hit.clone();
        }
        let build_start = Instant::now();
        let session = Arc::new(CompileSession::new(
            artifacts.module.clone(),
            personality,
            level,
            None,
        ));
        if let Some(t) = telemetry {
            t.record_build(build_start.elapsed());
            t.record_session(session.stats().snapshots);
        }
        self.sessions.lock().entry(key).or_insert(session).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_passes::{compile_source, CompileOptions};

    fn program() -> ProgramInput {
        ProgramInput {
            name: "artifacts-test".into(),
            source: "\
int fuzz_main() {
    int a = in(0);
    int b = a * 2 + 1;
    out(b);
    return b;
}"
            .into(),
            harness: "fuzz_main".into(),
            inputs: vec![vec![7]],
            entry_args: vec![],
        }
    }

    /// The store's single `O0` object must be bit-identical to what
    /// either personality's `compile_source` produces at `O0` — the
    /// invariant behind sharing one baseline per program.
    #[test]
    fn o0_is_personality_independent() {
        let p = program();
        let store = ArtifactStore::new();
        let art = store.program_artifacts(&p, 1_000_000, None);
        for personality in [Personality::Gcc, Personality::Clang] {
            let scratch =
                compile_source(&p.source, &CompileOptions::new(personality, OptLevel::O0)).unwrap();
            assert_eq!(
                art.o0.content_hash(),
                scratch.content_hash(),
                "{personality} O0 differs from the shared artifact"
            );
        }
    }

    #[test]
    fn artifacts_and_sessions_are_cached() {
        let p = program();
        let store = ArtifactStore::new();
        let t = Telemetry::default();
        let a = store.program_artifacts(&p, 1_000_000, Some(&t));
        let b = store.program_artifacts(&p, 1_000_000, Some(&t));
        assert!(Arc::ptr_eq(&a, &b));
        let s1 = store.session_for(&p.name, &a, Personality::Gcc, OptLevel::O2, Some(&t));
        let s2 = store.session_for(&p.name, &a, Personality::Gcc, OptLevel::O2, Some(&t));
        assert!(Arc::ptr_eq(&s1, &s2));
        let snap = t.snapshot(1);
        assert_eq!(snap.artifact_hits, 1);
        assert_eq!(snap.sessions, 1);
        assert!(snap.snapshots > 0);
    }
}
