//! Staged, checkpointed compilation sessions.
//!
//! The paper's Section III-A workflow builds one binary per gateable
//! pass per program per personality/level — by far the dominant cost
//! of the reproduction. But a variant disabling pass *p* is
//! bit-identical to the reference build up to *p*'s first occurrence
//! in the pipeline: every instance before that point runs with the
//! same module, the same [`PassConfig`], and the same (deterministic)
//! pass implementations. A [`CompileSession`] exploits this by running
//! the ungated pipeline exactly once as an explicit sequence of
//! stages, keeping one module snapshot before each *distinct
//! first-gated position* (the first instance some gateable name
//! disables), and then building each variant by *resuming* from the
//! snapshot immediately before the gate's first disabled instance.
//! Gates that only touch the backend (or nothing at all) reuse the
//! fully optimized module outright and pay only for code generation.
//! After construction a session is immutable: variant builds take
//! `&self` and share it across threads.
//!
//! The snapshot set serves every gate: a gate's first disabled
//! instance is disabled through one of its names, and that name's
//! first-gated position can be neither earlier (the instance there
//! would be disabled too) nor later (this instance carries the name).
//!
//! Correctness invariant (enforced by `tests/proptest_pipeline.rs` and
//! `examples/session_check.rs`): for every gate,
//! `session.build_variant(&gate).object` is bit-identical
//! ([`Object::content_hash`]) to [`crate::compile_source`] from
//! scratch with the same options. This holds because
//!
//! 1. passes are deterministic functions of `(module, PassConfig)`,
//! 2. the gate only decides *whether* an instance runs, never *how*,
//!    and
//! 3. the resume point is the first instance the gate disables, so the
//!    skipped prefix is exactly the prefix the from-scratch build
//!    would have executed identically.

use crate::manager::{run_stage, PassConfig, PassGate};
use crate::pipeline::{self, Pipeline};
use crate::{OptLevel, Personality};
use dt_ir::{Module, Profile};
use dt_machine::Object;
use std::collections::HashSet;

/// The module *before* mid instance `index` runs.
struct Snapshot {
    index: usize,
    module: Module,
}

/// The size of a session's snapshot store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Module snapshots retained by the session.
    pub snapshots: u64,
}

/// One variant build: the object plus how much pipeline work the
/// session avoided producing it.
pub struct VariantBuild {
    pub object: Object,
    /// Mid-pipeline instances not re-executed: the index of the first
    /// instance the gate disables, or the whole middle end when it
    /// disables none.
    pub prefix_skipped: usize,
}

/// A staged, checkpointed compilation pipeline for one
/// program/personality/level, shareable across threads (variant
/// builders take `&self`).
pub struct CompileSession {
    personality: Personality,
    level: OptLevel,
    config: PassConfig,
    pipeline: Pipeline,
    /// The module after the full ungated middle end.
    optimized: Module,
    /// Snapshots sorted by pipeline position.
    snapshots: Vec<Snapshot>,
}

impl CompileSession {
    /// Builds a session, running the full ungated pipeline once and
    /// snapshotting the module before each distinct first-gated
    /// position.
    pub fn new(
        module: Module,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
    ) -> Self {
        let pipeline = pipeline::build(personality, level);
        let config = PassConfig {
            salvage: personality == Personality::Clang,
            profile,
            level,
        };

        // A snapshot goes before each instance that is the first one
        // some gateable name disables.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut m = module;
        let mut snapshots = Vec::new();
        for (i, inst) in pipeline.mid.iter().enumerate() {
            if inst.gateable {
                let mut first_gated = false;
                for name in std::iter::once(inst.name).chain(inst.also_gated_by.iter().copied()) {
                    first_gated |= seen.insert(name);
                }
                if first_gated {
                    snapshots.push(Snapshot {
                        index: i,
                        module: m.clone(),
                    });
                }
            }
            run_stage(&mut m, inst, &config);
        }

        CompileSession {
            personality,
            level,
            config,
            pipeline,
            optimized: m,
            snapshots,
        }
    }

    /// Parses, validates, and lowers MiniC source into a session.
    pub fn from_source(
        src: &str,
        personality: Personality,
        level: OptLevel,
        profile: Option<Profile>,
    ) -> Result<Self, String> {
        Ok(Self::new(
            dt_frontend::lower_source(src)?,
            personality,
            level,
            profile,
        ))
    }

    pub fn personality(&self) -> Personality {
        self.personality
    }

    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Mid-pipeline stage count.
    pub fn stage_count(&self) -> usize {
        self.pipeline.mid.len()
    }

    /// The gateable pass-name universe of this session's pipeline.
    pub fn gateable_names(&self) -> Vec<&'static str> {
        self.pipeline.gateable_names()
    }

    /// The reference object: full ungated pipeline + backend.
    /// Bit-identical to [`crate::compile`] with an all-allowing gate.
    pub fn reference_object(&self) -> Object {
        let backend = self.pipeline.backend_config(&PassGate::allow_all());
        dt_machine::run_backend(&self.optimized, &backend)
    }

    /// Builds one variant under `gate`, resuming from the snapshot
    /// before its first disabled instance. Bit-identical to a
    /// from-scratch [`crate::compile`] of the session's module under
    /// the same options.
    pub fn build_variant(&self, gate: &PassGate) -> VariantBuild {
        let backend = self.pipeline.backend_config(gate);
        let Some(k) = self.pipeline.mid.iter().position(|inst| !gate.allows(inst)) else {
            // The gate touches no middle-end instance: reuse the
            // optimized module, pay only for the (gated) backend.
            return VariantBuild {
                object: dt_machine::run_backend(&self.optimized, &backend),
                prefix_skipped: self.stage_count(),
            };
        };
        let snapshot = self
            .snapshots
            .binary_search_by_key(&k, |s| s.index)
            .map(|i| &self.snapshots[i])
            .expect("a gate's first disabled instance is a first-gated position");
        let mut m = snapshot.module.clone();
        for inst in &self.pipeline.mid[k..] {
            if gate.allows(inst) {
                run_stage(&mut m, inst, &self.config);
            }
        }
        VariantBuild {
            object: dt_machine::run_backend(&m, &backend),
            prefix_skipped: k,
        }
    }

    /// The size of the snapshot store.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            snapshots: self.snapshots.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_source, pipeline_pass_names, CompileOptions};

    const PROGRAM: &str = "\
int weight(int x) { return x * 3 + 1; }
int f(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        int w = weight(i);
        if (w % 2 == 0) { total += w; } else { total -= 1; }
    }
    return total;
}";

    /// The index of the first mid instance `gate` disables, or the
    /// stage count when it disables none: where a resumed build must
    /// start.
    fn first_disabled(personality: Personality, level: OptLevel, gate: &PassGate) -> usize {
        let mid = pipeline::build(personality, level).mid;
        mid.iter()
            .position(|inst| !gate.allows(inst))
            .unwrap_or(mid.len())
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileSession>();
    }

    #[test]
    fn resumed_variants_match_from_scratch_for_every_gate() {
        for personality in [Personality::Gcc, Personality::Clang] {
            for &level in OptLevel::levels_for(personality) {
                let session =
                    CompileSession::from_source(PROGRAM, personality, level, None).unwrap();
                let mut opts = CompileOptions::new(personality, level);
                assert_eq!(
                    session.reference_object().content_hash(),
                    compile_source(PROGRAM, &opts).unwrap().content_hash(),
                    "{personality} {level} reference"
                );
                for pass in pipeline_pass_names(personality, level) {
                    opts.gate = PassGate::disabling([pass]);
                    let scratch = compile_source(PROGRAM, &opts).unwrap();
                    let resumed = session.build_variant(&opts.gate);
                    assert_eq!(
                        resumed.object.content_hash(),
                        scratch.content_hash(),
                        "{personality} {level} -{pass}"
                    );
                    assert_eq!(
                        resumed.prefix_skipped,
                        first_disabled(personality, level, &opts.gate),
                        "{personality} {level} -{pass} resume point"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_name_gates_resume_correctly() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        let names = pipeline_pass_names(Personality::Gcc, OptLevel::O2);
        // A gate mixing an early and a late pass, plus one mixing a
        // middle-end and a backend pass.
        for disabled in [
            vec![names[names.len() - 1], names[0]],
            vec!["tree-sink", "schedule-insns2"],
            vec!["expensive-opts", "dce", "reorder-blocks"],
        ] {
            let gate = PassGate::disabling(disabled.iter().copied());
            let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
            opts.gate = gate.clone();
            let vb = session.build_variant(&gate);
            assert_eq!(
                vb.object.content_hash(),
                compile_source(PROGRAM, &opts).unwrap().content_hash(),
                "gate {disabled:?}"
            );
            assert_eq!(
                vb.prefix_skipped,
                first_disabled(Personality::Gcc, OptLevel::O2, &gate),
                "gate {disabled:?} resume point"
            );
        }
    }

    #[test]
    fn backend_only_gates_reuse_the_optimized_module() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        let vb = session.build_variant(&PassGate::disabling(["schedule-insns2"]));
        assert_eq!(
            vb.prefix_skipped,
            session.stage_count(),
            "backend-only gate must skip the middle end"
        );
        let mut opts = CompileOptions::new(Personality::Gcc, OptLevel::O2);
        opts.gate = PassGate::disabling(["schedule-insns2"]);
        assert_eq!(
            vb.object.content_hash(),
            compile_source(PROGRAM, &opts).unwrap().content_hash()
        );
    }

    #[test]
    fn middle_end_gates_skip_a_prefix() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O2, None).unwrap();
        // `tree-sink` sits deep in the gcc O2 pipeline: resuming must
        // skip every stage before its first occurrence.
        let vb = session.build_variant(&PassGate::disabling(["tree-sink"]));
        assert!(vb.prefix_skipped > 3, "skipped only {}", vb.prefix_skipped);
        assert!(session.stats().snapshots > 0);
    }

    #[test]
    fn o0_sessions_have_an_empty_pipeline() {
        let session =
            CompileSession::from_source(PROGRAM, Personality::Gcc, OptLevel::O0, None).unwrap();
        assert_eq!(session.stage_count(), 0);
        let vb = session.build_variant(&PassGate::disabling(["dce"]));
        assert_eq!(vb.prefix_skipped, session.stage_count());
        assert_eq!(
            vb.object.content_hash(),
            compile_source(
                PROGRAM,
                &CompileOptions::new(Personality::Gcc, OptLevel::O0)
            )
            .unwrap()
            .content_hash()
        );
    }
}
