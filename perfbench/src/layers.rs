//! Layer replays shared by the workloads, and the per-layer metric
//! names.
//!
//! The traced run replays each operation through the public functions
//! of each layer instead of through one opaque call, opening a span
//! around every call. Two replays here decompose what the program does
//! inside a single call: the reference pipeline pass by pass
//! (`passes.pass.<name>`) and the backend stage by stage (`machine.*`).
//! They run under a `probe.*` span, because a compile session runs the
//! same pipeline internally and the probe is extra work.

use crate::spans::{enter, span};
use dt_ir::Module;
use dt_machine::{opt, Object};
use dt_passes::manager::{cleanup, PassConfig};
use dt_passes::pipeline::{self, BackendToggle, Pipeline};
use dt_passes::{OptLevel, PassGate, Personality};
use std::collections::BTreeSet;

/// The campaign jobs whose time the traced `campaign_cold` run reports.
pub const CAMPAIGN_JOBS: [&str; 11] = [
    "suite_inputs",
    "table01_methods",
    "table02_libpng",
    "table03_testsuite",
    "tradeoff_gcc",
    "tradeoff_clang",
    "autofdo_sweep",
    "table11_spec_speedup",
    "table12_spec_delta",
    "table16_correctness",
    "fig04_selfcompile",
];

/// Every (personality, level) the tuner studies, in a fixed order.
pub fn levels() -> Vec<(Personality, OptLevel)> {
    [Personality::Gcc, Personality::Clang]
        .into_iter()
        .flat_map(|p| OptLevel::levels_for(p).iter().map(move |&l| (p, l)))
        .collect()
}

/// Maps a name onto `[A-Za-z0-9_.-]`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Middle-end pass names of every studied pipeline, infrastructure
/// passes included.
pub fn mid_pass_names() -> BTreeSet<&'static str> {
    levels()
        .into_iter()
        .flat_map(|(p, l)| pipeline::build(p, l).mid.into_iter().map(|i| i.name))
        .collect()
}

/// Backend toggle names of every studied pipeline.
pub fn backend_names() -> BTreeSet<&'static str> {
    levels()
        .into_iter()
        .flat_map(|(p, l)| pipeline::build(p, l).backend.into_iter().map(|(n, _)| n))
        .collect()
}

/// Every per-layer metric the traced run reports, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("frontend.lower.ms", "ms");
    add("frontend.lower.calls", "count");
    add("frontend.ir_insts", "count");
    for n in [
        "passes.session.ms",
        "passes.session.calls",
        "passes.snapshots",
        "passes.variant.ms",
        "passes.variant.calls",
        "passes.prefix_skipped",
        "passes.noop_variant_ratio",
        "passes.ir_insts_out",
    ] {
        let unit = match n.rsplit('.').next() {
            Some("ms") => "ms",
            Some("noop_variant_ratio") => "ratio",
            _ => "count",
        };
        add(n, unit);
    }
    for name in mid_pass_names() {
        add(&format!("passes.pass.{}.ms", sanitize(name)), "ms");
    }
    add("machine.lower.ms", "ms");
    for name in backend_names() {
        add(&format!("machine.opt.{}.ms", sanitize(name)), "ms");
    }
    add("machine.emit.ms", "ms");
    add("machine.text_bytes", "bytes");
    for n in ["plan", "trace", "gt_trace"] {
        add(&format!("debugger.{n}.ms"), "ms");
        add(&format!("debugger.{n}.calls"), "count");
    }
    add("debugger.fast_steps", "count");
    add("debugger.break_stops", "count");
    add("debugger.inputs_abandoned", "count");
    add("metrics.hybrid.ms", "ms");
    add("metrics.hybrid.calls", "count");
    add("metrics.all_methods.ms", "ms");
    add("checker.check.ms", "ms");
    add("checker.check.calls", "count");
    add("checker.flagged_ratio", "ratio");
    add("corpus.fuzz_self.ms", "ms");
    add("corpus.executions", "count");
    add("corpus.queue_len", "count");
    add("corpus.cmin.ms", "ms");
    add("corpus.trace_min.ms", "ms");
    add("core.rank.ms", "ms");
    add("core.residual_ms", "ms");
    for n in [
        "builds",
        "traces",
        "pruned_variants",
        "resumed_variants",
        "artifact_hits",
    ] {
        add(&format!("core.{n}"), "count");
    }
    add("core.trace_cache_hit_ratio", "ratio");
    for job in CAMPAIGN_JOBS {
        add(&format!("campaign.job.{job}.ms"), "ms");
    }
    add("campaign.critical_path.ms", "ms");
    add("campaign.busy_ratio", "ratio");
    add("campaign.jobs_ran", "count");
    add("campaign.tuner.builds", "count");
    add("campaign.tuner.build_ms", "ms");
    add("campaign.tuner.traces", "count");
    add("campaign.tuner.trace_ms", "ms");
    add("trace.overhead_ratio", "ratio");
    v
}

/// IR instructions in the live blocks of a module.
pub fn ir_insts(module: &Module) -> usize {
    module
        .funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .filter(|b| !b.dead)
        .map(|b| b.insts.len())
        .sum()
}

/// The reference build of `module`, replayed one middle-end pass and
/// one backend stage at a time. Returns the optimized module's IR size
/// and the object, which must equal the compile session's reference
/// object.
pub fn probe_reference_build(
    module: &Module,
    personality: Personality,
    level: OptLevel,
) -> (usize, Object) {
    let _probe = enter("probe.reference_build");
    let pipeline = pipeline::build(personality, level);
    let config = PassConfig {
        salvage: personality == Personality::Clang,
        profile: None,
        level,
    };
    let mut m = module.clone();
    for inst in &pipeline.mid {
        span(format!("passes.pass.{}", sanitize(inst.name)), || {
            inst.pass.run(&mut m, &config);
            cleanup(&mut m);
        });
    }
    let insts = ir_insts(&m);
    (insts, replay_backend(&m, &pipeline))
}

/// `dt_machine::run_backend` with the pipeline's ungated backend
/// configuration, one span per stage and per backend pass.
fn replay_backend(module: &Module, pipeline: &Pipeline) -> Object {
    let cfg = pipeline.backend_config(&PassGate::allow_all());
    let name = |t: BackendToggle| {
        let flag = pipeline
            .backend
            .iter()
            .find(|(_, x)| *x == t)
            .map_or("unnamed", |(n, _)| *n);
        format!("machine.opt.{}", sanitize(flag))
    };
    let mut mmod = span("machine.lower", || dt_machine::lower_module(module));
    for func in &mut mmod.funcs {
        if cfg.shrink_wrap {
            span(name(BackendToggle::ShrinkWrap), || {
                opt::shrinkwrap::run(func)
            });
        }
        if cfg.sink {
            span(name(BackendToggle::Sink), || opt::msink::run(func));
        }
        if cfg.schedule {
            span(name(BackendToggle::Schedule), || opt::msched::run(func));
        }
        if cfg.cfg_cleanup {
            span(name(BackendToggle::CfgCleanup), || opt::cfopt::run(func));
        }
        if cfg.crossjump {
            span(name(BackendToggle::Crossjump), || opt::crossjump::run(func));
        }
        span(name(BackendToggle::Layout), || {
            opt::layout::run(func, cfg.layout)
        });
    }
    if cfg.toplevel_reorder {
        span(name(BackendToggle::ToplevelReorder), || {
            opt::reorder_functions(&mut mmod)
        });
    }
    if cfg.share_spill_slots {
        // Emission allocates registers itself; this standalone run of
        // the allocator with shared slots times what the toggle drives.
        span(name(BackendToggle::ShareSpillSlots), || {
            for f in &mmod.funcs {
                std::hint::black_box(dt_machine::regalloc::allocate(f, true));
            }
        });
    }
    span("machine.emit", || dt_machine::emit_module(&mmod, &cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_matches_the_compile_session_reference() {
        let src = "\
int sq(int v) { return v * v; }
int fuzz_main() {
    int a = in(0);
    int t = 0;
    for (int i = 0; i < a % 7; i++) { t += sq(i); }
    out(t);
    return t;
}";
        let module = dt_frontend::lower_source(src).unwrap();
        for (p, l) in levels() {
            let session = dt_passes::CompileSession::new(module.clone(), p, l, None);
            let (_, obj) = probe_reference_build(&module, p, l);
            assert_eq!(
                obj.content_hash(),
                session.reference_object().content_hash(),
                "{p} {l}"
            );
        }
    }

    #[test]
    fn names_are_sanitized_and_unique() {
        let names = per_layer_names();
        let unique: BTreeSet<&String> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
        assert_eq!(backend_names().len(), 10);
        for (n, _) in &names {
            assert_eq!(&sanitize(n), n);
        }
    }
}
