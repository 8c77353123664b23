//! `campaign_cold`: the whole experiment DAG, run cold and in-process.
//!
//! Each timed round runs `dt_campaign::run(build_campaign(), ...)` into
//! a fresh results directory with one campaign worker, so the tuner's
//! own fan-out stays within `nproc`. The scale knobs are pinned, so the
//! inputs do not depend on the workload seed. An op is one job.

use crate::common::{self, Args, Expected, Outcome, Size, Value};
use crate::spans;
use debugtuner::DebugTuner;
use dt_campaign::{CampaignConfig, CampaignRun, JobStatus, Journal};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pinned knobs: (`DT_SYNTH_N`, `DT_FUZZ_ITERS`) per size; the SPEC-like
/// benchmarks always run their `test` workload.
const FULL_KNOBS: (&str, &str) = ("6", "60");
const TINY_KNOBS: (&str, &str) = ("2", "10");
const SETUP_REPS: usize = 5;
const EXPECTED: &str = include_str!("../expected/campaign_cold.json");

/// A planned cold campaign: the DAG plus the engine settings.
struct Planned {
    campaign: Option<dt_campaign::Campaign>,
    config: CampaignConfig,
    ids: Vec<String>,
    deps: HashMap<String, Vec<String>>,
}

/// Set-up of one round: a fresh results directory and the DAG.
fn plan(dir: &Path) -> std::io::Result<Planned> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let campaign = experiments::campaign::build_campaign();
    let ids: Vec<String> = campaign.ids().into_iter().map(String::from).collect();
    let deps = ids
        .iter()
        .map(|id| (id.clone(), campaign.deps(id).unwrap_or_default().to_vec()))
        .collect();
    let mut config = CampaignConfig::for_results_dir(dir);
    config.workers = 1;
    config.fresh = true;
    config.retries = 0;
    config.salt = experiments::campaign::library_fingerprint();
    Ok(Planned {
        campaign: Some(campaign),
        config,
        ids,
        deps,
    })
}

fn pin_knobs(size: Size) {
    let (synth, fuzz) = match size {
        Size::Full => FULL_KNOBS,
        Size::Tiny => TINY_KNOBS,
    };
    // Set before any thread starts; the campaign reads them when it is
    // built.
    std::env::set_var("DT_SYNTH_N", synth);
    std::env::set_var("DT_FUZZ_ITERS", fuzz);
    std::env::set_var("DT_WORKLOAD", "test");
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    pin_knobs(args.size);
    let mut out = Outcome::default();
    let expected = common::parse_expected(EXPECTED);
    let mut recorded = Expected::new();
    // Set-up: planning a cold campaign, timed on its own a few times.
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{rep}"));
        let t = Instant::now();
        let planned = plan(&dir);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = planned.and_then(|_| std::fs::remove_dir_all(&dir)) {
            out.problem(format!("cannot prepare {}: {e}", dir.display()));
        }
    }
    let mut round = 0;
    let start = Instant::now();
    while out.round_walls.is_empty()
        || (!args.trace && common::another_round(args, start, &out.round_walls))
    {
        let dir = work.join(format!("results-{round}"));
        round += 1;
        let mut planned = match plan(&dir) {
            Ok(p) => p,
            Err(e) => {
                out.problem(format!("cannot prepare {}: {e}", dir.display()));
                out.attempted += 1;
                out.failed += 1;
                break;
            }
        };
        let t = Instant::now();
        let campaign = planned.campaign.take().expect("a planned campaign");
        let result = dt_campaign::run(campaign, &planned.config);
        let wall = t.elapsed().as_secs_f64();
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                out.problem(format!("campaign could not run: {e}"));
                out.attempted += planned.ids.len() as u64;
                out.failed += planned.ids.len() as u64;
                break;
            }
        };
        out.round_walls.push(wall);
        let jobs = &run.report.jobs;
        out.attempted += jobs.len() as u64;
        let finished = finish_order(&planned, &mut out);
        // Every job is submitted when the campaign starts, so a job's
        // latency runs until it finishes. One worker runs the jobs back
        // to back in journal order.
        let mut done = 0.0;
        let mut latency: HashMap<&str, f64> = HashMap::new();
        for (id, ms) in &finished {
            done += ms;
            latency.insert(id, done);
        }
        out.op_ms.push(
            planned
                .ids
                .iter()
                .map(|id| latency.get(id.as_str()).copied().unwrap_or(wall * 1e3))
                .collect(),
        );

        let mut bad = BTreeSet::new();
        for j in jobs {
            if j.status != JobStatus::Ran {
                out.problem(format!("job {} ended {}", j.id, j.status.name()));
                bad.insert(j.id.clone());
            }
        }
        for id in &planned.ids {
            let Ok(text) = std::fs::read_to_string(dir.join(format!("{id}.txt"))) else {
                continue; // artifact jobs write no file
            };
            let got = Value::Str(text);
            let ok = args.size == Size::Tiny
                || common::compare_expected(
                    &expected,
                    &mut recorded,
                    id,
                    got,
                    args.record_expected,
                );
            if !ok {
                out.problem(format!("results/{id}.txt differs from expected/"));
                bad.insert(id.clone());
            }
        }
        out.failed += bad.len() as u64;
        if args.trace {
            traced(&run, &planned, &finished, wall, &mut out);
        }
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("perfbench: cannot remove {}: {e}", dir.display());
        }
    }
    if args.record_expected && args.size == Size::Full {
        assert_eq!(recorded.len(), 19, "one recorded text per results file");
        common::write_expected("campaign_cold.json", &recorded)
            .expect("expected outputs are writable");
    }
    out
}

/// The jobs in the order they finished, with their durations in ms,
/// from the campaign journal.
fn finish_order(planned: &Planned, out: &mut Outcome) -> Vec<(String, f64)> {
    let journal: PathBuf = planned.config.cache_dir().join("journal.jsonl");
    match Journal::read(&journal) {
        Ok(records) => records
            .into_iter()
            .filter(|r| r.kind == "job_finish")
            .map(|r| (r.job, r.duration_ms))
            .collect(),
        Err(e) => {
            out.problem(format!("cannot read {}: {e}", journal.display()));
            Vec::new()
        }
    }
}

/// Per-layer metrics of one campaign: per-job spans rebuilt from the
/// journal (one worker runs the jobs back to back, in journal order),
/// job times, the critical path and the tuner's counters.
fn traced(
    run: &CampaignRun,
    planned: &Planned,
    finished: &[(String, f64)],
    wall: f64,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let report = &run.report;
    let index: HashMap<&str, usize> = planned
        .ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let end = spans::now_ns();
    let mut cursor = end.saturating_sub((wall * 1e9) as u64);
    let root = spans::record("op.campaign_cold".into(), cursor, end, None, None);
    for (job, ms) in finished {
        let job_end = cursor + (ms * 1e6) as u64;
        let op = index.get(job.as_str()).map(|&i| i as u32);
        spans::record(
            format!("campaign.job.{job}"),
            cursor,
            job_end,
            Some(root),
            op,
        );
        cursor = job_end;
    }

    let ms: HashMap<&str, f64> = report
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Ran)
        .map(|j| (j.id.as_str(), j.duration_ms))
        .collect();
    // Longest dependency chain, jobs in declaration order (a job's
    // dependencies are declared before it).
    let mut finish: HashMap<&str, f64> = HashMap::new();
    for id in &planned.ids {
        let ready = planned.deps[id]
            .iter()
            .map(|d| finish.get(d.as_str()).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        finish.insert(id, ready + ms.get(id.as_str()).copied().unwrap_or(0.0));
    }
    out.add(
        "campaign.critical_path.ms",
        finish.values().copied().fold(0.0, f64::max),
    );
    let busy: f64 = ms.values().sum();
    out.add(
        "campaign.busy_ratio",
        busy / (wall * 1e3 * report.workers.max(1) as f64),
    );
    out.add("campaign.jobs_ran", report.count(JobStatus::Ran) as f64);
    if let Some(tuner) = run.value::<DebugTuner>("tuner") {
        let s = tuner.stats();
        out.add("campaign.tuner.builds", s.builds as f64);
        out.add("campaign.tuner.build_ms", s.build_ms);
        out.add("campaign.tuner.traces", s.traces as f64);
        out.add("campaign.tuner.trace_ms", s.trace_ms);
        out.add("core.builds", s.builds as f64);
        out.add("core.traces", s.traces as f64);
        out.add("core.pruned_variants", s.pruned_variants as f64);
        out.add("core.resumed_variants", s.resumed_variants as f64);
        out.add("core.artifact_hits", s.artifact_hits as f64);
        out.add(
            "core.trace_cache_hit_ratio",
            s.trace_cache_hits as f64 / s.traces.max(1) as f64,
        );
        out.add("core.rank.ms", s.rank_ms);
    } else {
        out.problem("the campaign kept no tuner");
    }
    out.add(
        "trace.overhead_ratio",
        (wall + t.elapsed().as_secs_f64()) / wall,
    );
}
