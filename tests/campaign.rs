//! End-to-end campaign integration on the real experiment DAG.
//!
//! Exercises a small subset of the suite (`table03_testsuite` plus the
//! `suite_inputs + tuner -> table16_correctness` chain) at tiny knobs through
//! the full `dt_campaign` engine: a cold run, a warm rerun that must be
//! 100% cache hits with bit-identical artifacts, and a simulated
//! mid-campaign kill followed by a resume that must reuse the work
//! persisted before the crash and still converge to identical outputs.
//!
//! Everything lives in one `#[test]` because the experiment knobs are
//! process-wide environment variables.

use std::fs;
use std::path::{Path, PathBuf};

use dt_campaign::JobStatus;

/// The persisted outputs the subset produces, in a fixed order.
const OUTPUTS: &[&str] = &["table03_testsuite", "table16_correctness"];

fn config_for(dir: &Path, stop_after_jobs: Option<usize>) -> dt_campaign::CampaignConfig {
    let mut config = dt_campaign::CampaignConfig::for_results_dir(dir.to_path_buf());
    config.only = OUTPUTS.iter().map(|s| s.to_string()).collect();
    // One worker makes the execution order (and therefore the set of
    // jobs finished before the simulated kill) deterministic.
    config.workers = 1;
    config.salt = experiments::campaign::library_fingerprint();
    config.stop_after_jobs = stop_after_jobs;
    config
}

fn run(dir: &Path, stop_after_jobs: Option<usize>) -> dt_campaign::CampaignRun {
    dt_campaign::run(
        experiments::campaign::build_campaign(),
        &config_for(dir, stop_after_jobs),
    )
    .expect("campaign must be well-formed")
}

fn read_outputs(dir: &Path) -> Vec<String> {
    OUTPUTS
        .iter()
        .map(|id| {
            let path = dir.join(format!("{id}.txt"));
            fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing output {}: {e}", path.display()))
        })
        .collect()
}

#[test]
fn campaign_cold_warm_and_crash_resume() {
    // Tiny knobs: the point is the orchestration, not the science.
    std::env::set_var("DT_SYNTH_N", "2");
    std::env::set_var("DT_FUZZ_ITERS", "4");

    let base: PathBuf = std::env::temp_dir().join(format!("dt-campaign-it-{}", std::process::id()));
    fs::remove_dir_all(&base).ok();
    let dir_a = base.join("a");
    let dir_b = base.join("b");

    // Cold run: the two targets plus the ephemeral suite_inputs and
    // tuner artifacts all execute.
    let cold = run(&dir_a, None);
    assert!(cold.report.success(), "cold run failed: {:?}", cold.report);
    assert_eq!(cold.report.count(JobStatus::Ran), 4, "{:?}", cold.report);
    let golden = read_outputs(&dir_a);
    assert!(
        dir_a.join(".cache/journal.jsonl").is_file(),
        "journal must be written"
    );

    // Warm rerun: every persisted target is served from the cache,
    // nothing executes (suite_inputs and tuner are demand-pruned away),
    // and the outputs on disk are bit-identical.
    let warm = run(&dir_a, None);
    assert!(
        warm.report.all_hits(),
        "warm rerun must be 100% cache hits: {:?}",
        warm.report
    );
    assert_eq!(warm.report.count(JobStatus::Hit), 2, "{:?}", warm.report);
    assert_eq!(read_outputs(&dir_a), golden, "warm rerun changed outputs");

    // Simulated kill after three jobs: with one worker the dependency
    // order runs suite_inputs, tuner, then table03_testsuite, so exactly
    // one persisted output lands in the cache before the "crash".
    let crashed = run(&dir_b, Some(3));
    assert!(!crashed.report.success(), "{:?}", crashed.report);
    assert!(
        crashed.report.count(JobStatus::Interrupted) >= 1,
        "the kill must strand at least one job: {:?}",
        crashed.report
    );

    // Resume: the job that completed before the kill is a cache hit,
    // the stranded work runs, and the final artifacts match the
    // uninterrupted campaign byte for byte.
    let resumed = run(&dir_b, None);
    assert!(
        resumed.report.success(),
        "resume failed: {:?}",
        resumed.report
    );
    assert!(
        resumed.report.count(JobStatus::Hit) >= 1,
        "resume must reuse work persisted before the crash: {:?}",
        resumed.report
    );
    assert!(
        resumed.report.count(JobStatus::Ran) >= 1,
        "resume must finish the stranded work: {:?}",
        resumed.report
    );
    assert_eq!(
        read_outputs(&dir_b),
        golden,
        "crash-resumed campaign diverged from the uninterrupted one"
    );

    fs::remove_dir_all(&base).ok();
}
