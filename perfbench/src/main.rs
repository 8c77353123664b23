//! The DebugTuner benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! perfbench --workload rank_matrix|defect_hunt|campaign_cold --seed N
//!           --seconds S --trace 0|1 [--size full|tiny] [--spans PATH]
//!           [--record-expected]
//! ```
//!
//! With `--trace 0` the run is timed and prints every end-to-end
//! metric; with `--trace 1` it replays the same ops through each
//! layer's public functions under spans, prints every per-layer metric
//! and writes the spans to `--spans` (default
//! `.bench_work/spans/<workload>-seed<N>.jsonl`). The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod campaign_cold;
mod common;
mod defect_hunt;
mod layers;
mod rank_matrix;
mod spans;

use common::{obj, Args, Outcome, Size, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["rank_matrix", "defect_hunt", "campaign_cold"];
const USAGE: &str = "usage: perfbench --workload rank_matrix|defect_hunt|campaign_cold \
    --seed N --seconds S --trace 0|1 [--size full|tiny] [--spans PATH] [--record-expected]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: common::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans_out: PathBuf::new(),
        record_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-expected" {
            args.record_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("not a duration"));
                }
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(bad("expected 0 or 1")),
            },
            "--size" => match value.as_str() {
                "full" => args.size = Size::Full,
                "tiny" => args.size = Size::Tiny,
                _ => return Err(bad("expected full or tiny")),
            },
            "--spans" => args.spans_out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.spans_out.as_os_str().is_empty() {
        args.spans_out = PathBuf::from(".bench_work/spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    }
    Ok(args)
}

type Metrics = Vec<(String, Value)>;

fn metric(metrics: &mut Metrics, name: &str, value: f64, unit: &str) {
    println!("{name} {value} {unit}");
    metrics.push((
        name.to_string(),
        obj(vec![
            ("value", Value::Float(value)),
            ("unit", Value::Str(unit.to_string())),
        ]),
    ));
}

/// End-to-end metrics of a timed run.
fn end_to_end(args: &Args, out: &Outcome, metrics: &mut Metrics) {
    let timed: f64 = out.round_walls.iter().sum();
    let ops = out.op_ms.iter().map(Vec::len).min().unwrap_or(0);
    // Each op's median over the rounds, so every op weighs the same
    // whatever the number of rounds.
    let per_op: Vec<f64> = (0..ops)
        .map(|i| common::median(&out.op_ms.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    let (tail, pct) = if per_op.is_empty() {
        (0.0, 0.0)
    } else {
        common::tail(&per_op)
    };
    println!(
        "# {} seed={} rounds={} ops/round={} threads={} tail percentile={pct:.1}",
        args.workload,
        args.seed,
        out.round_walls.len(),
        ops,
        args.threads(),
    );
    println!("# round walls (s): {:?}", out.round_walls);
    println!(
        "fail_ratio {} ratio ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    metric(metrics, "wall_s", common::median(&out.round_walls), "s");
    let correct_ops = out.attempted.saturating_sub(out.failed) as f64;
    metric(metrics, "ops_per_s", correct_ops / timed, "1/s");
    metric(metrics, "op_ms_p50", common::median(&per_op), "ms");
    metric(metrics, "op_ms_tail", tail, "ms");
    metric(metrics, "setup_s", common::median(&out.setup_s), "s");
    metric(
        metrics,
        "peak_rss_mb",
        common::peak_rss_mb().unwrap_or(0.0),
        "MiB",
    );
}

/// Per-layer metrics of a traced run, from the spans, the counters and
/// what the workload measured itself.
fn per_layer(
    out: &Outcome,
    spans: &[spans::Span],
    counts: &BTreeMap<&'static str, f64>,
    metrics: &mut Metrics,
) {
    let mut layer = out.layer.clone();
    for (name, (ms, calls)) in spans::totals(spans) {
        *layer.entry(format!("{name}.ms")).or_default() += ms;
        *layer.entry(format!("{name}.calls")).or_default() += calls as f64;
    }
    for (name, v) in counts {
        *layer.entry(name.to_string()).or_default() += v;
    }
    let ratio = |layer: &BTreeMap<String, f64>, num: &str, den: &str| {
        layer.get(num).copied().unwrap_or(0.0) / layer.get(den).copied().unwrap_or(0.0).max(1.0)
    };
    let noop = ratio(&layer, "passes.noop_variants", "passes.variant.calls");
    layer.insert("passes.noop_variant_ratio".into(), noop);
    let flagged = ratio(&layer, "checker.flagged", "checker.check.calls");
    layer.insert("checker.flagged_ratio".into(), flagged);

    // Untraced op time minus the time the replay spent inside layer
    // calls of the same op (op roots and build probes excluded).
    if !out.replayed_op_ms.is_empty() {
        let selfs = spans::self_times(spans);
        let mut inside = 0.0;
        for (id, s) in spans.iter().enumerate() {
            if s.op.is_some()
                && !s.name.starts_with("op.")
                && !spans::under(spans, id, "probe.reference_build")
            {
                inside += selfs[id] as f64 / 1e6;
            }
        }
        let untraced: f64 = out.replayed_op_ms.iter().sum();
        layer.insert("core.residual_ms".into(), untraced - inside);
    }
    for (name, unit) in layers::per_layer_names() {
        metric(
            metrics,
            &name,
            layer.get(&name).copied().unwrap_or(0.0),
            unit,
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if args.trace {
        spans::install();
    }
    let out = match args.workload.as_str() {
        "rank_matrix" => rank_matrix::run(&args),
        "defect_hunt" => defect_hunt::run(&args),
        _ => campaign_cold::run(&args, &work),
    };
    let _ = std::fs::remove_dir(&work);
    let (spans, counts) = spans::take();

    let mut metrics = Metrics::new();
    if args.trace {
        per_layer(&out, &spans, &counts, &mut metrics);
        match spans::write_jsonl(&spans, &args.spans_out) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                spans.len(),
                args.spans_out.display()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", args.spans_out.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end(&args, &out, &mut metrics);
    }
    let result = obj(vec![
        (
            "correct",
            Value::Bool(out.problems.is_empty() && out.failed == 0),
        ),
        ("attempted", Value::UInt(out.attempted.max(1))),
        ("failed", Value::UInt(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    ExitCode::SUCCESS
}
