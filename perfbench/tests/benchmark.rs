//! The benchmark's own tests: `BENCHMARK.json` is well formed, every
//! metric it names is emitted by every workload, and a tiny run of each
//! workload checks out with no failed op, untraced and traced.

use serde::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["rank_matrix", "defect_hunt", "campaign_cold"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(bench: &'a Value, key: &str) -> &'a [Value] {
    bench.get(key).and_then(Value::as_array).expect(key)
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

fn names(bench: &Value, key: &str) -> BTreeSet<String> {
    entries(bench, key)
        .iter()
        .map(|m| str_field(m, "name").to_string())
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Runs the benchmark binary at tiny size and returns its result.
fn run(workload: &str, trace: bool) -> Value {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let spans = dir.join(format!("perfbench-test-{workload}-{trace}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_dt-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--spans")
        .arg(&spans)
        .current_dir(dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let text = std::fs::read_to_string(&spans).expect("the traced run writes spans");
        assert!(!text.is_empty());
        std::fs::remove_file(&spans).expect("spans file is removable");
    }
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

#[test]
fn benchmark_json_is_well_formed() {
    let bench = benchmark_json();
    let workloads = names(&bench, "workloads");
    assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect());
    let mut all = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for m in entries(&bench, key) {
            let name = str_field(m, "name");
            assert!(valid_name(name), "bad name {name}");
            assert!(all.insert(name.to_string()), "{name} is used twice");
            if key != "workloads" {
                assert!(valid_unit(str_field(m, "unit")), "bad unit of {name}");
                assert!(matches!(str_field(m, "better"), "lower" | "higher"));
            }
        }
    }
    let e2e = entries(&bench, "end_to_end");
    let setup = e2e
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(str_field(setup, "unit"), "s");
    let bound = |m: &Value| match m.get("bound") {
        Some(Value::Float(b)) => *b,
        other => panic!("bound {other:?}"),
    };
    for m in e2e {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(bound(m) <= bound(setup), "setup_s has the largest bound");
    }
}

#[test]
fn every_workload_emits_its_metrics_and_checks_out() {
    let bench = benchmark_json();
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = names(&bench, key);
        for w in WORKLOADS {
            let result = run(w, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{w}");
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let got: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, want, "{w} with --trace {}", trace as u8);
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Value::as_str);
                let declared = entries(&bench, key)
                    .iter()
                    .find(|d| str_field(d, "name") == name)
                    .map(|d| str_field(d, "unit"));
                assert_eq!(unit, declared, "{w}: unit of {name}");
                assert!(matches!(m.get("value"), Some(Value::Float(_))), "{name}");
            }
        }
    }
}
