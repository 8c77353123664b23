//! Performance measurement of configurations on the SPEC-like suite.
//!
//! A [`SpecBaseline`] compiles and runs the `O0` build of every
//! benchmark once; each [`SpecBaseline::measure`] then compiles and
//! runs only the configured build, so a sweep over many (level, gate)
//! configurations pays for the `O0` runs once per personality.

use dt_passes::{compile_source, CompileOptions, OptLevel, PassGate, Personality};
use dt_testsuite::spec::{spec_suite, Benchmark, Workload};
use dt_vm::{Vm, VmConfig};
use serde::{Deserialize, Serialize};

/// Per-benchmark and aggregate speedups of one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// (benchmark name, speedup over O0).
    pub per_benchmark: Vec<(String, f64)>,
    /// Geometric-mean speedup over O0.
    pub speedup: f64,
}

fn run_cycles(obj: &dt_machine::Object, b: &Benchmark, workload: Workload) -> u64 {
    let cfg = VmConfig {
        max_steps: 2_000_000_000,
        ..VmConfig::default()
    };
    let iters = b.iterations(workload);
    let r = Vm::run_to_completion(obj, b.entry, &[iters], &[], cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    assert_eq!(r.halt, dt_vm::Halt::Finished, "{} did not finish", b.name);
    r.cycles
}

/// The `O0` cycle counts of the whole suite for one (personality,
/// workload): the denominator of every speedup.
pub struct SpecBaseline {
    personality: Personality,
    workload: Workload,
    /// (benchmark, O0 cycles), in suite order.
    o0: Vec<(Benchmark, f64)>,
}

impl SpecBaseline {
    /// Compiles and runs every benchmark at `O0`.
    pub fn new(personality: Personality, workload: Workload) -> Self {
        let options = CompileOptions::new(personality, OptLevel::O0);
        let o0 = spec_suite()
            .into_iter()
            .map(|b| {
                let obj = compile_source(b.source, &options).expect("O0 build");
                let cycles = run_cycles(&obj, &b, workload) as f64;
                (b, cycles)
            })
            .collect();
        SpecBaseline {
            personality,
            workload,
            o0,
        }
    }

    /// Measures the speedup over `O0` of a (level, gate) configuration
    /// on the full benchmark suite.
    pub fn measure(&self, level: OptLevel, gate: &PassGate) -> PerfReport {
        let mut opts = CompileOptions::new(self.personality, level);
        opts.gate = gate.clone();
        let mut per_benchmark = Vec::new();
        let mut log_sum = 0.0;
        for (b, o0) in &self.o0 {
            let obj = compile_source(b.source, &opts).expect("config build");
            let cycles = run_cycles(&obj, b, self.workload) as f64;
            let speedup = o0 / cycles.max(1.0);
            log_sum += speedup.ln();
            per_benchmark.push((b.name.to_string(), speedup));
        }
        PerfReport {
            speedup: (log_sum / per_benchmark.len() as f64).exp(),
            per_benchmark,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn o2_beats_o0_on_every_benchmark() {
        let baseline = SpecBaseline::new(Personality::Gcc, Workload::Test);
        let report = baseline.measure(OptLevel::O2, &PassGate::allow_all());
        assert_eq!(report.per_benchmark.len(), 8);
        for (name, speedup) in &report.per_benchmark {
            assert!(*speedup > 1.0, "{name}: speedup {speedup}");
        }
        assert!(report.speedup > 1.3, "aggregate {}", report.speedup);
    }

    #[test]
    fn disabling_passes_costs_performance() {
        let baseline = SpecBaseline::new(Personality::Clang, Workload::Test);
        let full = baseline.measure(OptLevel::O2, &PassGate::allow_all());
        let gutted = baseline.measure(
            OptLevel::O2,
            &PassGate::disabling(["SROA", "Inliner", "LICM", "GVN", "EarlyCSE"]),
        );
        assert!(
            gutted.speedup < full.speedup,
            "gutted {} vs full {}",
            gutted.speedup,
            full.speedup
        );
    }

    /// The shared baseline must give, bit for bit, the speedups of
    /// compiling and running `O0` next to each configuration.
    #[test]
    fn shared_baseline_matches_inline_measurement() {
        let vm = VmConfig {
            max_steps: 2_000_000_000,
            ..VmConfig::default()
        };
        let cycles = |obj: &dt_machine::Object, b: &Benchmark| {
            let iters = b.iterations(Workload::Test);
            Vm::run_to_completion(obj, b.entry, &[iters], &[], vm.clone())
                .unwrap()
                .cycles as f64
        };
        for (personality, gated_pass) in [
            (Personality::Gcc, "tree-loop-optimize"),
            (Personality::Clang, "LICM"),
        ] {
            let baseline = SpecBaseline::new(personality, Workload::Test);
            for gate in [PassGate::allow_all(), PassGate::disabling([gated_pass])] {
                let report = baseline.measure(OptLevel::O2, &gate);
                let mut opts = CompileOptions::new(personality, OptLevel::O2);
                opts.gate = gate.clone();
                let o0_opts = CompileOptions::new(personality, OptLevel::O0);
                let mut log_sum = 0.0;
                for (b, (name, speedup)) in spec_suite().iter().zip(&report.per_benchmark) {
                    let o0 = cycles(&compile_source(b.source, &o0_opts).unwrap(), b);
                    let config = cycles(&compile_source(b.source, &opts).unwrap(), b);
                    let expected = o0 / config.max(1.0);
                    assert_eq!(name, b.name);
                    assert_eq!(speedup.to_bits(), expected.to_bits(), "{name} {gate:?}");
                    log_sum += expected.ln();
                }
                let geomean = (log_sum / spec_suite().len() as f64).exp();
                assert_eq!(report.speedup.to_bits(), geomean.to_bits(), "{gate:?}");
            }
        }
    }
}
