//! The metric registry, sample statistics and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. A run's output is checked against the registry before it is
//! printed, so a workload that forgets a metric fails instead of printing a
//! partial result; `test_bench.py` checks the names and units, and the
//! printed results, against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("violation_rate", "frac"),
    ("energy_uj_per_event", "uJ"),
    ("pes_energy_norm", "frac"),
    ("pes_vs_ebs_energy", "frac"),
    ("pes_vs_interactive_violations", "frac"),
];

/// Timings reported as a distribution: each expands to `.p50`, `.tail`
/// (the highest percentile with at least ten samples beyond it),
/// `.tail_pct` (which percentile that is) and `.n` (the sample count).
pub const TIMINGS: &[&str] = &[
    "workload.trace_gen_us",
    "core.replay_us",
    "core.publish_us",
    "schedulers.interactive_us",
    "schedulers.ondemand_us",
    "schedulers.ebs_us",
    "core.pes_unit_us",
    "core.oracle_unit_us",
    "dom.observe_us",
    "predictor.round_us",
];

/// Per-layer scalars: printed by every workload with `--trace 1`, next to
/// the expanded [`TIMINGS`].
pub const LAYER_SCALARS: &[(&str, &str)] = &[
    ("sim.training_s", "s"),
    ("sim.scenarios_s", "s"),
    ("sim.driver_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("ilp.nodes_per_event", "nodes/event"),
    ("ilp.pes_nodes_per_event", "nodes/event"),
    ("ilp.oracle_nodes_per_event", "nodes/event"),
    ("core.ring_hit_rate", "frac"),
    ("core.shared_hit_rate", "frac"),
    ("predictor.accuracy", "frac"),
    ("webrt.waste_energy_frac", "frac"),
];

/// Every per-layer metric with its unit, timings expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_SCALARS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for t in TIMINGS {
        out.push((format!("{t}.p50"), "us"));
        out.push((format!("{t}.tail"), "us"));
        out.push((format!("{t}.tail_pct"), "%"));
        out.push((format!("{t}.n"), "count"));
    }
    out
}

/// A set of timing samples (or any other observations).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `p` (in percent) of the samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest of p99.9, p99, p95, p90 and p75 that leaves at least
    /// ten samples beyond it (p50 when none does), as `(percent, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            if n >= rank + 10 {
                return (p, self.percentile(p));
            }
        }
        (50.0, self.median())
    }
}

/// The metrics of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Records a timing distribution under the four names of [`TIMINGS`].
    pub fn timing(&mut self, name: &str, samples: &Samples) {
        let (pct, tail) = samples.tail();
        self.set(&format!("{name}.p50"), "us", samples.median());
        self.set(&format!("{name}.tail"), "us", tail);
        self.set(&format!("{name}.tail_pct"), "%", pct);
        self.set(&format!("{name}.n"), "count", samples.len() as f64);
    }

    /// Checks that the run reported exactly the `expected` metrics with
    /// their registered units and finite values.
    pub fn check_against(&self, expected: &[(String, &'static str)]) -> Result<(), String> {
        if self.0.len() != expected.len() {
            let have: Vec<&String> = self.0.keys().collect();
            return Err(format!(
                "reported {} metrics, registry has {}: {have:?}",
                self.0.len(),
                expected.len()
            ));
        }
        for (name, unit) in expected {
            match self.0.get(name) {
                None => return Err(format!("metric {name} was not reported")),
                Some((_, u)) if u != unit => {
                    return Err(format!(
                        "metric {name} reported in {u}, registry says {unit}"
                    ))
                }
                Some((v, _)) if !v.is_finite() => {
                    return Err(format!("metric {name} is not finite: {v}"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The human-readable `name value unit` table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.0 {
            let _ = writeln!(out, "  {name:<40} {value:>16.6} {unit}");
        }
        out
    }

    /// The `"metrics"` JSON object. `{}` on an `f64` prints the shortest
    /// decimal that round-trips, so every measured digit is kept.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite `f64` as a JSON number (integral values keep a `.0`).
pub fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Median of a run's observations (set-up times, untraced walls).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// The least of a run's observations (set-up builds).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when nothing was observed.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.tail(), (99.0, 990.0));
        assert_eq!(s.median(), 500.0);
        let mut small = Samples::default();
        for v in 1..=15 {
            small.push(v as f64);
        }
        assert_eq!(small.tail(), (50.0, 8.0), "too few samples for any tail");
    }

    #[test]
    fn a_run_must_report_exactly_the_registry() {
        let expected: Vec<(String, &'static str)> = vec![("a".into(), "s"), ("b".into(), "us")];
        let mut m = Metrics::default();
        m.set("a", "s", 1.0);
        assert!(m.check_against(&expected).is_err(), "missing metric");
        m.set("b", "s", 2.0);
        assert!(m.check_against(&expected).is_err(), "wrong unit");
        m.set("b", "us", f64::NAN);
        assert!(m.check_against(&expected).is_err(), "not finite");
        m.set("b", "us", 2.0);
        assert!(m.check_against(&expected).is_ok());
        assert_eq!(
            m.json(),
            r#"{"a": {"value": 1.0, "unit": "s"}, "b": {"value": 2.0, "unit": "us"}}"#
        );
    }
}
