//! Metric names, units and the result line the benchmark prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`; a test keeps them in step with that file.

use std::collections::BTreeMap;

/// End-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("latency_ps", "ps"),
    ("skew_ps", "ps"),
    ("wirelength_mm", "mm"),
    ("buffers", "count"),
    ("ntsvs", "count"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not drive reports zero there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.gen_ms", "ms"),
    ("cluster.busy_ms", "ms"),
    ("cluster.share", "ratio"),
    ("route.busy_ms", "ms"),
    ("route.self_ms", "ms"),
    ("route.stars", "count"),
    ("route.trunk_nodes", "count"),
    ("dp.busy_ms", "ms"),
    ("dp.calls", "count"),
    ("dp.stored_candidates", "count"),
    ("opt.busy_ms", "ms"),
    ("opt.trials", "count"),
    ("opt.accept_ratio", "ratio"),
    ("eval.busy_ms", "ms"),
    ("eval.calls", "count"),
    ("mcmm.busy_ms", "ms"),
    ("mcmm.infeasible", "count"),
    ("dse.busy_ms", "ms"),
    ("dse.classes", "count"),
    ("dse.thresholds_per_class", "count"),
    ("dse.ms_per_class", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p90", "ms"),
    ("service.exec_ms_p50.score", "ms"),
    ("service.exec_ms_p50.sweep", "ms"),
    ("service.exec_ms_p50.sizing", "ms"),
    ("service.exec_ms_p50.signoff", "ms"),
    ("service.retries", "count"),
    ("service.rejected", "count"),
    ("service.busy_frac", "ratio"),
    ("service.register_ms", "ms"),
    ("trace.op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Collected metric values by name; names outside the tables are a bug.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `table`, in table
    /// order, with zero for any layer metric the run did not set.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Prints each metric of `table` as a `name value unit` line.
    pub fn print_table(&self, table: &[(&str, &str)]) {
        for (name, unit) in table {
            let v = self.0.get(name).copied().unwrap_or(0.0);
            println!("  {name:<30} {:>16} {unit}", num(v));
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite number in JSON form, with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// The result object the benchmark prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    traced: bool,
) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json(table)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dscts_telemetry::{parse_json, Json};
    use std::path::Path;

    fn manifest_metrics(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the bench");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_names_and_units_match_benchmark_json() {
        assert_eq!(manifest_metrics("end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_metrics("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_mode() {
        let mut m = Metrics::default();
        m.set("ops_per_s", 7.25);
        for traced in [false, true] {
            let line = result_line(true, 3, 0, &m, traced);
            let doc = parse_json(&line).unwrap();
            let metrics = doc.get("metrics").unwrap();
            let table = if traced { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let entry = metrics.get(name).unwrap();
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        }
    }
}
