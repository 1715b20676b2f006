//! Every metric the benchmark reports, by name, and the report of one run.
//!
//! The tables here are what `BENCHMARK.json` lists (a unit test keeps the two
//! in step).  End-to-end metrics are what a user of the system sees and are
//! always taken from an untraced run; per-layer metrics come from the traced
//! run and have no regression bound.  `README.md` has the glossary.

use crate::json::quote;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// (name, unit, better direction).
pub type MetricDef = (&'static str, &'static str, Better);

pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("tune_cold_s", "s", Lower),
    ("spmv_large_ns_per_nnz", "ns", Lower),
    ("spmv_small_us", "us", Lower),
    ("spmv_speedup_vs_best_baseline", "x", Higher),
    ("warm_tune_ms_p50", "ms", Lower),
    ("remote_spmv_us_p50", "us", Lower),
    ("mixed_spmv_us_p50", "us", Lower),
];

pub const PER_LAYER: &[MetricDef] = &[
    // Demoted from the end-to-end list by the issue's rule (a metric whose
    // spread between runs of one commit no usable bound covers): native
    // winners change shape between runs; a tail percentile of a closed loop on
    // two shared vCPUs has outlier runs (1.7 ms against 3.2 ms); and the
    // writer's rate follows the seed (the stored winners that warm-start its
    // tunes), 4.3 against 5.4 tunes per second.
    ("tuned_ns_per_nnz", "ns", Lower),
    ("remote_spmv_us_p90", "us", Lower),
    ("mixed_tune_per_s", "1/s", Higher),
    ("search.iterations", "count", Lower),
    ("search.structures_enumerated", "count", Lower),
    ("search.structures_pruned", "count", Higher),
    ("search.prune_ratio", "ratio", Higher),
    ("search.cache_hit_rate", "ratio", Higher),
    ("search.ms_per_candidate", "ms", Lower),
    ("graph.design_ms", "ms", Lower),
    ("codegen.generate_ms", "ms", Lower),
    ("cpu.lower_ms", "ms", Lower),
    ("cpu.measure_ms", "ms", Lower),
    ("search.attributed_share", "ratio", Higher),
    ("search.residual_share", "ratio", Lower),
    ("codegen.format_bytes_per_nnz", "bytes", Lower),
    ("cpu.bytes_per_nnz", "bytes", Lower),
    ("cpu.effective_gbps", "GB/s", Higher),
    ("cpu.stream_triad_gbps", "GB/s", Higher),
    ("cpu.bw_fraction", "ratio", Higher),
    ("cpu.preset.csr_scalar.ns_per_nnz", "ns", Lower),
    ("cpu.preset.csr_vector.ns_per_nnz", "ns", Lower),
    ("cpu.preset.sell_like.ns_per_nnz", "ns", Lower),
    ("cpu.preset.csr5_like.ns_per_nnz", "ns", Lower),
    ("cpu.preset.row_grouped_csr_like.ns_per_nnz", "ns", Lower),
    ("cpu.preset.csr_adaptive_like.ns_per_nnz", "ns", Lower),
    ("cpu.large_1t_ns_per_nnz", "ns", Lower),
    ("cpu.thread_scaling", "x", Higher),
    ("cpu.small_1t_us", "us", Lower),
    ("cpu.specialized_share", "ratio", Higher),
    ("cpu.max_scaled_error", "ratio", Lower),
    ("parallel.dispatch_us", "us", Lower),
    ("telemetry.kernel_overhead_pct", "%", Lower),
    ("baselines.csr_scalar.ns_per_nnz", "ns", Lower),
    ("baselines.ell.ns_per_nnz", "ns", Lower),
    ("baselines.hyb.ns_per_nnz", "ns", Lower),
    ("baselines.merge.ns_per_nnz", "ns", Lower),
    ("net.encode_spmv_request_us", "us", Lower),
    ("net.decode_spmv_request_us", "us", Lower),
    ("net.encode_spmv_response_us", "us", Lower),
    ("net.decode_spmv_response_us", "us", Lower),
    ("net.encode_submit_us", "us", Lower),
    ("net.decode_submit_us", "us", Lower),
    ("net.spmv_frame_bytes", "bytes", Lower),
    ("net.submit_frame_bytes", "bytes", Lower),
    ("cpu.local_spmv_us", "us", Lower),
    ("net.spmv_wire_overhead_us", "us", Lower),
    ("net.server_spmv_exec_us_p50", "us", Lower),
    ("net.remote_spmv_us_p99", "us", Lower),
    ("serve.warm_tune_inproc_ms", "ms", Lower),
    ("net.warm_tune_overhead_ms", "ms", Lower),
    ("net.tune_queue_wait_ms_p50", "ms", Lower),
    ("net.tune_exec_ms_p50", "ms", Lower),
    ("net.warm_tune_ms_first64", "ms", Lower),
    ("net.warm_tune_ms_last64", "ms", Lower),
    ("serve.store_open_ms", "ms", Lower),
    ("serve.cache_for_memory_us", "us", Lower),
    ("serve.cache_for_disk_ms", "ms", Lower),
    ("serve.persist_ms", "ms", Lower),
    ("serve.winners_ms", "ms", Lower),
    ("search.acds_encode_ms", "ms", Lower),
    ("search.acds_decode_ms", "ms", Lower),
    ("search.acds_bytes", "bytes", Lower),
    ("serve.store_memory_hits", "count", Higher),
    ("serve.store_disk_loads", "count", Lower),
    ("serve.store_hit_ratio", "ratio", Higher),
    ("net.jobs_resident", "count", Lower),
    ("net.rss_mb_per_job", "MB", Lower),
    ("net.busy_retries", "count", Lower),
    ("net.failed_ops", "count", Lower),
    ("net.cold_tune_ms_p50", "ms", Lower),
    ("net.cold_tune_queue_wait_ms_p50", "ms", Lower),
    ("net.cold_tune_exec_ms_p50", "ms", Lower),
    ("search.fresh_evaluations_per_tune", "count", Lower),
    ("serve.warm_started_share", "ratio", Higher),
    ("serve.store_bytes", "bytes", Lower),
    ("net.idle_spmv_us_p50", "us", Lower),
    ("net.mixed_spmv_slowdown", "x", Lower),
    ("net.mixed_spmv_us_p90", "us", Lower),
    ("matrix.generate_ms", "ms", Lower),
    ("matrix.stats_ms", "ms", Lower),
    ("search.sim_tune_s", "s", Lower),
    ("trace.overhead_pct", "%", Lower),
];

/// The metrics of one run, keyed by name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Lines printed with the metrics: host facts, winner shapes, notes.
    pub notes: Vec<String>,
    /// `kernel_shape()` of each `spmv_local` winner, in fleet order.
    pub winner_shapes: Vec<String>,
}

fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.0 == name)
        .copied()
}

impl Report {
    /// Records a metric.  Panics on a name missing from the tables — a typo
    /// in the benchmark, caught by the smoke test.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, ..) = lookup(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The names in `section` that were not recorded or are not finite.
    pub fn missing(&self, section: &[MetricDef]) -> Vec<&'static str> {
        section
            .iter()
            .filter(|def| !self.get(def.0).is_some_and(f64::is_finite))
            .map(|def| def.0)
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for the metrics of
    /// `section`, in table order.  Values keep all their digits.
    pub fn metrics_json(&self, section: &[MetricDef]) -> String {
        let fields: Vec<String> = section
            .iter()
            .filter_map(|&(name, unit, _)| {
                let value = self.get(name)?;
                Some(format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                ))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One `name value unit` line per recorded metric of `section`.
    pub fn lines(&self, section: &[MetricDef]) -> Vec<String> {
        section
            .iter()
            .filter_map(|&(name, unit, _)| {
                Some(format!("{name:<44} {:>16.6} {unit}", self.get(name)?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let expected: Vec<_> = table
                .iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.name().to_string()))
                .collect();
            assert_eq!(listed(&doc, key), expected, "{key} differs from metrics.rs");
        }
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let names: Vec<_> = crate::scale::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::scale::REFERENCE_SECONDS as f64)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.0).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn report_emits_sections_and_names_missing_metrics() {
        let mut report = Report::default();
        report.set("setup_s", 1.25);
        report.set("search.iterations", 80.0);
        report.set("peak_rss_mb", f64::NAN);
        let json = report.metrics_json(END_TO_END);
        assert!(json.starts_with("{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!json.contains("search.iterations"));
        let missing = report.missing(END_TO_END);
        assert!(missing.contains(&"peak_rss_mb") && missing.contains(&"tune_cold_s"));
        assert!(!missing.contains(&"setup_s"));
        assert_eq!(report.lines(PER_LAYER).len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_names_are_rejected() {
        Report::default().set("tune_cold_secs", 1.0);
    }
}
