//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and direction; `BENCHMARK.json` must list the same names and
//! units (the `contract` test enforces it). A run prints the end-to-end
//! set with `--trace 0` and the per-layer set with `--trace 1`, every
//! metric on every workload: a layer a workload never exercises reports
//! 0 work (see README.md for which layer feeds which end-to-end metric).

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, defined on every workload and never 0.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("compile_ms", "ms", Lower),
    m("run_ms", "ms", Lower),
    m("host_time_ratio", "ratio", Lower),
    m("vtime_ratio", "ratio", Lower),
    m("heap_ratio", "ratio", Lower),
    m("free_ratio", "ratio", Higher),
];

/// Single-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("syntax.parse_ms", "ms", Lower),
    m("syntax.resolve_ms", "ms", Lower),
    m("syntax.typecheck_ms", "ms", Lower),
    m("syntax.src_bytes", "bytes", Lower),
    m("syntax.parse_mb_per_s", "MB/s", Higher),
    m("analysis.analyze_ms", "ms", Lower),
    m("analysis.solve_walks", "count", Lower),
    m("analysis.solve_relaxations", "count", Lower),
    m("analysis.to_free", "count", Higher),
    m("analysis.liveness_ms", "ms", Lower),
    m("analysis.instrument_ms", "ms", Lower),
    m("analysis.audit_ms", "ms", Lower),
    m("analysis.audit_proved_ratio", "ratio", Higher),
    m("analysis.lastuse_advanced", "count", Higher),
    m("vm.lower_ms", "ms", Lower),
    m("vm.optimize_ms", "ms", Lower),
    m("vm.instrs_lowered", "count", Lower),
    m("vm.instrs_optimized", "count", Lower),
    m("vm.exec_ms", "ms", Lower),
    m("vm.steps", "count", Lower),
    m("vm.ns_per_step", "ns", Lower),
    m("vm.ic_hit_ratio", "ratio", Higher),
    m("runtime.allocs", "count", Lower),
    m("runtime.alloc_bytes", "bytes", Lower),
    m("runtime.tcfree_attempts", "count", Higher),
    m("runtime.tcfree_ok_ratio", "ratio", Higher),
    m("runtime.tcfree_bails.gc_running", "count", Lower),
    m("runtime.tcfree_bails.ownership_changed", "count", Lower),
    m("runtime.tcfree_bails.already_free", "count", Lower),
    m("runtime.tcfree_bails.span_swapped_out", "count", Lower),
    m("runtime.gcs", "count", Lower),
    m("runtime.gc_count_ratio", "ratio", Lower),
    m("runtime.gc_time_ratio", "ratio", Lower),
    m("runtime.gc_vt_share", "ratio", Lower),
    m("runtime.gc_host_ms", "ms", Lower),
    m("runtime.alloc_ns", "ns", Lower),
    m("runtime.tcfree_ns", "ns", Lower),
    m("runtime.collect_ns_per_obj", "ns", Lower),
    m("service.lat_p50_vt", "ticks", Lower),
    m("service.lat_p99_vt", "ticks", Lower),
    m("service.lat_p999_vt", "ticks", Lower),
    m("service.host_rps", "1/s", Higher),
    m("service.utilization", "ratio", Lower),
    m("service.queue_p99_vt", "ticks", Lower),
    m("service.pause_max_vt", "ticks", Lower),
    m("service.gcs", "count", Lower),
    m("service.heap_hwm_bytes", "bytes", Lower),
    m("service.handle_us_p50", "us", Lower),
    m("service.handle_us_p99", "us", Lower),
    m("service.harness_overhead_ratio", "ratio", Lower),
    m("core.pipeline_overhead_ms", "ms", Lower),
    m("core.error_rate", "ratio", Lower),
    m("trace.events", "count", Lower),
    m("trace.reconciled", "bool", Higher),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name`; a metric is set once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the result line: `set` must hold every metric of
    /// `declared` and nothing else, each finite.
    ///
    /// # Errors
    ///
    /// Names a missing, undeclared or non-finite metric.
    pub fn result_line(
        &self,
        declared: &[Metric],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !declared.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut body = Vec::with_capacity(declared.len());
        for d in declared {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("_x") && !valid_name("a b") && valid_name("a.b-c_9"));
    }

    #[test]
    fn result_line_demands_every_declared_metric() {
        let decl = [m("a", "ms", Lower), m("b", "count", Higher)];
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(v.result_line(&decl, true, 1, 0).is_err());
        v.set("b", 2.0);
        let line = v.result_line(&decl, true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        v.set("c", 0.0);
        assert!(v.result_line(&decl, true, 3, 0).is_err());
    }
}
