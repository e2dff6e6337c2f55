//! What one invocation reports: its metrics, the gate, and the last
//! line of standard output: one JSON object that tools read.

use crate::gate::Gate;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports on its result
/// line, with their units: host measurements, gated against the parent
/// commit. The simulated metrics are printed on the lines above it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pkts_per_s", "1/s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("topology.build_s", "s"),
    ("topology.route_s", "s"),
    ("topology.flatten_s", "s"),
    ("topology.partition_s", "s"),
    ("topology.route_entries", "count"),
    ("topology.route_rss_mb", "MB"),
    ("netsim.new_self_s", "s"),
    ("netsim.add_flow_s", "s"),
    ("netsim.run_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("netsim.events_per_pkt", "ratio"),
    ("netsim.forwarded", "count"),
    ("netsim.cut_through", "count"),
    ("netsim.store_forward", "count"),
    ("shard.busy_s", "s"),
    ("shard.busy_max_s", "s"),
    ("shard.coordinator_s", "s"),
    ("shard.unattributed_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.tax", "ratio"),
    ("pool.speedup_2w", "ratio"),
    ("workload.gen_s", "s"),
    ("workload.flows", "count"),
    ("report.summary_s", "s"),
    ("report.fct_s", "s"),
    ("obs.recorded_events", "count"),
    ("obs.record_overhead", "ratio"),
    ("host.wall_s", "s"),
    ("host.runq_wait_s", "s"),
    ("trace.overhead", "ratio"),
];

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// `(name, value)` of every metric; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (packets generated, or flows offered).
    pub attempted: u64,
    /// Operations that failed (packets dropped, or flows unfinished).
    pub failed: u64,
    /// Every correctness check made.
    pub gate: Gate,
}

impl Outcome {
    /// Records a metric, which must be one of [`END_TO_END`] or
    /// [`PER_LAYER`] and finite; an end-to-end metric must also be
    /// positive (a time read as 0 was never measured).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let known = unit_of(name).is_some();
        let positive = value > 0.0 || !END_TO_END.iter().any(|m| m.0 == name);
        self.gate.check(known && value.is_finite() && positive, || {
            format!("metric {name} = {value} is unknown, not finite, or not positive")
        });
        self.metrics.push((name, value));
    }

    /// Checks that exactly the metrics of `table` were recorded, each once.
    pub fn check_complete(&mut self, table: &[(&str, &str)]) {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = table.iter().map(|m| m.0).collect();
        want.sort_unstable();
        self.gate.check(names == want, || {
            format!("metrics recorded {names:?}, expected {want:?}")
        });
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values are printed with every digit
    /// Rust's shortest round-trip formatting gives.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate.passed(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(name).unwrap_or("");
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.metric("setup_s", 0.25);
        o.metric("pkts_per_s", 1.5e6);
        o.attempted = 10;
        let j = o.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"pkts_per_s\": {\"value\": 1500000.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn unknown_or_missing_metrics_fail_the_gate() {
        let mut o = Outcome::default();
        o.metric("nonsense", 1.0);
        assert!(!o.gate.passed());
        let mut o = Outcome::default();
        o.metric("report_s", 0.0);
        assert!(
            !o.gate.passed(),
            "an end-to-end time of 0 was never measured"
        );
        let mut o = Outcome::default();
        o.metric("setup_s", 1.0);
        o.check_complete(&END_TO_END);
        assert!(!o.gate.passed());
        assert!(o.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(names.contains(name), "{name} missing from BENCHMARK.json");
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit in BENCHMARK.json"
            );
        }
        let workloads = crate::workloads::ALL.len();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
