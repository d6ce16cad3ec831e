//! The metric catalogue, the result types passes hand back, and the
//! derived metrics that need more than one pass.

use std::collections::BTreeMap;

use crate::json::Json;

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub n: Option<usize>,
    /// The percentile actually reported, where the name asks for one: the
    /// highest with at least ten samples beyond it, capped by the name.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(value: f64, unit: &'static str) -> Self {
        Metric {
            value,
            unit,
            n: None,
            percentile: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::Str(self.unit.to_string())),
        ];
        if let Some(n) = self.n {
            fields.push(("n".to_string(), Json::Num(n as f64)));
        }
        if let Some(p) = self.percentile {
            fields.push(("percentile".to_string(), Json::Num(p)));
        }
        Json::Obj(fields)
    }

    /// `name value unit [n=N] [pP]`: how the command prints a metric and
    /// how a child process hands one back. `{}` keeps every digit.
    pub fn line(&self, name: &str) -> String {
        let mut line = format!("{name} {} {}", self.value, self.unit);
        if let Some(n) = self.n.filter(|n| *n > 0) {
            line.push_str(&format!(" n={n}"));
        }
        if let Some(p) = self.percentile {
            line.push_str(&format!(" p{p}"));
        }
        line
    }

    /// Reads back what [`Metric::line`] wrote.
    fn parse_line(line: &str) -> Option<(String, Metric)> {
        let mut fields = line.split_whitespace();
        let name = fields.next()?.to_string();
        let mut m = Metric::new(fields.next()?.parse().ok()?, unit_of(fields.next()?)?);
        for extra in fields {
            if let Some(n) = extra.strip_prefix("n=") {
                m.n = Some(n.parse().ok()?);
            } else {
                m.percentile = Some(extra.strip_prefix('p')?.parse().ok()?);
            }
        }
        Some((name, m))
    }
}

/// Every unit a metric is reported in.
const UNITS: [&str; 9] = [
    "s", "ms", "us", "1/s", "MB", "count", "bytes", "share", "1/kop",
];

fn unit_of(s: &str) -> Option<&'static str> {
    UNITS.into_iter().find(|u| *u == s)
}

pub type Metrics = BTreeMap<String, Metric>;

/// What one pass of one workload hands back to the parent process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassOutput {
    pub metrics: Metrics,
    /// Operations submitted, timed and verification ones.
    pub attempted: u64,
    /// Unanswered after ten seconds, or strict and answered with a value
    /// the single-writer model forbids.
    pub failed: u64,
    /// Failed correctness checks, in words.
    pub errors: Vec<String>,
}

impl PassOutput {
    pub fn put(&mut self, name: &str, m: Metric) {
        self.metrics.insert(name.to_string(), m);
    }

    /// The result as the lines a child process prints: `metric …` as
    /// [`Metric::line`] writes it, `attempted N`, `failed N`, `error …`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            out.push_str(&format!("metric {}\n", m.line(name)));
        }
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        for e in &self.errors {
            out.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        out
    }

    /// Reads back what [`PassOutput::to_lines`] wrote; `None` at a line it
    /// did not write or where a count is missing.
    pub fn from_lines(text: &str) -> Option<PassOutput> {
        let mut out = PassOutput::default();
        let (mut attempted, mut failed) = (None, None);
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ')?;
            match kind {
                "metric" => {
                    let (name, m) = Metric::parse_line(rest)?;
                    out.metrics.insert(name, m);
                }
                "attempted" => attempted = rest.parse().ok(),
                "failed" => failed = rest.parse().ok(),
                "error" => out.errors.push(rest.to_string()),
                _ => return None,
            }
        }
        out.attempted = attempted?;
        out.failed = failed?;
        Some(out)
    }
}

/// Whether a larger or a smaller value is the better one.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the service sees, each with the
/// share of the parent's median by which it may worsen. Every workload
/// reports every one, from the measured pass alone, and none is ever 0:
/// the benchmark driver asks for both. `BENCHMARK.json` carries the same
/// list.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Lower, 0.25),
    ("ops_per_s", "1/s", Higher, 0.25),
    ("last_decile_ops_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, prefixed by the module they measure. A layer a
/// workload does not exercise reports 0. `diag.*` are end-to-end figures
/// that not every workload has (the driver wants every end-to-end metric
/// from every workload) or that vary too much run to run to carry a
/// regression bound. README.md says which end-to-end metric each layer
/// metric should move, and where.
pub const PER_LAYER: [(&str, &str, Better); 63] = [
    // alg — replay spans and `Replica::stats`.
    ("alg.on_request_us", "us", Lower),
    ("alg.on_request_us_first_decile", "us", Lower),
    ("alg.on_request_us_last_decile", "us", Lower),
    ("alg.front_end_us", "us", Lower),
    ("alg.poll_gossip_us", "us", Lower),
    ("alg.on_gossip_us", "us", Lower),
    ("alg.applies_per_response", "count", Lower),
    ("alg.memo_applies_per_op", "count", Lower),
    ("alg.gossip_msgs_per_op", "count", Lower),
    ("alg.gossip_rounds_per_strict", "count", Lower),
    ("alg.retained_descriptors_end", "count", Lower),
    // wire.codec — replay spans and frame sizes.
    ("wire.codec.request_us", "us", Lower),
    ("wire.codec.response_us", "us", Lower),
    ("wire.codec.gossip_encode_us", "us", Lower),
    ("wire.codec.gossip_decode_us", "us", Lower),
    ("wire.codec.gossip_decode_us_first_decile", "us", Lower),
    ("wire.codec.gossip_decode_us_last_decile", "us", Lower),
    ("wire.codec.request_bytes", "bytes", Lower),
    ("wire.codec.response_bytes", "bytes", Lower),
    ("wire.codec.gossip_bytes_per_op", "bytes", Lower),
    (
        "wire.codec.gossip_bytes_per_op_first_decile",
        "bytes",
        Lower,
    ),
    ("wire.codec.gossip_bytes_per_op_last_decile", "bytes", Lower),
    // store — replay spans over `FileStorage`, then the counted pass.
    ("store.persist_us", "us", Lower),
    ("store.checkpoint_us_max", "us", Lower),
    ("store.persist_calls_per_op", "count", Lower),
    ("store.syncs_per_op", "count", Lower),
    ("store.wal_records_per_op", "count", Lower),
    ("store.wal_bytes_per_op", "bytes", Lower),
    ("store.snapshots", "count", Lower),
    ("store.disk_bytes_per_op", "bytes", Lower),
    ("store.open_ms", "ms", Lower),
    ("store.sync_us_p50", "us", Lower),
    ("store.sync_us_p99", "us", Lower),
    ("store.driver_syncs_per_op", "count", Lower),
    // wire.tcp — counted pass.
    ("wire.tcp.submit_us", "us", Lower),
    ("wire.tcp.await_us", "us", Lower),
    ("wire.tcp.gossip_msgs_per_op", "count", Lower),
    ("wire.tcp.gossip_bytes_per_op", "bytes", Lower),
    ("wire.tcp.resends_per_kop", "1/kop", Lower),
    ("wire.tcp.unstable_window_end", "count", Lower),
    ("wire.tcp.threads", "count", Lower),
    // wire.sharded and core.shard — replay spans, then the counted pass.
    ("core.shard.route_us", "us", Lower),
    ("core.shard.merge_gathered_us", "us", Lower),
    ("wire.sharded.await_us_p50", "us", Lower),
    ("wire.sharded.nak_reroutes", "count", Lower),
    ("wire.sharded.slow_keyed_share", "share", Lower),
    // spec — the replay's streaming audit.
    ("spec.audit_us_per_op", "us", Lower),
    ("spec.audit_peak_resident", "count", Lower),
    // obs — counted pass against measured pass.
    ("obs.overhead_share", "share", Lower),
    // budget — replay spans reconciled with the measured latency.
    ("budget.critical_path_us", "us", Lower),
    ("budget.transport_wait_us", "us", Lower),
    ("budget.replay_cpu_us_per_op", "us", Lower),
    // diag — measured pass.
    ("diag.nonstrict_mean_ms", "ms", Lower),
    ("diag.nonstrict_p50_ms", "ms", Lower),
    ("diag.nonstrict_p90_ms", "ms", Lower),
    ("diag.nonstrict_p99_ms", "ms", Lower),
    ("diag.strict_p50_ms", "ms", Lower),
    ("diag.strict_p99_ms", "ms", Lower),
    ("diag.gather_p50_ms", "ms", Lower),
    ("diag.gather_p95_ms", "ms", Lower),
    ("diag.recovery_s", "s", Lower),
    ("diag.failed_share", "share", Lower),
    ("diag.timed_s", "s", Lower),
];

/// The three passes of one workload, merged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Every count of the replay pass, for the repeat check.
    pub replay_counts: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// Every check passed; a run that attempted nothing checked nothing.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.errors.is_empty()
    }

    /// Files the measured pass: every end-to-end metric, and `diag.*`.
    pub fn add_measured(&mut self, pass: PassOutput) {
        for (name, unit, ..) in END_TO_END {
            match pass.metrics.get(name) {
                Some(m) => {
                    self.end_to_end.insert(name.to_string(), m.clone());
                }
                None => self
                    .errors
                    .push(format!("measured pass has no {name} ({unit})")),
            }
        }
        self.absorb(pass);
    }

    /// Files a counted or replay pass and whatever it derives.
    pub fn add_traced(&mut self, pass: PassOutput) {
        self.absorb(pass);
        let measured_ops = self.end_to_end.get("ops_per_s").map_or(0.0, |m| m.value);
        if let Some(counted) = self.per_layer.remove("raw.counted_ops_per_s") {
            if measured_ops > 0.0 {
                self.per_layer.insert(
                    "obs.overhead_share".into(),
                    Metric::new(1.0 - counted.value / measured_ops, "share"),
                );
            }
        }
        let (Some(path), Some(mean)) = (
            self.per_layer.get("budget.critical_path_us"),
            self.per_layer.get("diag.nonstrict_mean_ms"),
        ) else {
            return;
        };
        let wait = mean.value * 1e3 - path.value;
        self.per_layer
            .insert("budget.transport_wait_us".into(), Metric::new(wait, "us"));
    }

    fn absorb(&mut self, pass: PassOutput) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.errors.extend(pass.errors);
        for (name, m) in pass.metrics {
            if let Some(count) = name.strip_prefix("count.") {
                self.replay_counts.push((count.to_string(), m.value));
            } else if !END_TO_END.iter().any(|(e, ..)| *e == name) {
                self.per_layer.insert(name, m);
            }
        }
    }

    /// Per-layer metrics in catalogue order; a layer the workload does not
    /// exercise reads 0.
    pub fn per_layer_complete(&self) -> Vec<(&'static str, Metric)> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let m = self
                    .per_layer
                    .get(*name)
                    .cloned()
                    .unwrap_or_else(|| Metric::new(0.0, unit));
                (*name, m)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_output_round_trips_through_its_lines() {
        let mut out = PassOutput {
            attempted: 8064,
            failed: 1,
            errors: vec!["replica 1 disagrees at \"k0001\"".into(), "second".into()],
            ..PassOutput::default()
        };
        out.put("ops_per_s", Metric::new(1234.5678, "1/s").with_n(8000));
        let mut tail = Metric::new(0.75, "ms").with_n(640);
        tail.percentile = Some(95.0);
        out.put("diag.strict_p99_ms", tail);
        out.put("peak_rss_mb", Metric::new(22.9140625, "MB"));
        assert_eq!(PassOutput::from_lines(&out.to_lines()), Some(out.clone()));
        for bad in [
            "",
            "attempted 1\n",
            "metric x 1 furlongs\nattempted 1\nfailed 0\n",
            "hello world\n",
        ] {
            assert_eq!(PassOutput::from_lines(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let end_to_end = END_TO_END.iter().map(|(n, u, b, _)| (n, u, b));
        for (name, unit, _) in end_to_end.chain(PER_LAYER.iter().map(|(n, u, b)| (n, u, b))) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(unit_of(unit).is_some(), "{name}: unit {unit} not in UNITS");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn derived_metrics_reconcile_by_construction() {
        let mut r = WorkloadResult::default();
        let mut measured = PassOutput::default();
        for (name, unit, ..) in END_TO_END {
            measured.put(name, Metric::new(2000.0, unit));
        }
        measured.put("diag.nonstrict_mean_ms", Metric::new(0.5, "ms"));
        r.add_measured(measured);
        let mut counted = PassOutput::default();
        counted.put("raw.counted_ops_per_s", Metric::new(1900.0, "1/s"));
        r.add_traced(counted);
        let mut replay = PassOutput::default();
        replay.put("budget.critical_path_us", Metric::new(120.0, "us"));
        replay.put("count.frames", Metric::new(7.0, "count"));
        r.add_traced(replay);

        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert!((r.per_layer["obs.overhead_share"].value - 0.05).abs() < 1e-12);
        let sum = r.per_layer["budget.critical_path_us"].value
            + r.per_layer["budget.transport_wait_us"].value;
        assert!((sum - 500.0).abs() < 1e-9, "path + wait = mean latency");
        assert_eq!(r.replay_counts, vec![("frames".to_string(), 7.0)]);
        let all = r.per_layer_complete();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all
            .iter()
            .any(|(n, m)| *n == "store.persist_us" && m.value == 0.0));
    }
}
