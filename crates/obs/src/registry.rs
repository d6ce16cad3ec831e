//! The metrics registry: named counters, gauges, and bounded
//! histograms with hierarchical `shard/replica/metric` names.
//!
//! Design rules, in priority order:
//!
//! 1. **The hot path is lock-free.** Handles ([`Counter`], [`Gauge`],
//!    [`Histo`]) hold an `Arc` straight to the atomic; `inc`/`set`/
//!    `record` are single relaxed atomic ops. The registry's interior
//!    mutex is touched only at registration and snapshot time.
//! 2. **Disabled means free.** A [`MetricsRegistry::disabled`] registry
//!    hands out empty handles whose operations compile to a branch on
//!    `None` — no allocation, no atomics, no sharing. Every layer
//!    defaults to disabled, so deployments that never asked for
//!    metrics pay nothing (ratio-asserted by the facade's overhead
//!    smoke test and measured by the `ledger` benchmark's
//!    `obs.overhead_share` row).
//! 3. **External sources plug in.** Subsystems that already keep their
//!    own atomics (the chaos proxy's drop/dup/reorder counters) are
//!    registered by handle, so snapshots read them live instead of
//!    copying.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{BoundedHistogram, HistogramSummary};

/// A monotonically increasing counter handle. Cheap to clone; a handle
/// from a disabled registry is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what disabled registries hand out).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`.
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle (sizes, ages, generations).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (high-watermark use).
    pub fn set_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A bounded-histogram handle (latencies in µs, sizes in bytes).
#[derive(Clone, Debug, Default)]
pub struct Histo(Option<Arc<BoundedHistogram>>);

impl Histo {
    /// A detached no-op histogram.
    pub fn noop() -> Self {
        Histo(None)
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Whether this handle actually records (false when disabled).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<BoundedHistogram>>>,
}

/// The process-wide metrics registry. Clone freely — clones share the
/// same underlying store. See the module docs for the design rules.
///
/// # Examples
///
/// ```
/// use esds_obs::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// let c = reg.counter("shard0/replica1/requests");
/// c.inc();
/// c.add(2);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("shard0/replica1/requests"), Some(3));
///
/// let off = MetricsRegistry::disabled();
/// off.counter("anything").inc(); // free: no atomic exists
/// assert!(off.snapshot().counters.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// The zero-cost disabled registry: every handle it hands out is a
    /// no-op, and [`MetricsRegistry::snapshot`] is empty.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-attaches to) the counter named `name`.
    /// Idempotent: the same name always resolves to the same atomic.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.counters
                    .lock()
                    .expect("metrics registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Registers an externally owned atomic as a counter source: the
    /// snapshot reads it live. Used for subsystems that already keep
    /// their own counters (e.g. the chaos proxy).
    pub fn counter_source(&self, name: &str, source: Arc<AtomicU64>) {
        if let Some(i) = &self.inner {
            i.counters
                .lock()
                .expect("metrics registry poisoned")
                .insert(name.to_string(), source);
        }
    }

    /// Registers (or re-attaches to) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.gauges
                    .lock()
                    .expect("metrics registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Registers (or re-attaches to) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histo {
        Histo(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.hists
                    .lock()
                    .expect("metrics registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// A scope that prefixes every metric name with `prefix/`, the
    /// hierarchical naming convention (`shard{s}/replica{r}/…`).
    pub fn scoped(&self, prefix: impl Into<String>) -> Scope {
        Scope {
            reg: self.clone(),
            prefix: prefix.into(),
        }
    }

    /// A consistent point-in-time copy of every metric. Counters and
    /// gauges are exact; histogram summaries may trail concurrent
    /// recorders by in-flight samples.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = i
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = i
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = i
            .hists
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.summarize()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Renders the current snapshot as text (see
    /// [`MetricsSnapshot::render`]).
    pub fn render(&self) -> String {
        self.snapshot().render()
    }

    /// Renders the current snapshot as JSON (see
    /// [`MetricsSnapshot::render_json`]).
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// A name-prefixing view of a [`MetricsRegistry`]; see
/// [`MetricsRegistry::scoped`].
#[derive(Clone, Debug)]
pub struct Scope {
    reg: MetricsRegistry,
    prefix: String,
}

impl Scope {
    /// The counter `prefix/name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.reg.counter(&format!("{}/{name}", self.prefix))
    }

    /// The gauge `prefix/name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.reg.gauge(&format!("{}/{name}", self.prefix))
    }

    /// The histogram `prefix/name`.
    pub fn histogram(&self, name: &str) -> Histo {
        self.reg.histogram(&format!("{}/{name}", self.prefix))
    }

    /// An external counter source at `prefix/name`; see
    /// [`MetricsRegistry::counter_source`].
    pub fn counter_source(&self, name: &str, source: Arc<AtomicU64>) {
        self.reg
            .counter_source(&format!("{}/{name}", self.prefix), source);
    }

    /// A deeper scope `prefix/name`.
    pub fn scoped(&self, name: &str) -> Scope {
        self.reg.scoped(format!("{}/{name}", self.prefix))
    }

    /// Whether the underlying registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.reg.is_enabled()
    }
}

/// A point-in-time copy of a registry's metrics, sorted by name.
/// This is what crosses the wire in a `MetricsInfo` frame and what
/// `esds_top` renders.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Sums every counter whose name ends with `/suffix` (or equals
    /// `suffix`) — e.g. total `gossip_bytes_out` across all peers of
    /// all replicas of all shards.
    pub fn counter_total(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n == suffix || n.ends_with(&format!("/{suffix}")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Largest gauge whose name ends with `/suffix` (or equals it).
    pub fn gauge_max(&self, suffix: &str) -> u64 {
        self.gauges
            .iter()
            .filter(|(n, _)| n == suffix || n.ends_with(&format!("/{suffix}")))
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0)
    }

    /// Plain-text dump, one metric per line, sorted by name.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge   {name} = {v}\n"));
        }
        for (name, s) in &self.histograms {
            out.push_str(&format!("hist    {name} = {}\n", s.render_us()));
        }
        out
    }

    /// JSON dump (hand-rolled: the workspace is offline, no serde).
    /// Shape: `{"counters": {..}, "gauges": {..}, "histograms":
    /// {name: {count, mean, p50, p95, p99, max}}}`.
    pub fn render_json(&self) -> String {
        fn esc(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            esc(name, &mut out);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            esc(name, &mut out);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, s)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            esc(name, &mut out);
            out.push_str(&format!(
                ": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_atom() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn disabled_is_empty_and_inert() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.add(100);
        reg.gauge("g").set(7);
        reg.histogram("h").record(3);
        assert_eq!(c.get(), 0);
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
        assert_eq!(reg.render(), "");
    }

    #[test]
    fn scoped_names_nest() {
        let reg = MetricsRegistry::new();
        let shard = reg.scoped("shard3");
        let replica = shard.scoped("replica1");
        replica.counter("requests").inc();
        shard.gauge("watermark_age_ms").set(12);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("shard3/replica1/requests"), Some(1));
        assert_eq!(snap.gauge("shard3/watermark_age_ms"), Some(12));
        assert_eq!(snap.counter_total("requests"), 1);
        assert_eq!(snap.gauge_max("watermark_age_ms"), 12);
    }

    #[test]
    fn external_source_read_live() {
        let reg = MetricsRegistry::new();
        let src = Arc::new(AtomicU64::new(0));
        reg.counter_source("chaos/dropped", Arc::clone(&src));
        src.store(9, Ordering::Relaxed);
        assert_eq!(reg.snapshot().counter("chaos/dropped"), Some(9));
    }

    #[test]
    fn render_shapes() {
        let reg = MetricsRegistry::new();
        reg.counter("a/b").add(2);
        reg.gauge("g").set(1);
        reg.histogram("h").record(10);
        let text = reg.render();
        assert!(text.contains("counter a/b = 2"));
        assert!(text.contains("gauge   g = 1"));
        assert!(text.contains("hist    h = n=1"));
        let json = reg.render_json();
        assert!(json.contains("\"a/b\": 2"));
        assert!(json.contains("\"count\": 1"));
    }
}
