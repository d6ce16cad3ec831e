//! The observability layer end to end: registry correctness under
//! threaded hammering, the bounded histogram differentialed against the
//! exact simulator histogram, the zero-cost disabled path, lifecycle
//! traces interleaving with the audit codec, and the conservation
//! invariants of a live 2-shard TCP deployment under chaos (the CI
//! `observability` lane runs the last of these with the chaos matrix's
//! environment and exports the metrics JSON artifact via
//! `ESDS_METRICS_OUT`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use esds::datatypes::{KvOp, KvStore};
use esds::obs::{bucket_index, BoundedHistogram, MetricsRegistry, OpTracer};
use esds::wire::{
    ChaosConfig, NodeObs, ShardedWireConfig, ShardedWireService, TcpCluster, TcpClusterConfig,
};
use proptest::prelude::*;

/// The CI matrix's fault model, with a 5% loss floor when unconfigured
/// (same convention as `tests/wire_sharded.rs`).
fn chaos_from_env() -> ChaosConfig {
    let mut c = ChaosConfig::from_env(977);
    if std::env::var("ESDS_CHAOS_LOSS").is_err() {
        c.drop_probability = 0.05;
    }
    c
}

/// Handles are lock-free and clones share the atomic: 8 threads
/// hammering shared and private counters, gauges, and one histogram
/// must conserve every count exactly once the threads join.
#[test]
fn registry_conserves_totals_under_threaded_hammering() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = MetricsRegistry::new();
    let shared = reg.counter("hammer/shared");
    let hist = reg.histogram("hammer/latency");
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = shared.clone();
            let hist = hist.clone();
            let private = reg.counter(&format!("hammer/t{t}/private"));
            let gauge = reg.gauge(&format!("hammer/t{t}/hwm"));
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    shared.inc();
                    private.add(2);
                    gauge.set_max(i);
                    hist.record(i % 1000 + 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter("hammer/shared"), Some(THREADS * PER_THREAD));
    for t in 0..THREADS {
        assert_eq!(
            snap.counter(&format!("hammer/t{t}/private")),
            Some(2 * PER_THREAD),
            "thread {t} private counter"
        );
        assert_eq!(
            snap.gauge(&format!("hammer/t{t}/hwm")),
            Some(PER_THREAD - 1)
        );
    }
    assert_eq!(snap.counter_total("private"), THREADS * 2 * PER_THREAD);
    let (_, h) = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "hammer/latency")
        .expect("histogram registered");
    assert_eq!(h.count, THREADS * PER_THREAD, "no sample lost or doubled");
    assert_eq!(h.max, 1000);
}

proptest! {
    /// Differential property of the bounded histogram against the exact
    /// `esds_sim::Histogram`: on the same samples, every reported
    /// quantile lands in the same log-bucket as the exact nearest-rank
    /// quantile, and the maximum is exact. This is what licenses
    /// replacing the unbounded sample-keeping histogram on service hot
    /// paths.
    #[test]
    fn bounded_histogram_shares_buckets_with_exact(
        samples in proptest::collection::vec(1u64..2_000_000, 1..300)
    ) {
        let bounded = BoundedHistogram::new();
        let mut exact = esds::sim::Histogram::new();
        for &s in &samples {
            bounded.record(s);
            exact.record(esds::sim::SimDuration::from_micros(s));
        }
        let got = bounded.summarize();
        prop_assert_eq!(got.count, samples.len() as u64);
        prop_assert_eq!(
            got.max,
            exact.max().unwrap().as_micros(),
            "max is tracked exactly, not bucketed"
        );
        for (p, approx) in [(50.0, got.p50), (95.0, got.p95), (99.0, got.p99)] {
            let truth = exact.percentile(p).unwrap().as_micros();
            prop_assert_eq!(
                bucket_index(approx),
                bucket_index(truth),
                "p{}: approx {} and exact {} must share a bucket",
                p, approx, truth
            );
        }
    }
}

/// The zero-cost claim, ratio-asserted at the service level: a
/// miniature closed-loop `TcpCluster` workload with the default
/// (disabled) registry must not be measurably slower than the same
/// workload with live node and client metrics — the disabled path hands
/// out `None` handles, so instrumentation sites reduce to a branch. The
/// bound is deliberately generous (CI timing noise); the `ledger`
/// benchmark's `obs.overhead_share` row measures the real share.
#[test]
fn disabled_metrics_add_no_measurable_service_cost() {
    fn run(obs: MetricsRegistry) -> Duration {
        let mut cfg = TcpClusterConfig::new(3).with_obs(NodeObs::with_registry(obs.clone()));
        cfg.gossip_interval = Duration::from_millis(5);
        let mut cluster = TcpCluster::launch(KvStore, cfg);
        let mut c = cluster.client();
        c.attach_metrics(&obs.scoped(format!("client{}", c.client().0)));
        let start = Instant::now();
        for i in 0..60u32 {
            let id = c.submit(KvOp::put(format!("k{}", i % 8), "v"), &[], false);
            assert!(c.await_response(id, Duration::from_secs(30)).is_some());
        }
        let elapsed = start.elapsed();
        cluster.shutdown();
        elapsed
    }
    // Warm-up evens out thread-spawn and allocator effects.
    let _ = run(MetricsRegistry::disabled());
    let enabled = run(MetricsRegistry::new());
    let disabled = run(MetricsRegistry::disabled());
    assert!(
        disabled < enabled * 4 + Duration::from_millis(250),
        "disabled metrics path should cost nothing: disabled={disabled:?} enabled={enabled:?}"
    );
}

/// Op-lifecycle spans are real JSONL, carry the expected stages, and
/// interleave with the audit trace codec: `parse_line` skips them
/// (`Ok(None)`) instead of erroring, so one file can hold both streams.
/// Client-side spans (`submit`, `answer`) name the global id (`c0/0`);
/// the replica's `replica_accept` names the shard-local one (`c0:0`).
#[test]
fn lifecycle_spans_feed_the_audit_codec() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let cfg = ShardedWireConfig::new(3)
        .with_obs(MetricsRegistry::new())
        .with_tracer(OpTracer::to_shared_buffer(buf.clone(), 1)); // sample every op
    let mut svc = ShardedWireService::launch(KvStore, 1, cfg);
    let mut c = svc.client();
    let id = c.submit(KvOp::put("traced", "v"), &[], false);
    assert!(c.await_response(id, Duration::from_secs(30)).is_some());
    let (_, desc) = c.local_descriptor(id).expect("issued by this client");
    svc.shutdown();

    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "sampling 1-in-1 must emit spans");
    let global = id.to_string();
    let local = desc.id.to_string();
    for (stage, id_str) in [
        ("submit", &global),
        ("replica_accept", &local),
        ("answer", &global),
    ] {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("\"stage\":\"{stage}\""))
                    && l.contains(&format!("\"id\":\"{id_str}\""))),
            "missing {stage} span for {id_str} in:\n{text}"
        );
    }
    for l in &lines {
        assert_eq!(
            esds::audit::parse_line(l),
            Ok(None),
            "audit codec must skip span lines, not error"
        );
    }
}

/// External atomics registered as counter sources are read live at
/// snapshot time — no copy, no staleness.
#[test]
fn counter_sources_are_read_live() {
    let reg = MetricsRegistry::new();
    let external = Arc::new(AtomicU64::new(0));
    reg.scoped("proxy")
        .counter_source("dropped", external.clone());
    assert_eq!(reg.snapshot().counter("proxy/dropped"), Some(0));
    external.store(41, Ordering::Relaxed);
    assert_eq!(reg.snapshot().counter("proxy/dropped"), Some(41));
}

/// The conservation test the CI `observability` lane runs: a live
/// 2-shard TCP deployment under the chaos matrix's fault model, metrics
/// on, queried over the wire. Asserts the cross-layer invariants that
/// hold for *any* correct run — answers never exceed submissions,
/// gossip flowed on every shard, chaos counters surface through the
/// registry, and the stability watermark kept advancing (its age gauge
/// is bounded by the run's own duration). Exports the full snapshot as
/// JSON when `ESDS_METRICS_OUT` is set.
#[test]
fn live_cluster_metrics_conservation_under_chaos() {
    let chaos = chaos_from_env();
    let registry = MetricsRegistry::new();
    let mut cfg = ShardedWireConfig::new(3)
        .with_chaos(chaos)
        .with_obs(registry.clone());
    cfg.cluster.gossip_interval = Duration::from_millis(20);
    let started = Instant::now();
    let mut svc = ShardedWireService::launch(KvStore, 2, cfg);
    let mut c = svc.client();

    let mut ids = Vec::new();
    for i in 0..30u32 {
        let strict = i % 10 == 7;
        ids.push(c.submit(
            KvOp::put(format!("key:{}", i % 12), format!("v{i}")),
            &[],
            strict,
        ));
    }
    for id in &ids {
        assert!(
            c.await_response(*id, Duration::from_secs(60)).is_some(),
            "operation {id} lost under chaos"
        );
    }

    // Exposition over the wire: every shard's relay answers
    // MetricsQuery with the (process-global) snapshot.
    for shard in 0..2u32 {
        let snap = c
            .metrics_snapshot(shard, Duration::from_secs(30))
            .unwrap_or_else(|| panic!("shard {shard} never answered MetricsQuery"));
        assert!(
            snap.counter_total("gossip_msgs") > 0,
            "wire snapshot must show gossip traffic"
        );
    }

    let snap = registry.snapshot();
    // Conservation: a response counted at most once per operation.
    let submitted = snap.counter_total("ops_submitted");
    let answered = snap.counter_total("ops_answered");
    assert_eq!(submitted, ids.len() as u64);
    assert!(
        answered <= submitted,
        "answers must never exceed submissions: {answered} > {submitted} \
         (duplicated responses double-counted?)"
    );
    assert_eq!(answered, ids.len() as u64, "every awaited op was counted");
    // Both shards really gossiped, and the per-peer byte counters saw it.
    for shard in 0..2u32 {
        let prefix = format!("shard{shard}/");
        let bytes: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix) && n.ends_with("/gossip_bytes"))
            .map(|(_, v)| v)
            .sum();
        assert!(bytes > 0, "shard {shard} moved no gossip bytes");
        let reqs: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with(&prefix) && n.ends_with("/requests"))
            .map(|(_, v)| v)
            .sum();
        assert!(reqs > 0, "shard {shard} accepted no requests");
    }
    // The chaos proxies surface through the registry (satellite b); with
    // loss configured they must have actually dropped frames.
    assert!(
        snap.counter_total("forwarded") > 0,
        "chaos proxies carried traffic"
    );
    if chaos.drop_probability > 0.0 {
        assert!(
            snap.counter_total("dropped") > 0,
            "lossy run dropped no frames"
        );
    }
    // Post-quiescence the watermark-age gauge is bounded by the run's
    // own wall-clock: the stability frontier advanced during the run,
    // so its age cannot predate the deployment.
    let age_ms = snap.gauge_max("stable_watermark_age_ms");
    let run_ms = started.elapsed().as_millis() as u64;
    assert!(
        age_ms <= run_ms + 1000,
        "watermark age {age_ms}ms exceeds the run's own duration {run_ms}ms"
    );

    if let Ok(path) = std::env::var("ESDS_METRICS_OUT") {
        std::fs::write(&path, snap.render_json()).expect("writing ESDS_METRICS_OUT");
        eprintln!(
            "wrote {} counters / {} gauges / {} histograms to {path}",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }
    svc.shutdown();
}
