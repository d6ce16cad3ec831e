//! A frame-aware chaos proxy: network fault injection for real sockets.
//!
//! The paper's §9.3 argues the algorithm "cannot distinguish lost messages
//! from merely delayed ones", so loss and duplication never violate
//! safety, and liveness returns once the network behaves (Theorem 9.4).
//! The simulator checks this in virtual time; [`ChaosProxy`] checks it on
//! the real TCP deployment by sitting between nodes and dropping or
//! duplicating *whole frames* with configured probabilities.
//!
//! Dropping at frame granularity (rather than bytes) matters: the
//! algorithm tolerates lost messages, not corrupted streams — a byte-level
//! proxy would desynchronize framing and simply kill connections. Frames
//! are decoded with the same checksummed framing the nodes use and
//! re-encoded verbatim on the way out.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::BytesMut;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::frame::{decode_frame, encode_frame};

/// Fault model for one proxied direction.
#[derive(Copy, Clone, Debug)]
pub struct ChaosConfig {
    /// Probability that a forwarded frame is dropped.
    pub drop_probability: f64,
    /// Probability that a forwarded frame is sent twice.
    pub dup_probability: f64,
    /// Probability that a forwarded frame is *held back* and re-emitted
    /// after the next frame on the connection (adjacent reordering). A
    /// held frame still pending when the connection closes is lost —
    /// which the algorithm tolerates anyway.
    pub reorder_probability: f64,
    /// Added one-way latency: each forwarded frame waits this long before
    /// being written out. The proxy models an in-order slow link, so the
    /// delay also throttles the connection to one frame per `delay`.
    pub delay: Duration,
    /// RNG seed (per-connection streams are derived from it).
    pub seed: u64,
}

impl ChaosConfig {
    /// A proxy that drops `drop_probability` of frames and injects no
    /// other fault.
    pub fn lossy(drop_probability: f64, seed: u64) -> Self {
        ChaosConfig {
            drop_probability,
            dup_probability: 0.0,
            reorder_probability: 0.0,
            delay: Duration::ZERO,
            seed,
        }
    }

    /// Adds duplication on top of an existing fault model.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.dup_probability = p;
        self
    }

    /// Adds adjacent reordering on top of an existing fault model.
    ///
    /// Reordering is safe for requests, responses, and *snapshot*
    /// gossip (its merges are commutative and monotone), but it violates
    /// the channel assumption of **batched** delta gossip (§10.4): that
    /// ships only what is new since the last exchange, relying on the
    /// in-order delivery TCP provides, so a stability summary overtaking
    /// the batch that carried its labels breaks Invariant 7.5's
    /// bookkeeping. Do not put a reordering proxy on batched-gossip
    /// links — the same rule as "a dropped delta connection must rewind
    /// the watermark" (`Replica::reset_watermark`), where reordering
    /// within a live connection has no rewind trigger.
    #[must_use]
    pub fn with_reordering(mut self, p: f64) -> Self {
        self.reorder_probability = p;
        self
    }

    /// The fault model named by the `ESDS_CHAOS_*` environment variables —
    /// how the CI chaos matrix parameterizes the sharded-wire lane:
    ///
    /// * `ESDS_CHAOS_LOSS` — drop probability (default 0)
    /// * `ESDS_CHAOS_DUP` — duplication probability (default 0)
    /// * `ESDS_CHAOS_REORDER` — reorder probability (default 0)
    /// * `ESDS_CHAOS_DELAY_MS` — one-way delay in milliseconds (default 0)
    ///
    /// Unparsable values fall back to the default so a typo degrades to
    /// "no fault", never to a panic inside a test harness.
    pub fn from_env(seed: u64) -> Self {
        fn prob(var: &str) -> f64 {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        }
        let delay_ms: u64 = std::env::var("ESDS_CHAOS_DELAY_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        ChaosConfig {
            drop_probability: prob("ESDS_CHAOS_LOSS"),
            dup_probability: prob("ESDS_CHAOS_DUP"),
            reorder_probability: prob("ESDS_CHAOS_REORDER"),
            delay: Duration::from_millis(delay_ms),
            seed,
        }
    }
}

/// A TCP proxy forwarding framed traffic to `target`, dropping and
/// duplicating frames per [`ChaosConfig`].
///
/// Both directions are proxied; faults are injected on the client→target
/// direction only (requests and gossip), responses pass through — which
/// matches the simulator's fault scripts and keeps assertions about
/// response values deterministic.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    dropped: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
    duplicated: Arc<AtomicU64>,
    reordered: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Binds an ephemeral localhost port and starts proxying to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot bind or threads cannot spawn.
    pub fn spawn(target: SocketAddr, config: ChaosConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let stop = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicU64::new(0));
        let forwarded = Arc::new(AtomicU64::new(0));
        let duplicated = Arc::new(AtomicU64::new(0));
        let reordered = Arc::new(AtomicU64::new(0));
        let conn_seq = AtomicU64::new(0);

        let acceptor = {
            let stop = stop.clone();
            let counters = ChaosCounters {
                dropped: dropped.clone(),
                forwarded: forwarded.clone(),
                duplicated: duplicated.clone(),
                reordered: reordered.clone(),
            };
            std::thread::Builder::new()
                .name("esds-chaos-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let (inbound, _) = match listener.accept() {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(outbound) =
                            TcpStream::connect_timeout(&target, Duration::from_millis(500))
                        else {
                            continue; // target down: drop the connection
                        };
                        let seq = conn_seq.fetch_add(1, Ordering::SeqCst);
                        let rng = SmallRng::seed_from_u64(config.seed.wrapping_add(seq));
                        spawn_pumps(
                            inbound,
                            outbound,
                            config,
                            rng,
                            stop.clone(),
                            counters.clone(),
                        );
                    }
                })
                .expect("spawn chaos acceptor")
        };

        ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            dropped,
            forwarded,
            duplicated,
            reordered,
        }
    }

    /// The address to dial instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Frames forwarded so far (duplicates counted once).
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::SeqCst)
    }

    /// Frames sent twice so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::SeqCst)
    }

    /// Frames emitted out of order so far (each count is one held-back
    /// frame that was overtaken by its successor).
    pub fn reordered(&self) -> u64 {
        self.reordered.load(Ordering::SeqCst)
    }

    /// Registers the proxy's live fault counters into a metrics scope
    /// (conventionally `shard{s}/chaos`): `dropped`, `forwarded`,
    /// `duplicated`, `reordered`. The registry reads the proxy's own
    /// atomics, so snapshots track faults as they happen — no copy, no
    /// extra work on the pump threads.
    pub fn attach_metrics(&self, scope: &esds_obs::Scope) {
        scope.counter_source("dropped", self.dropped.clone());
        scope.counter_source("forwarded", self.forwarded.clone());
        scope.counter_source("duplicated", self.duplicated.clone());
        scope.counter_source("reordered", self.reordered.clone());
    }

    /// Stops accepting new connections. Existing pump threads drain and
    /// exit when either endpoint closes.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// The proxy's shared fault counters.
#[derive(Clone)]
struct ChaosCounters {
    dropped: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
    duplicated: Arc<AtomicU64>,
    reordered: Arc<AtomicU64>,
}

/// Forwards inbound→outbound with frame-level fault injection, and
/// outbound→inbound verbatim.
fn spawn_pumps(
    inbound: TcpStream,
    outbound: TcpStream,
    config: ChaosConfig,
    mut rng: SmallRng,
    stop: Arc<AtomicBool>,
    counters: ChaosCounters,
) {
    let in_read = inbound.try_clone().expect("clone inbound");
    let out_write = outbound.try_clone().expect("clone outbound");
    {
        let stop = stop.clone();
        // A frame held back for reordering; emitted after the next frame
        // on the connection overtakes it — or on the next idle tick, so a
        // held frame at the tail of a burst is merely *delayed*, never
        // silently stranded (the fault model is reordering, not loss).
        let mut held: Option<(crate::frame::FrameKind, Vec<u8>)> = None;
        let _ = std::thread::Builder::new()
            .name("esds-chaos-fwd".into())
            .spawn(move || {
                pump_frames(in_read, out_write, stop, |frame, out| {
                    let Some((frame_kind, payload)) = frame else {
                        // Idle tick: flush anything still held back.
                        if let Some((k, p)) = held.take() {
                            encode_frame(k, &p, out);
                        }
                        return;
                    };
                    if rng.gen_bool(config.drop_probability.clamp(0.0, 1.0)) {
                        counters.dropped.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                    if !config.delay.is_zero() {
                        // In-order slow link: every surviving frame waits
                        // the one-way latency before hitting the wire.
                        std::thread::sleep(config.delay);
                    }
                    counters.forwarded.fetch_add(1, Ordering::SeqCst);
                    if held.is_none() && rng.gen_bool(config.reorder_probability.clamp(0.0, 1.0)) {
                        // Hold this frame back; its successor overtakes it.
                        held = Some((frame_kind, payload.to_vec()));
                        return;
                    }
                    encode_frame(frame_kind, payload, out);
                    if rng.gen_bool(config.dup_probability.clamp(0.0, 1.0)) {
                        counters.duplicated.fetch_add(1, Ordering::SeqCst);
                        encode_frame(frame_kind, payload, out);
                    }
                    if let Some((k, p)) = held.take() {
                        counters.reordered.fetch_add(1, Ordering::SeqCst);
                        encode_frame(k, &p, out);
                    }
                });
            });
    }
    let _ = std::thread::Builder::new()
        .name("esds-chaos-back".into())
        .spawn(move || {
            // Reverse direction: verbatim frame forwarding.
            pump_frames(outbound, inbound, stop, |frame, out| {
                if let Some((kind, payload)) = frame {
                    encode_frame(kind, payload, out);
                }
            });
        });
}

/// Reads frames from `src` (buffered, partial-read safe) and lets `f`
/// decide what to write to `dst`: it is called with `Some(frame)` for
/// every decoded frame and with `None` on idle read-timeout ticks (so
/// stateful fault models can flush held-back frames even when the
/// connection goes quiet). Exits on EOF, error, or shutdown.
fn pump_frames(
    mut src: TcpStream,
    mut dst: TcpStream,
    stop: Arc<AtomicBool>,
    mut f: impl FnMut(Option<(crate::frame::FrameKind, &[u8])>, &mut BytesMut),
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf = BytesMut::with_capacity(8 * 1024);
    let mut chunk = [0u8; 4096];
    let mut out = BytesMut::new();
    loop {
        loop {
            match decode_frame(&mut buf) {
                Ok(Some(frame)) => {
                    out.clear();
                    f(Some((frame.kind, &frame.payload)), &mut out);
                    if !out.is_empty() && dst.write_all(&out).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return, // corrupt stream: kill the connection
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match src.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                out.clear();
                f(None, &mut out);
                if !out.is_empty() && dst.write_all(&out).is_err() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode_message, encode_message, HelloId, WireMessage};
    use crate::tcp::{TcpClient, TcpClusterConfig, TcpReplicaNode};
    use esds_core::{ClientId, ReplicaId};
    use esds_datatypes::{Counter, CounterOp, CounterValue};
    use parking_lot::Mutex;

    type Msg = WireMessage<CounterOp, CounterValue>;

    /// Echo server: reads frames, counts them, never replies.
    fn sink_server() -> (SocketAddr, Arc<AtomicU64>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let count = count.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        continue;
                    };
                    let count = count.clone();
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        pump_count(stream, count, stop);
                    });
                }
            });
        }
        (addr, count, stop)
    }

    fn pump_count(mut s: TcpStream, count: Arc<AtomicU64>, stop: Arc<AtomicBool>) {
        let _ = s.set_read_timeout(Some(Duration::from_millis(20)));
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 1024];
        loop {
            while let Ok(Some(frame)) = decode_frame(&mut buf) {
                let _: Msg = decode_message(&frame).unwrap();
                count.fetch_add(1, Ordering::SeqCst);
            }
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match s.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
    }

    #[test]
    fn proxy_drops_about_the_configured_fraction() {
        let (target, received, stop) = sink_server();
        let proxy = ChaosProxy::spawn(target, ChaosConfig::lossy(0.5, 42));
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let total = 400u64;
        let mut out = BytesMut::new();
        for _ in 0..total {
            out.clear();
            encode_message::<CounterOp, CounterValue>(
                &Msg::Hello(HelloId::Client(ClientId(1))),
                &mut out,
            );
            conn.write_all(&out).unwrap();
        }
        // Wait until everything was either dropped or seen by the sink.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if proxy.dropped() + received.load(Ordering::SeqCst) >= total {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let got = received.load(Ordering::SeqCst);
        let dropped = proxy.dropped();
        assert_eq!(dropped + proxy.forwarded(), total);
        assert_eq!(got, proxy.forwarded(), "sink saw every forwarded frame");
        // 50% ± generous tolerance.
        assert!(
            (total / 4..=3 * total / 4).contains(&dropped),
            "dropped {dropped} of {total}"
        );
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(target);
        proxy.shutdown();
    }

    /// Proxies every gossip link of a 3-node cluster with `chaos` and
    /// runs the increments-plus-strict-audit workload; returns the
    /// proxies for fault-counter assertions (already shut down cleanly
    /// is the caller's job via the returned handles).
    fn exercise_gossip_chaos(
        replica: esds_alg::ReplicaConfig,
        chaos: impl Fn(usize) -> ChaosConfig,
    ) -> Vec<ChaosProxy> {
        let mut config = TcpClusterConfig::new(3);
        config.replica = replica;
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let real: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let proxies: Vec<ChaosProxy> = real
            .iter()
            .enumerate()
            .map(|(i, a)| ChaosProxy::spawn(*a, chaos(i)))
            .collect();
        let gossip_table: crate::tcp::AddrTable =
            Arc::new(Mutex::new(proxies.iter().map(|p| p.addr()).collect()));
        let nodes: Vec<TcpReplicaNode<Counter>> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                TcpReplicaNode::spawn(
                    Counter,
                    ReplicaId(i as u32),
                    l,
                    gossip_table.clone(),
                    &config,
                )
            })
            .collect();
        let mut client: TcpClient<Counter> = TcpClient::connect(ClientId(0), real.clone());

        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(client.submit(CounterOp::Increment(1), &[], false));
        }
        for id in &ids {
            assert_eq!(
                client.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }
        // The strict audit needs stability votes to flow through the
        // faulty gossip links — and pins the exact final value.
        let audit = client.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            client.await_response(audit, Duration::from_secs(60)),
            Some(CounterValue::Count(8)),
            "gossip mis-applied under chaos"
        );

        let reps: Vec<_> = nodes.into_iter().map(TcpReplicaNode::shutdown).collect();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(
            states.iter().all(|s| *s == 8),
            "chaos corrupted the history: {states:?}"
        );
        proxies
    }

    #[test]
    fn duplicated_batched_gossip_does_not_double_apply() {
        // §10.4 batched gossip under heavy duplication of `GossipBatched`
        // frames. The watermark handshake makes a batch idempotent
        // (knowledge summaries are monotone, descriptor deltas are
        // unions), so a duplicated batch must change nothing: the counter
        // converges to *exactly* the sum of the increments — a double-
        // applied delta would overshoot, and the strict audit pins the
        // final value at every replica. (Reordering is deliberately NOT
        // injected here: delta strategies assume the in-order delivery
        // TCP provides — see `ChaosConfig::with_reordering`.)
        let proxies =
            exercise_gossip_chaos(esds_alg::ReplicaConfig::default().with_batched(2), |i| {
                ChaosConfig::lossy(0.0, 900 + i as u64).with_duplication(0.4)
            });
        let dup: u64 = proxies.iter().map(|p| p.duplicated()).sum();
        assert!(
            dup > 0,
            "the proxies should actually have duplicated frames"
        );
        for p in proxies {
            p.shutdown();
        }
    }

    #[test]
    fn reordered_snapshot_gossip_converges() {
        // Adjacent reordering (plus duplication) of full-snapshot gossip
        // frames: snapshot merges are commutative and monotone, so an
        // overtaken frame must change nothing. This is the encoding a
        // reordering network is *allowed* to carry — the delta
        // strategies are not (`ChaosConfig::with_reordering`).
        let proxies = exercise_gossip_chaos(esds_alg::ReplicaConfig::default(), |i| {
            ChaosConfig::lossy(0.0, 1700 + i as u64)
                .with_duplication(0.2)
                .with_reordering(0.3)
        });
        let reord: u64 = proxies.iter().map(|p| p.reordered()).sum();
        assert!(
            reord > 0,
            "the proxies should actually have reordered frames"
        );
        for p in proxies {
            p.shutdown();
        }
    }

    #[test]
    fn cluster_converges_through_lossy_gossip_links() {
        // §9.3 on real sockets: all replica-to-replica gossip passes
        // through proxies dropping 25% of frames; periodic full-snapshot
        // gossip retransmits everything, so strict operations still
        // complete and replicas converge.
        let config = TcpClusterConfig::new(3);
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let real: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let proxies: Vec<ChaosProxy> = real
            .iter()
            .enumerate()
            .map(|(i, a)| ChaosProxy::spawn(*a, ChaosConfig::lossy(0.25, 7 + i as u64)))
            .collect();
        // Nodes dial each other through the proxies...
        let gossip_table: crate::tcp::AddrTable =
            Arc::new(Mutex::new(proxies.iter().map(|p| p.addr()).collect()));
        let nodes: Vec<TcpReplicaNode<Counter>> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                TcpReplicaNode::spawn(
                    Counter,
                    ReplicaId(i as u32),
                    l,
                    gossip_table.clone(),
                    &config,
                )
            })
            .collect();
        // ...while the client talks to its replica directly.
        let mut client: TcpClient<Counter> = TcpClient::connect(ClientId(0), real.clone());

        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(client.submit(CounterOp::Increment(1), &[], false));
        }
        for id in &ids {
            assert_eq!(
                client.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }
        let audit = client.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            client.await_response(audit, Duration::from_secs(60)),
            Some(CounterValue::Count(5)),
            "strict audit completes despite 25% gossip loss"
        );

        let reps: Vec<_> = nodes.into_iter().map(TcpReplicaNode::shutdown).collect();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 5), "diverged: {states:?}");
        let lost: u64 = proxies.iter().map(|p| p.dropped()).sum();
        assert!(lost > 0, "the proxies should actually have dropped gossip");
        for p in proxies {
            p.shutdown();
        }
    }
}
