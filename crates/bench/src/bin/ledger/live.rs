//! The *measured* and *counted* passes: the op stream over real loopback
//! TCP against nodes spawned exactly as a deployment spawns them.
//!
//! Measured: `MetricsRegistry` and `OpTracer` disabled (the library
//! default); the only pass that yields end-to-end metrics. It runs the
//! timed stream [`REPETITIONS`] times, each on a fresh deployment, and
//! reports each timing as the median of the repetitions: which cores the
//! threads of a deployment land on sways a whole repetition, so one long
//! run is less steady than the median of five shorter ones.
//! Counted: one repetition with a live registry installed and
//! benchmark-side spans around `submit` and `await_response`.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use esds_alg::{Persistence, Replica, ReplicaConfig};
use esds_core::{ClientId, OpId, ReplicaId, ShardedOpId};
use esds_datatypes::{KvOp, KvStore, KvValue};
use esds_obs::MetricsRegistry;
use esds_store::{DurableConfig, DurableStore, FileStorage};
use esds_wire::{
    AddrTable, NodeObs, ShardedWireClient, ShardedWireConfig, ShardedWireService, TcpClient,
    TcpClusterConfig, TcpReplicaNode,
};

use crate::report::{Metric, PassOutput};
use crate::stats;
use crate::stream::{self, Class, GenOp, Model, Workload};

/// Replicas per group.
pub const REPLICAS: usize = 3;
/// An operation unanswered for this long has failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);
/// Timed repetitions per measured pass.
const REPETITIONS: usize = 5;
/// Set-ups per measured pass, one per repetition and the rest before the
/// first; `setup_s` is their mean. A set-up is mostly its 200 warm-up
/// operations, and on the sharded deployment each of those that waits out
/// the client's 50 ms resend tick (zero to five do) adds 44 ms: a median of
/// such a stepped distribution jumps by a whole step between runs, where
/// the mean of sixteen moves by a few percent.
const SETUPS: usize = 16;
/// Operations per chunk of [`last_decile_pace`].
const PACE_CHUNK: usize = 5;
/// Keyed operations slower than this waited for the client's resend tick.
const SLOW_KEYED_MS: f64 = 20.0;

/// Replica configuration every deployment pins. `GossipStrategy::Full`,
/// the library default, is excluded: a 3-replica TCP cluster under it runs
/// out of memory before 2 000 puts.
pub fn replica_config(durable: bool) -> ReplicaConfig {
    let cfg = ReplicaConfig::default().with_batched(1);
    if durable {
        cfg.with_durable()
    } else {
        cfg
    }
}

/// What the two client types have in common.
trait Client {
    type Id: Copy;
    fn submit(&mut self, op: KvOp, prev: &[Self::Id], strict: bool) -> Self::Id;
    fn wait(&mut self, id: Self::Id, timeout: Duration) -> Option<KvValue>;
}

impl Client for TcpClient<KvStore> {
    type Id = OpId;
    fn submit(&mut self, op: KvOp, prev: &[OpId], strict: bool) -> OpId {
        TcpClient::submit(self, op, prev, strict)
    }
    fn wait(&mut self, id: OpId, timeout: Duration) -> Option<KvValue> {
        self.await_response(id, timeout)
    }
}

impl Client for ShardedWireClient<KvStore> {
    type Id = ShardedOpId;
    fn submit(&mut self, op: KvOp, prev: &[ShardedOpId], strict: bool) -> ShardedOpId {
        ShardedWireClient::submit(self, op, prev, strict)
    }
    fn wait(&mut self, id: ShardedOpId, timeout: Duration) -> Option<KvValue> {
        self.await_response(id, timeout)
    }
}

/// What one closed-loop run over a stream observed.
struct StreamRun<Id> {
    /// `(class, latency ms)` of every answered operation.
    latencies: Vec<(Class, f64)>,
    /// Completion times since the first submit, in completion order.
    done_at: Vec<Duration>,
    answered: Vec<Id>,
    failed: u64,
    errors: Vec<String>,
    /// Counted pass only: µs inside `submit` and inside `await_response`.
    submit_us: Vec<f64>,
    await_us: Vec<f64>,
}

/// Drives `ops` through `client` keeping `window` in flight, checking each
/// strict answer against `model`. `last` threads the client's previous
/// operation across calls.
fn run_stream<C: Client>(
    client: &mut C,
    ops: &[GenOp],
    model: &mut Model,
    window: usize,
    last: &mut Option<C::Id>,
    client_spans: bool,
) -> StreamRun<C::Id> {
    struct InFlight<Id> {
        id: Id,
        class: Class,
        strict: bool,
        expect: KvValue,
        sent: Instant,
    }
    let mut run = StreamRun {
        latencies: Vec::with_capacity(ops.len()),
        done_at: Vec::with_capacity(ops.len()),
        answered: Vec::with_capacity(ops.len()),
        failed: 0,
        errors: Vec::new(),
        submit_us: Vec::new(),
        await_us: Vec::new(),
    };
    let start = Instant::now();
    let mut in_flight: VecDeque<InFlight<C::Id>> = VecDeque::with_capacity(window);
    let complete = |f: InFlight<C::Id>, client: &mut C, run: &mut StreamRun<C::Id>| {
        let t = client_spans.then(Instant::now);
        let got = client.wait(f.id, ANSWER_TIMEOUT);
        let now = Instant::now();
        if let Some(t) = t {
            run.await_us.push((now - t).as_secs_f64() * 1e6);
        }
        match got {
            None => {
                run.failed += 1;
                run.errors.push(format!(
                    "a {:?} operation went unanswered for 10 s",
                    f.class
                ));
            }
            Some(v) if f.strict && v != f.expect => {
                run.failed += 1;
                run.errors.push(format!(
                    "strict {:?} answered {v:?}, the single-writer model says {:?}",
                    f.class, f.expect
                ));
            }
            Some(_) => {
                run.latencies
                    .push((f.class, (now - f.sent).as_secs_f64() * 1e3));
                run.done_at.push(now - start);
                run.answered.push(f.id);
            }
        }
    };
    for g in ops {
        while in_flight.len() >= window {
            let f = in_flight.pop_front().expect("window is nonempty");
            complete(f, client, &mut run);
        }
        let expect = model.apply(&g.op);
        let prev: &[C::Id] = match (g.after_previous, last.as_ref()) {
            (true, Some(p)) => std::slice::from_ref(p),
            _ => &[],
        };
        let sent = Instant::now();
        let id = client.submit(g.op.clone(), prev, g.strict());
        if client_spans {
            run.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        *last = Some(id);
        in_flight.push_back(InFlight {
            id,
            class: g.class,
            strict: g.strict(),
            expect,
            sent,
        });
    }
    for f in in_flight.drain(..) {
        complete(f, client, &mut run);
    }
    run.errors.truncate(8);
    run
}

/// A strict read of each verification key, each after the previous one.
fn verification_reads(keys: &[String]) -> Vec<GenOp> {
    keys.iter()
        .map(|k| GenOp {
            after_previous: true,
            ..GenOp::new(KvOp::Get(k.clone()), Class::Strict)
        })
        .collect()
}

/// A deployment the passes can launch, drive and take down.
trait Deployment: Sized {
    type Client: Client;
    /// Spawns every node. `dir` holds the durable stores, when the workload
    /// has them.
    fn launch(w: Workload, dir: Option<&Path>, registry: Option<&MetricsRegistry>) -> Self;
    /// The one client, relayed through replica 0 of each group.
    fn client(&mut self, registry: Option<&MetricsRegistry>) -> Self::Client;
    /// Stops every node; the final replicas, group by group.
    fn shutdown(self) -> Vec<Vec<Replica<KvStore>>>;
    /// Brings a deployment that was shut down back from the stores under
    /// `dir` and reads one key strictly; how long that took. `answered` are
    /// the operations the first life answered. Volatile deployments have
    /// nothing to come back from.
    fn restart(
        _dir: &Path,
        _answered: &[<Self::Client as Client>::Id],
        _probe: GenOp,
        _model: &mut Model,
        _out: &mut PassOutput,
    ) -> Option<f64> {
        None
    }
}

/// A three-replica TCP group, volatile or durable, spawned node by node
/// so the benchmark keeps the `Replica`s that `shutdown()` returns.
struct TcpGroup {
    nodes: Vec<TcpReplicaNode<KvStore>>,
    addrs: AddrTable,
}

impl TcpGroup {
    /// Spawns the group. With `dir`, each node opens (or recovers) a
    /// `DurableStore` under it; `check` sees each replica as the store
    /// hands it over, before its node starts.
    fn spawn(
        dir: Option<&Path>,
        registry: Option<&MetricsRegistry>,
        mut check: impl FnMut(&Replica<KvStore>),
    ) -> TcpGroup {
        let mut config = TcpClusterConfig::new(REPLICAS);
        config.replica = replica_config(dir.is_some());
        if let Some(reg) = registry {
            config = config.with_obs(NodeObs::with_registry(reg.clone()));
        }
        let listeners: Vec<TcpListener> = (0..REPLICAS)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"))
            .collect();
        let addrs = AddrTable::default();
        for l in &listeners {
            addrs.lock().push(l.local_addr().expect("listener address"));
        }
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let id = ReplicaId(i as u32);
                let Some(dir) = dir else {
                    return TcpReplicaNode::spawn(KvStore, id, listener, addrs.clone(), &config);
                };
                let storage = FileStorage::open(dir.join(format!("r{i}")))
                    .expect("create the store directory");
                let (mut store, replica, _report) = DurableStore::open(
                    KvStore,
                    storage,
                    id,
                    REPLICAS,
                    config.replica,
                    DurableConfig::default(),
                )
                .expect("open the durable store");
                if let Some(reg) = registry {
                    store.attach_metrics(&reg.scoped(format!("replica{i}/wal")));
                }
                check(&replica);
                let store: Box<dyn Persistence<KvStore>> = Box::new(store);
                TcpReplicaNode::spawn_durable(replica, store, listener, addrs.clone(), &config)
            })
            .collect();
        TcpGroup { nodes, addrs }
    }

    /// A client whose relay is replica 0: `id` must be a multiple of 3.
    fn client_as(&self, id: u32, registry: Option<&MetricsRegistry>) -> TcpClient<KvStore> {
        assert_eq!(id as usize % REPLICAS, 0, "the relay is replica 0");
        let mut c = TcpClient::connect_shared(ClientId(id), self.addrs.clone());
        if let Some(reg) = registry {
            c.attach_metrics(&reg.scoped(format!("client{id}")));
        }
        c
    }
}

impl Deployment for TcpGroup {
    type Client = TcpClient<KvStore>;
    fn launch(_: Workload, dir: Option<&Path>, registry: Option<&MetricsRegistry>) -> Self {
        TcpGroup::spawn(dir, registry, |_| ())
    }
    fn client(&mut self, registry: Option<&MetricsRegistry>) -> TcpClient<KvStore> {
        self.client_as(0, registry)
    }
    fn shutdown(self) -> Vec<Vec<Replica<KvStore>>> {
        vec![self
            .nodes
            .into_iter()
            .map(TcpReplicaNode::shutdown)
            .collect()]
    }

    /// First `DurableStore::open` to a strict `Get` answered, at the
    /// history the op count fixes. Also checks that every answered
    /// operation is in the relay's recovered history.
    fn restart(
        dir: &Path,
        answered: &[OpId],
        probe: GenOp,
        model: &mut Model,
        out: &mut PassOutput,
    ) -> Option<f64> {
        let t = Instant::now();
        let mut checking = Duration::ZERO;
        let mut missing = 0usize;
        let mut opened = 0usize;
        let group = TcpGroup::spawn(Some(dir), None, |rep| {
            // The relay answered every operation, and it syncs before it
            // answers: its recovered history must hold them all.
            if opened == 0 {
                let c = Instant::now();
                missing = answered
                    .iter()
                    .filter(|id| !rep.labels().is_labeled(**id) && !rep.rcvd().contains_key(id))
                    .count();
                checking = c.elapsed();
            }
            opened += 1;
        });
        // A fresh client identity: the recovered replicas remember every
        // identifier client 0 used.
        let mut client = group.client_as(REPLICAS as u32, None);
        let got = run_stream(&mut client, &[probe], model, 1, &mut None, false);
        let recovery = t.elapsed() - checking;
        out.attempted += 1;
        out.failed += got.failed;
        out.errors.extend(got.errors);
        if missing > 0 {
            out.errors.push(format!(
                "{missing} answered operations are missing from the relay's recovered history"
            ));
        }
        drop(client);
        for reps in group.shutdown() {
            check_stable_prefixes("after restart", &reps, &mut out.errors);
        }
        Some(recovery.as_secs_f64())
    }
}

impl Deployment for ShardedWireService<KvStore> {
    type Client = ShardedWireClient<KvStore>;
    fn launch(w: Workload, _: Option<&Path>, registry: Option<&MetricsRegistry>) -> Self {
        let mut config = ShardedWireConfig::new(REPLICAS);
        config.cluster.replica = replica_config(false);
        if let Some(reg) = registry {
            config = config.with_obs(reg.clone());
        }
        ShardedWireService::launch(KvStore, w.shards(), config)
    }
    fn client(&mut self, _: Option<&MetricsRegistry>) -> ShardedWireClient<KvStore> {
        // The service hands its registry to the clients it makes.
        ShardedWireService::client(self)
    }
    fn shutdown(self) -> Vec<Vec<Replica<KvStore>>> {
        ShardedWireService::shutdown(self)
    }
}

/// A replica's label order up to the last operation it knows stable at
/// every replica: the prefix whose positions are final (what
/// `ShardedWireService::stable_watermark` reads off a live node).
pub fn stable_prefix(rep: &Replica<KvStore>) -> Vec<OpId> {
    let mut order = rep.local_order();
    let stable = rep.stable_everywhere();
    let solid = order
        .iter()
        .rposition(|id| stable.contains(id))
        .map_or(0, |i| i + 1);
    order.truncate(solid);
    order
}

/// Theorem 8.4 on the replicas a shutdown returned: the orders of their
/// stable-everywhere prefixes agree wherever they overlap.
pub fn check_stable_prefixes(group: &str, reps: &[Replica<KvStore>], errors: &mut Vec<String>) {
    let prefixes: Vec<Vec<OpId>> = reps.iter().map(stable_prefix).collect();
    for (i, a) in prefixes.iter().enumerate() {
        for (j, b) in prefixes.iter().enumerate().skip(i + 1) {
            let common = a.len().min(b.len());
            if let Some(at) = (0..common).find(|&k| a[k] != b[k]) {
                errors.push(format!(
                    "{group}: replicas {i} and {j} order their stable prefixes differently at \
                     position {at} ({} vs {})",
                    a[at], b[at]
                ));
            }
        }
    }
}

fn status_field(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The pace over the final tenth of the operations — at a fixed op count,
/// throughput at a fixed history length. It is the median rate of that
/// tenth's consecutive [`PACE_CHUNK`]-operation chunks, so that the few
/// operations that wait out a 50 ms resend tick, whose number varies run
/// to run, do not drown the history-growth signal; `ops_per_s` counts them.
fn last_decile_pace(done_at: &[Duration]) -> f64 {
    let n = done_at.len();
    let from = (n * 9 / 10).clamp(1, n.max(2) - 1);
    // A tenth shorter than a chunk (the smoke test's) is one chunk.
    let chunk = PACE_CHUNK.min(n.saturating_sub(from)).max(1);
    let rates: Vec<f64> = (from..n)
        .step_by(chunk)
        .filter(|c| c + chunk <= n)
        .map(|c| chunk as f64 / (done_at[c + chunk - 1] - done_at[c - 1]).as_secs_f64())
        .collect();
    stats::median(&rates)
}

fn of_class(src: &[(Class, f64)], classes: &[Class]) -> Vec<f64> {
    src.iter()
        .filter(|(c, _)| classes.contains(c))
        .map(|(_, ms)| *ms)
        .collect()
}

/// The inputs of one pass.
pub struct PassInput {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Divides the pass's size: operations, repetitions, set-ups and
    /// verification reads. 1 but for the in-process smoke test.
    pub scale_div: usize,
    /// A directory of this pass's own for durable stores.
    pub tmp: PathBuf,
}

impl PassInput {
    pub fn timed_ops(&self) -> Vec<GenOp> {
        let mut ops = stream::timed(self.workload, self.seed, self.seconds);
        ops.truncate((ops.len() / self.scale_div).max(1));
        ops
    }

    fn repetitions(&self) -> usize {
        (REPETITIONS / self.scale_div).max(1)
    }

    fn setups(&self) -> usize {
        (SETUPS / self.scale_div).max(1)
    }

    fn verify_keys(&self) -> Vec<String> {
        let mut keys = stream::verify_keys(self.seed);
        keys.truncate((keys.len() / self.scale_div).max(4));
        keys
    }
}

/// One set-up: launch, connect, warm up. What the first timed operation
/// finds, and how long it took to get there.
struct Ready<D: Deployment> {
    deployment: D,
    client: D::Client,
    model: Model,
    last: Option<<D::Client as Client>::Id>,
    dir: Option<PathBuf>,
    setup_s: f64,
}

fn set_up<D: Deployment>(
    input: &PassInput,
    nth: usize,
    registry: Option<&MetricsRegistry>,
    out: &mut PassOutput,
) -> Ready<D> {
    let w = input.workload;
    let warmup = stream::warmup(input.seed);
    let dir = w.durable().then(|| input.tmp.join(format!("setup{nth}")));
    let t = Instant::now();
    let mut deployment = D::launch(w, dir.as_deref(), registry);
    let mut client = deployment.client(registry);
    let mut model = Model::default();
    let mut last = None;
    let warm = run_stream(
        &mut client,
        &warmup,
        &mut model,
        w.window(),
        &mut last,
        false,
    );
    let setup_s = t.elapsed().as_secs_f64();
    out.attempted += warmup.len() as u64;
    out.failed += warm.failed;
    out.errors.extend(warm.errors);
    Ready {
        deployment,
        client,
        model,
        last,
        dir,
        setup_s,
    }
}

fn tear_down<D: Deployment>(ready: Ready<D>, out: &mut PassOutput) {
    drop(ready.client);
    for (g, reps) in ready.deployment.shutdown().iter().enumerate() {
        check_stable_prefixes(&format!("group {g}"), reps, &mut out.errors);
    }
    if let Some(d) = ready.dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// What one timed repetition of the measured pass observed.
#[derive(Default)]
struct Repetition {
    latencies: Vec<(Class, f64)>,
    ops_per_s: f64,
    last_decile_ops_per_s: f64,
    timed_s: f64,
    recovery_s: Option<f64>,
}

/// The measured pass of any workload.
pub fn measured(input: &PassInput) -> PassOutput {
    match input.workload {
        Workload::Shard2Gather => measured_on::<ShardedWireService<KvStore>>(input),
        _ => measured_on::<TcpGroup>(input),
    }
}

/// The counted pass of any workload.
pub fn counted(input: &PassInput) -> PassOutput {
    match input.workload {
        Workload::Shard2Gather => counted_on::<ShardedWireService<KvStore>>(input),
        _ => counted_on::<TcpGroup>(input),
    }
}

/// The measured pass: the timed stream and the correctness gate, once per
/// repetition, each on a fresh deployment.
fn measured_on<D: Deployment>(input: &PassInput) -> PassOutput {
    let w = input.workload;
    let ops = input.timed_ops();
    let mut reads = verification_reads(&input.verify_keys());
    if w.shards() > 1 {
        reads.push(GenOp::new(KvOp::Keys, Class::GatherStrict));
    }
    let mut out = PassOutput::default();
    let mut setup_s = Vec::new();
    let mut reps: Vec<Repetition> = Vec::new();
    let mut failed_timed = 0;

    // Set-ups beyond one per repetition come first: they also fault in the
    // process's memory before anything is timed.
    let extra = input.setups().saturating_sub(input.repetitions());
    for nth in 0..extra + input.repetitions() {
        let mut ready: Ready<D> = set_up(input, nth, None, &mut out);
        setup_s.push(ready.setup_s);
        if nth < extra {
            tear_down(ready, &mut out);
            continue;
        }
        let timed = run_stream(
            &mut ready.client,
            &ops,
            &mut ready.model,
            w.window(),
            &mut ready.last,
            false,
        );
        // Correctness gate: strict reads of sampled keys (and on the sharded
        // deployment one barrier-strict `Keys`) equal the model.
        let verify = run_stream(
            &mut ready.client,
            &reads,
            &mut ready.model,
            1,
            &mut ready.last,
            false,
        );
        out.attempted += (ops.len() + reads.len()) as u64;
        out.failed += timed.failed + verify.failed;
        failed_timed += timed.failed;
        out.errors.extend(timed.errors.iter().cloned());
        out.errors.extend(verify.errors.iter().cloned());

        let mut rep = Repetition::default();
        let n = timed.done_at.len();
        if let Some(end) = timed.done_at.last() {
            rep.timed_s = end.as_secs_f64();
            rep.ops_per_s = n as f64 / rep.timed_s;
            rep.last_decile_ops_per_s = last_decile_pace(&timed.done_at);
        }
        rep.latencies = timed.latencies;
        eprintln!(
            "ledger: {} repetition {}: {:.1} ops/s over {:.2} s, last-decile pace {:.1} ops/s, \
             nonstrict p50 {:.3} ms, set-up {:.3} s",
            w.name(),
            reps.len() + 1,
            rep.ops_per_s,
            rep.timed_s,
            rep.last_decile_ops_per_s,
            stats::tail(&of_class(&rep.latencies, &[Class::Nonstrict]), 50.0).map_or(0.0, |t| t.0),
            ready.setup_s,
        );

        let dir = ready.dir.take();
        let mut model = std::mem::take(&mut ready.model);
        tear_down(ready, &mut out);
        if let Some(dir) = dir {
            let probe = GenOp::new(KvOp::Get(input.verify_keys()[0].clone()), Class::Strict);
            rep.recovery_s = D::restart(&dir, &timed.answered, probe, &mut model, &mut out);
            let _ = std::fs::remove_dir_all(dir);
        }
        // The high-water mark of one deployment's life in a process that
        // has only set up before. Read at the end of the pass it also holds
        // what the allocator kept of the earlier repetitions, and on
        // `tcp3_nonstrict` spread 24 % over ten seeds where this spreads 2 %.
        if reps.is_empty() {
            out.put(
                "peak_rss_mb",
                Metric::new(status_field("VmHWM:") / 1024.0, "MB"),
            );
        }
        reps.push(rep);
    }
    out.errors.truncate(16);

    let median_of = |f: &dyn Fn(&Repetition) -> Option<f64>| -> Option<f64> {
        let v: Vec<f64> = reps.iter().filter_map(f).collect();
        (v.len() == reps.len() && !v.is_empty()).then(|| stats::median(&v))
    };
    let timed_n = ops.len();
    let mut put = |name: &str, v: Option<f64>, unit: &'static str, n: usize| {
        if let Some(v) = v {
            out.put(name, Metric::new(v, unit).with_n(n));
        }
    };
    put("setup_s", Some(stats::mean(&setup_s)), "s", setup_s.len());
    put(
        "ops_per_s",
        median_of(&|r| Some(r.ops_per_s)),
        "1/s",
        timed_n,
    );
    put(
        "last_decile_ops_per_s",
        median_of(&|r| Some(r.last_decile_ops_per_s)),
        "1/s",
        timed_n - timed_n * 9 / 10,
    );
    put("diag.timed_s", median_of(&|r| Some(r.timed_s)), "s", 0);
    put(
        "diag.recovery_s",
        median_of(&|r| r.recovery_s),
        "s",
        reps.len(),
    );
    let strict_of = |r: &Repetition| of_class(&r.latencies, &[Class::Strict, Class::GatherStrict]);
    let nonstrict_of = |r: &Repetition| of_class(&r.latencies, &[Class::Nonstrict]);
    let at = |samples: Vec<f64>, p: f64| stats::tail(&samples, p).filter(|(_, got)| *got == p);
    for (name, p) in [
        ("diag.nonstrict_p50_ms", 50.0),
        ("diag.nonstrict_p90_ms", 90.0),
    ] {
        let n = reps.first().map_or(0, |r| nonstrict_of(r).len());
        put(
            name,
            median_of(&|r| at(nonstrict_of(r), p).map(|t| t.0)),
            "ms",
            n,
        );
    }
    let n = reps.first().map_or(0, |r| strict_of(r).len());
    put(
        "diag.strict_p50_ms",
        median_of(&|r| at(strict_of(r), 50.0).map(|t| t.0)),
        "ms",
        n,
    );

    // Tail and one-workload lines pool the repetitions' samples: a tail
    // needs every sample it can get.
    let pooled =
        |f: &dyn Fn(&Repetition) -> Vec<f64>| -> Vec<f64> { reps.iter().flat_map(f).collect() };
    let mut put_tail = |name: &str, samples: Vec<f64>, want: f64| {
        // A tail the samples cannot support above the median is left out.
        if let Some((v, p)) = stats::tail(&samples, want).filter(|(_, p)| *p == want || *p > 50.0) {
            let mut m = Metric::new(v, "ms").with_n(samples.len());
            m.percentile = Some(p);
            out.put(name, m);
        }
    };
    let nonstrict = pooled(&nonstrict_of);
    let mean = Metric::new(stats::mean(&nonstrict), "ms").with_n(nonstrict.len());
    put_tail("diag.nonstrict_p99_ms", nonstrict, 99.0);
    put_tail("diag.strict_p99_ms", pooled(&strict_of), 99.0);
    let gathers = pooled(&|r| of_class(&r.latencies, &[Class::Gather]));
    put_tail("diag.gather_p50_ms", gathers.clone(), 50.0);
    put_tail("diag.gather_p95_ms", gathers, 95.0);
    out.put("diag.nonstrict_mean_ms", mean);
    let attempted_timed = timed_n * reps.len();
    out.put(
        "diag.failed_share",
        Metric::new(failed_timed as f64 / attempted_timed.max(1) as f64, "share")
            .with_n(attempted_timed),
    );
    out
}

/// The counted pass: one repetition with a live registry.
fn counted_on<D: Deployment>(input: &PassInput) -> PassOutput {
    let w = input.workload;
    let ops = input.timed_ops();
    let registry = MetricsRegistry::new();
    let mut out = PassOutput::default();
    // One untimed set-up first, as the measured pass has before its own
    // first repetition.
    let warm: Ready<D> = set_up(input, 0, None, &mut out);
    tear_down(warm, &mut out);
    let mut ready: Ready<D> = set_up(input, 1, Some(&registry), &mut out);
    let timed = run_stream(
        &mut ready.client,
        &ops,
        &mut ready.model,
        w.window(),
        &mut ready.last,
        true,
    );
    out.attempted += ops.len() as u64;
    out.failed += timed.failed;
    out.errors.extend(timed.errors.iter().cloned());
    out.put(
        "wire.tcp.threads",
        Metric::new(status_field("Threads:"), "count"),
    );

    let snap = registry.snapshot();
    let per_op = |v: u64| v as f64 / ops.len().max(1) as f64;
    out.put(
        "wire.tcp.gossip_msgs_per_op",
        Metric::new(per_op(snap.counter_total("gossip_msgs")), "count"),
    );
    out.put(
        "wire.tcp.gossip_bytes_per_op",
        Metric::new(per_op(snap.counter_total("gossip_bytes")), "bytes"),
    );
    out.put(
        "wire.tcp.resends_per_kop",
        Metric::new(per_op(snap.counter_total("resends")) * 1e3, "1/kop"),
    );
    out.put(
        "wire.tcp.unstable_window_end",
        Metric::new(snap.gauge_max("unstable_window") as f64, "count"),
    );
    out.put(
        "wire.sharded.nak_reroutes",
        Metric::new(snap.counter_total("nak_reroutes") as f64, "count"),
    );
    out.put(
        "store.driver_syncs_per_op",
        Metric::new(per_op(snap.counter_total("syncs")), "count"),
    );
    // The registry keeps one histogram per node; report the relay's, the
    // one on the client's blocking path.
    for (name, h) in &snap.histograms {
        let n = h.count as usize;
        if name == "replica0/wal/sync_us" {
            out.put(
                "store.sync_us_p50",
                Metric::new(h.p50 as f64, "us").with_n(n),
            );
            out.put(
                "store.sync_us_p99",
                Metric::new(h.p99 as f64, "us").with_n(n),
            );
        }
        if name == "client0/await_us" {
            out.put(
                "wire.sharded.await_us_p50",
                Metric::new(h.p50 as f64, "us").with_n(n),
            );
        }
    }

    // The benchmark's own spans around the client's two calls.
    for (name, samples) in [
        ("wire.tcp.submit_us", &timed.submit_us),
        ("wire.tcp.await_us", &timed.await_us),
    ] {
        if let Some((v, _)) = stats::tail(samples, 50.0) {
            out.put(name, Metric::new(v, "us").with_n(samples.len()));
        }
    }
    let keyed = of_class(&timed.latencies, &[Class::Nonstrict]);
    let slow = keyed.iter().filter(|ms| **ms > SLOW_KEYED_MS).count();
    out.put(
        "wire.sharded.slow_keyed_share",
        Metric::new(slow as f64 / keyed.len().max(1) as f64, "share").with_n(keyed.len()),
    );
    if let Some(end) = timed.done_at.last() {
        out.put(
            "raw.counted_ops_per_s",
            Metric::new(timed.done_at.len() as f64 / end.as_secs_f64(), "1/s"),
        );
    }
    tear_down(ready, &mut out);
    out
}
