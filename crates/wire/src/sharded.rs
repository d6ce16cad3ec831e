//! The **sharded TCP deployment**: `S` independent replica clusters on
//! real sockets behind shard-aware clients.
//!
//! This is the real-socket counterpart of `esds-harness`'s
//! `ShardedSimSystem` (virtual time): the keyspace of a
//! [`KeyedDataType`] is partitioned through the shared, versioned
//! [`RoutingTable`] (`key → slot → shard`), and each shard is a
//! complete, unmodified ESDS cluster — its own replicas, its own gossip
//! domain, its own labels and stabilization — here made of
//! [`TcpReplicaNode`]s speaking the framed protocol of this crate. The
//! replicas are volatile ([`ShardedWireService::launch`]) or restarted
//! from disk ([`ShardedWireService::launch_durable`]).
//!
//! Routing, cross-shard `prev`, scatter-gather with its barrier-strict
//! mode, and what a version NAK does to an operation are
//! [`esds_core::ShardCoordinator`]'s (see its docs). A
//! [`ShardedWireClient`] is its **driver** over sockets: frames that
//! arrive become coordinator inputs, its effects become frames, and the
//! client's public calls stay blocking by looping *read → input → poll →
//! write* until the operation they were asked about is released
//! (`submit`) or answered (`await_response`). Timeouts, the re-send of
//! a request that has gone a full 50 ms retry period unanswered since
//! its last write (paper footnote 3 — requests, like gossip, may be
//! lost; a request answered sooner is never duplicated), the `Hello`
//! refresh that rides each re-send, and the 200 µs nap of a waiting
//! client are driver time, and live here.
//!
//! ## The routing-table-version handshake
//!
//! Requests travel as [`FrameKind::ShardedRequest`](crate::FrameKind)
//! frames carrying the client's global [`ShardedOpId`], the per-shard
//! descriptor, **and the table version the client routed under**. A node
//! checks the version against the deployment's shared table *before* the
//! descriptor can reach its replica:
//!
//! * match → the operation is accepted; its eventual answer is a
//!   [`ShardedResponseMsg::Ok`] frame carrying the global id back;
//! * mismatch → the node refuses the descriptor and answers a
//!   [`ShardedResponseMsg::Nak`] carrying the authoritative table, which
//!   the coordinator adopts — a stale view can never read or write the
//!   wrong shard's slice.
//!
//! Routing is deterministic from the table, so a version match certifies
//! the shard choice itself; no per-key check is needed. The hidden
//! sub-operations of a scattered whole-object query travel under the
//! query's own global id, one per involved shard.
//!
//! ## Stability probes
//!
//! A strict whole-object query's barrier is answered by the client's
//! relay: a [`FrameKind::StabilityQuery`](crate::FrameKind) frame is
//! replied to with the relay's label order and what of it the relay
//! knows stable at every replica, on the connection the query came in
//! on. Every answer this client has observed from the shard came
//! through that relay, on the same in-order stream, so the reply covers
//! it.
//!
//! ## Chaos
//!
//! [`ShardedWireConfig::with_chaos`] puts a [`ChaosProxy`] in front of
//! **every per-shard listener**: all request, response-path, and gossip
//! traffic of every cluster dials through the proxies, so loss, delay,
//! duplication and reordering exercise the cross-shard waits and the
//! version handshake — not just a single group's gossip. Lost request
//! frames are re-sent by the client's retry loop; lost gossip is
//! re-shipped by the next tick (§9.3); duplicated batched gossip is
//! absorbed by the watermark handshake (§10.4).
//!
//! Rebalancing *over TCP* (executing a `MigrationPlan` handoff between
//! live clusters) is future work — see `ROADMAP.md`; the version
//! handshake and NAK re-route implemented here are its client-visible
//! half, and the coordinator's `freeze` / `flip` its routing half.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use esds_alg::{Node, Persistence, Replica};
pub use esds_core::WholeObjectUnsupported;
use esds_core::{
    ClientId, Effect, KeyedDataType, OpClass, OpDescriptor, OpId, ReplicaId, RoutingTable,
    ShardCoordinator, ShardedOpId,
};
use parking_lot::Mutex;
use std::sync::Arc;

use crate::chaos::{ChaosConfig, ChaosProxy};
use crate::codec::Wire;
use crate::frame::decode_frame;
use crate::message::{
    decode_message, encode_message, HelloId, ShardedRequestMsg, ShardedResponseMsg, WireMessage,
};
use crate::tcp::{AddrTable, NodeObs, TcpClusterConfig, TcpReplicaNode};

/// How often a client re-sends unanswered requests (paper footnote 3).
const RETRY_EVERY: Duration = Duration::from_millis(50);

/// How long an awaiting client sleeps between pumps. Client sockets are
/// **non-blocking** (a client pumps every shard's connection in turn, so
/// even a short blocking read per idle shard would add S× its timeout to
/// every response); this sleep bounds the resulting spin instead.
const AWAIT_NAP: Duration = Duration::from_micros(200);

/// How long a submitting client waits for a foreign-shard predecessor's
/// response before declaring the deployment broken.
const CROSS_SHARD_WAIT: Duration = Duration::from_secs(30);

/// Configuration of a sharded TCP deployment.
#[derive(Clone, Debug)]
pub struct ShardedWireConfig {
    /// Per-shard cluster configuration (replica count, gossip interval,
    /// gossip encoding, replica state-machine config).
    pub cluster: TcpClusterConfig,
    /// When set, a [`ChaosProxy`] with this fault model fronts every
    /// per-shard listener (per-proxy seeds are derived from the config's
    /// seed, so distinct links get distinct fault streams).
    pub chaos: Option<ChaosConfig>,
    /// Metrics registry shared by every node, proxy, and client of the
    /// deployment (node metrics scoped `shard{s}/replica{r}/…`, proxy
    /// counters `shard{s}/chaos{r}/…`, client counters `client{c}/…`).
    /// Defaults to disabled: every handle is a no-op.
    pub obs: esds_obs::MetricsRegistry,
    /// Sampled op-lifecycle tracer shared by nodes and clients.
    /// Defaults to disabled.
    pub tracer: esds_obs::OpTracer,
}

impl ShardedWireConfig {
    /// Defaults: `n_replicas` per shard, 5 ms gossip, no chaos, metrics
    /// and tracing disabled.
    pub fn new(n_replicas: usize) -> Self {
        ShardedWireConfig {
            cluster: TcpClusterConfig::new(n_replicas),
            chaos: None,
            obs: esds_obs::MetricsRegistry::disabled(),
            tracer: esds_obs::OpTracer::disabled(),
        }
    }

    /// Fronts every per-shard listener with a chaos proxy.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Installs a live metrics registry: every node, chaos proxy, and
    /// client of the deployment reports into it, and any node answers
    /// [`WireMessage::MetricsQuery`] frames from it.
    #[must_use]
    pub fn with_obs(mut self, obs: esds_obs::MetricsRegistry) -> Self {
        self.obs = obs;
        self
    }

    /// Installs a sampled op-lifecycle tracer (see `esds_obs::OpTracer`).
    #[must_use]
    pub fn with_tracer(mut self, tracer: esds_obs::OpTracer) -> Self {
        self.tracer = tracer;
        self
    }
}

/// One shard's cluster: its nodes, the address table everyone dials
/// (proxy addresses under chaos), and the proxies themselves.
struct WireShard<T: esds_core::SerialDataType> {
    nodes: Vec<TcpReplicaNode<T>>,
    addrs: AddrTable,
    proxies: Vec<ChaosProxy>,
}

/// Aggregate fault counters of a deployment's chaos proxies.
#[derive(Copy, Clone, Default, Debug)]
pub struct ChaosStats {
    /// Frames dropped across all proxies.
    pub dropped: u64,
    /// Frames forwarded (duplicates counted once).
    pub forwarded: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames emitted out of order.
    pub reordered: u64,
}

/// A sharded deployment over real sockets: one TCP cluster per shard,
/// all sharing one versioned routing table.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use esds_datatypes::{KvOp, KvStore, KvValue};
/// use esds_wire::{ShardedWireConfig, ShardedWireService};
///
/// let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(3));
/// let mut client = svc.client();
/// let put = client.submit(KvOp::put("user:1", "ada"), &[], false);
/// let get = client.submit(KvOp::get("user:1"), &[put], false);
/// assert_eq!(
///     client.await_response(get, Duration::from_secs(10)),
///     Some(KvValue::Value(Some("ada".into())))
/// );
/// svc.shutdown();
/// ```
pub struct ShardedWireService<T: KeyedDataType> {
    table: Arc<Mutex<RoutingTable>>,
    shards: Vec<WireShard<T>>,
    dt: T,
    next_client: u32,
    obs: esds_obs::MetricsRegistry,
    tracer: esds_obs::OpTracer,
}

impl<T> ShardedWireService<T>
where
    T: KeyedDataType + Clone + Send + 'static,
    T::Operator: Wire + Send + Clone,
    T::Value: Wire + Send + Clone,
    T::State: Send,
{
    /// Launches `n_shards` independent clusters on ephemeral localhost
    /// ports under the initial uniform routing table (version 0).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or listeners cannot bind.
    pub fn launch(dt: T, n_shards: u32, config: ShardedWireConfig) -> Self {
        Self::launch_with_table(dt, RoutingTable::uniform(n_shards), config)
    }

    /// Launches one cluster per shard the `table` addresses, serving
    /// `table` as the deployment's authoritative routing state. Lets a
    /// deployment start mid-history (a nonzero version), which is how the
    /// NAK path is exercised against deliberately stale client views.
    ///
    /// # Panics
    ///
    /// Panics if `config.cluster.n_replicas` is zero or listeners cannot
    /// bind.
    pub fn launch_with_table(dt: T, table: RoutingTable, config: ShardedWireConfig) -> Self {
        let n = config.cluster.n_replicas;
        let groups = (0..table.n_shards())
            .map(|_| {
                (0..n)
                    .map(|i| {
                        let id = ReplicaId(i as u32);
                        let rep = Replica::new(dt.clone(), id, n, config.cluster.replica);
                        Node::new(rep, None)
                    })
                    .collect()
            })
            .collect();
        Self::launch_nodes(dt, table, config, groups, 0)
    }

    /// Launches a sharded deployment over **pre-built** replica groups,
    /// each replica paired with its durable backend (outer index =
    /// shard), under the uniform routing table — the restart-from-disk
    /// entry point: open every `(shard, replica)` store, recovering
    /// whatever survives on disk, and hand the recovered replicas here.
    /// Every replica syncs each input before its effects leave; a failed
    /// persist stops that node, as if its machine had lost power. New
    /// clients are numbered above every client identity the recovered
    /// replicas know.
    ///
    /// There is no separate kill: [`Self::shutdown`] stops each core
    /// before its next input and writes nothing on the way out, so
    /// discarding what it returns is an abrupt cut of the deployment.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty, a group's size differs from
    /// `config.cluster.n_replicas`, or listeners cannot bind.
    #[allow(clippy::type_complexity)]
    pub fn launch_durable(
        dt: T,
        config: ShardedWireConfig,
        groups: Vec<Vec<(Replica<T>, Box<dyn Persistence<T>>)>>,
    ) -> Self {
        assert!(!groups.is_empty(), "need at least one shard");
        // A recycled client identity would alias pre-crash operations id
        // for id: clients number their submissions `(client, seq)` from
        // zero, and a replica answers a known id from its memo. A
        // restored replica keeps its checkpointed prefix only as labels,
        // not as received descriptors, so both are consulted — across
        // every shard, since one client identity is valid in all of them.
        let floor = groups
            .iter()
            .flatten()
            .flat_map(|(r, _)| r.local_order().into_iter().chain(r.rcvd().keys().copied()))
            .map(|id| id.client().0 + 1)
            .max()
            .unwrap_or(0);
        let groups: Vec<Vec<Node<T>>> = groups
            .into_iter()
            .map(|g| {
                assert_eq!(
                    g.len(),
                    config.cluster.n_replicas,
                    "one recovered replica per configured slot"
                );
                g.into_iter().map(|(r, s)| Node::new(r, Some(s))).collect()
            })
            .collect();
        let table = RoutingTable::uniform(groups.len() as u32);
        Self::launch_nodes(dt, table, config, groups, floor)
    }

    fn launch_nodes(
        dt: T,
        table: RoutingTable,
        config: ShardedWireConfig,
        groups: Vec<Vec<Node<T>>>,
        next_client: u32,
    ) -> Self {
        let table = Arc::new(Mutex::new(table));
        let shards = groups
            .into_iter()
            .enumerate()
            .map(|(s, nodes)| Self::launch_shard(s as u32, nodes, &table, &config))
            .collect();
        ShardedWireService {
            table,
            shards,
            dt,
            next_client,
            obs: config.obs.clone(),
            tracer: config.tracer.clone(),
        }
    }

    fn launch_shard(
        shard: u32,
        nodes: Vec<Node<T>>,
        table: &Arc<Mutex<RoutingTable>>,
        config: &ShardedWireConfig,
    ) -> WireShard<T> {
        assert!(!nodes.is_empty(), "each shard needs at least one replica");
        let listeners: Vec<TcpListener> = nodes
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost"))
            .collect();
        let real: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        // Under chaos, everyone — clients and peer replicas alike — dials
        // through the proxies, so every frame of the shard's traffic is
        // subject to the fault model.
        let (proxies, dialed): (Vec<ChaosProxy>, Vec<SocketAddr>) = match &config.chaos {
            Some(chaos) => real
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let mut c = *chaos;
                    c.seed = chaos
                        .seed
                        .wrapping_add(u64::from(shard) * 1009)
                        .wrapping_add(i as u64 * 31);
                    let p = ChaosProxy::spawn(*a, c);
                    // The proxy's live fault counters become registry
                    // sources, read at snapshot time.
                    p.attach_metrics(&config.obs.scoped(format!("shard{shard}/chaos{i}")));
                    let addr = p.addr();
                    (p, addr)
                })
                .unzip(),
            None => (Vec::new(), real),
        };
        let addrs: AddrTable = Arc::new(Mutex::new(dialed));
        // Every node of this shard reports under `shard{s}/replica{r}`
        // and stamps shard `s` on its trace spans.
        let cluster = config.cluster.clone().with_obs(NodeObs {
            registry: config.obs.clone(),
            prefix: format!("shard{shard}"),
            shard,
            tracer: config.tracer.clone(),
        });
        let nodes = nodes
            .into_iter()
            .zip(listeners)
            .map(|(node, l)| {
                TcpReplicaNode::spawn_node(node, l, addrs.clone(), &cluster, Some(table.clone()))
            })
            .collect();
        WireShard {
            nodes,
            addrs,
            proxies,
        }
    }

    /// A snapshot of the deployment's routing table.
    pub fn table(&self) -> RoutingTable {
        self.table.lock().clone()
    }

    /// Number of shard clusters.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate fault counters across every chaos proxy (all zero when
    /// the deployment was launched without chaos).
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut s = ChaosStats::default();
        for shard in &self.shards {
            for p in &shard.proxies {
                s.dropped += p.dropped();
                s.forwarded += p.forwarded();
                s.duplicated += p.duplicated();
                s.reordered += p.reordered();
            }
        }
        s
    }

    /// One shard's **final watermark**: the first node's label order
    /// (shard-local ids) truncated just past the last operation that
    /// node knows is stable at every node ([`esds_spec::final_prefix`]:
    /// final and gap-free). This is the `Stabilize` feed for a streaming
    /// audit ([`crate::ShardedWireAuditor`]). `None` if the node cannot
    /// answer within `timeout` (shutting down or wedged).
    pub fn stable_watermark(&self, shard: u32, timeout: Duration) -> Option<Vec<OpId>> {
        let nodes = &self.shards.get(shard as usize)?.nodes;
        let snap = nodes.first()?.stability(timeout)?;
        Some(esds_spec::final_prefix(snap.order, |id| {
            snap.stable_everywhere.contains(&id)
        }))
    }

    /// A client with the next unused identity and a current view of the
    /// routing table.
    pub fn client(&mut self) -> ShardedWireClient<T> {
        let table = self.table();
        self.client_with_table(table)
    }

    /// A client whose initial routing view is `table` — possibly stale,
    /// in which case its first submission per shard is NAKed and the
    /// client re-routes against the authoritative table. The table must
    /// address no more shards than the deployment has.
    ///
    /// # Panics
    ///
    /// Panics if `table` addresses more shards than the deployment runs.
    pub fn client_with_table(&mut self, table: RoutingTable) -> ShardedWireClient<T> {
        assert!(
            table.n_shards() as usize <= self.shards.len(),
            "client table addresses shards the deployment does not run"
        );
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let links = self
            .shards
            .iter()
            .map(|s| {
                let n = s.nodes.len();
                ShardLink {
                    addrs: s.addrs.clone(),
                    relay: id.0 as usize % n,
                    conn: None,
                    buf: BytesMut::with_capacity(4 * 1024),
                }
            })
            .collect();
        let scope = self.obs.scoped(format!("client{}", id.0));
        ShardedWireClient {
            coord: ShardCoordinator::new(self.dt.clone(), table),
            id,
            links,
            probe_due: vec![None; self.shards.len()],
            metrics_seen: vec![0; self.shards.len()],
            metrics_last: vec![None; self.shards.len()],
            next_retry: Instant::now() + RETRY_EVERY,
            retry_due: BTreeSet::new(),
            m_submitted: scope.counter("ops_submitted"),
            m_answered: scope.counter("ops_answered"),
            m_resends: scope.counter("resends"),
            m_naks: scope.counter("nak_reroutes"),
            m_gathers: scope.counter("gathers"),
            m_await_us: scope.histogram("await_us"),
            slot_ops: HashMap::new(),
            scope,
            tracer: self.tracer.clone(),
        }
    }

    /// Stops every node and proxy, returning the final replica state
    /// machines per shard (outer index = shard, inner = replica).
    pub fn shutdown(self) -> Vec<Vec<Replica<T>>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for shard in self.shards {
            out.push(
                shard
                    .nodes
                    .into_iter()
                    .map(TcpReplicaNode::shutdown)
                    .collect(),
            );
            for p in shard.proxies {
                p.shutdown();
            }
        }
        out
    }
}
/// One client↔shard wire: the shard's address table and the lazily
/// dialed connection to this client's relay replica.
struct ShardLink {
    addrs: AddrTable,
    relay: usize,
    conn: Option<(SocketAddr, TcpStream)>,
    buf: BytesMut,
}

/// A client of a [`ShardedWireService`]: drives an
/// [`esds_core::ShardCoordinator`] over one connection per shard (to the
/// shard's relay replica), speaking the `ShardedRequest` /
/// `ShardedResponse` protocol, re-sending unanswered requests, and
/// feeding version-mismatch NAKs back so the refused operation is
/// re-routed under the newer table.
///
/// The handle resolves only identifiers it issued itself; `prev` sets
/// may reference any of this client's earlier submissions (a front end
/// only ever learns identifiers it requested, paper §6.2).
pub struct ShardedWireClient<T: KeyedDataType> {
    coord: ShardCoordinator<T>,
    id: ClientId,
    links: Vec<ShardLink>,
    /// Per shard: when the outstanding stability probe is re-sent
    /// (`None`: no probe outstanding) — probes and replies are as
    /// losable as any other frame.
    probe_due: Vec<Option<Instant>>,
    /// Per shard: how many [`WireMessage::MetricsInfo`] replies have
    /// arrived, and the latest one — a poll sends a fresh probe and
    /// waits for the counter to advance, so it never reads a stale
    /// snapshot.
    metrics_seen: Vec<u64>,
    metrics_last: Vec<Option<esds_obs::MetricsSnapshot>>,
    next_retry: Instant,
    /// The placements `(shard, local id)` unanswered at the last retry
    /// tick and not written since: the next tick re-sends exactly these
    /// (see [`Self::maybe_retry`]). Rebuilt at every tick from the
    /// coordinator's outstanding placements, so bounded by them.
    retry_due: BTreeSet<(u32, OpId)>,
    m_submitted: esds_obs::Counter,
    m_answered: esds_obs::Counter,
    m_resends: esds_obs::Counter,
    m_naks: esds_obs::Counter,
    m_gathers: esds_obs::Counter,
    /// Bounded (log-bucketed) histogram of await-to-answer times — the
    /// fixed-footprint service-side replacement for the simulator's
    /// exact, unbounded `esds_sim::Histogram`.
    m_await_us: esds_obs::Histo,
    /// Lazily created per-slot operation counters (`slot{n}/ops`).
    slot_ops: HashMap<u16, esds_obs::Counter>,
    scope: esds_obs::Scope,
    tracer: esds_obs::OpTracer,
}

impl<T> ShardedWireClient<T>
where
    T: KeyedDataType,
    T::Operator: Wire + Clone,
    T::Value: Wire + Clone,
{
    /// The client identity (mints both global and per-shard ids).
    pub fn client(&self) -> ClientId {
        self.id
    }

    /// The routing-table version this client currently routes under.
    pub fn table_version(&self) -> u64 {
        self.coord.table().version()
    }

    /// The shard `id` is currently placed on, if issued by this handle.
    /// `None` for a scattered whole-object query — it lives on every
    /// involved shard; see [`Self::gather_detail`].
    pub fn shard_of(&self, id: ShardedOpId) -> Option<u32> {
        self.coord.placement(id).map(|(s, _)| s)
    }

    /// The table version `id` was last routed (for a gather: scattered)
    /// under.
    pub fn routed_version(&self, id: ShardedOpId) -> Option<u64> {
        self.coord.routed_version(id)
    }

    /// For a scattered whole-object query: the per-shard sub-operation
    /// ids and — when strict — the answered-frontier snapshot each
    /// sub-operation was barrier-ordered after. Together these form the
    /// `esds_spec::ShardBarrier` records of the conformance predicate
    /// (`esds_spec::check_barrier_cut`): each shard's eventual order
    /// must place the sub-operation after its whole frontier. `None`
    /// for keyed operations and ids this handle did not issue.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(BTreeMap<u32, OpId>, BTreeMap<u32, Vec<OpId>>)> {
        self.coord
            .gather_detail(id)
            .map(|(subs, frontier)| (subs.clone(), frontier.clone()))
    }

    /// For an *answered* scattered whole-object query: the per-shard
    /// trace its hidden sub-operations contributed — `(shard,
    /// descriptor, value, witness)` in ascending shard order. Each
    /// sub-operation is an ordinary request of its shard answered with
    /// that shard's slice, so a black-box per-shard checker records
    /// these exactly like keyed traffic. `None` for keyed operations,
    /// gathers with unanswered sub-operations, and ids this handle did
    /// not issue.
    #[allow(clippy::type_complexity)]
    pub fn gather_sub_trace(
        &self,
        id: ShardedOpId,
    ) -> Option<Vec<(u32, OpDescriptor<T::Operator>, T::Value, Option<Vec<OpId>>)>> {
        self.coord.gather_sub_trace(id)
    }

    /// The per-shard descriptor `id` is currently submitted as (shard,
    /// local id, same-shard `prev`, strictness) — what a black-box trace
    /// checker records as the shard's `request(x)` action. Built by the
    /// same constructor as the request frame's descriptor, so the
    /// recorded trace cannot diverge from what was sent.
    pub fn local_descriptor(&self, id: ShardedOpId) -> Option<(u32, OpDescriptor<T::Operator>)> {
        self.coord.local_descriptor(id)
    }

    /// The value previously returned for `id`, if answered.
    pub fn value_of(&self, id: ShardedOpId) -> Option<&T::Value> {
        self.coord.value_of(id)
    }

    /// The witness the response carried, if any (requires the deployment
    /// to run with `ReplicaConfig::with_witness`).
    pub fn witness_of(&self, id: ShardedOpId) -> Option<&Vec<OpId>> {
        self.coord.witness_of(id)
    }

    /// Submits an operation and returns its global id once its request
    /// frame(s) have been written. Single-key operators route to the
    /// shard owning their key under this client's table view; a keyless,
    /// mergeable operator on a table spanning more than one shard is
    /// **scattered** across every involved shard and gathered with
    /// [`KeyedDataType::merge_gathered`] (strict gathers take a
    /// per-shard stability barrier first). Blocks (up to the configured
    /// cross-shard timeout) while a foreign-shard `prev` entry is
    /// unanswered or a barrier stabilizes; same-shard entries ride each
    /// shard's own protocol as the local `prev` set.
    ///
    /// # Panics
    ///
    /// Panics if `prev` names an id this handle did not issue, if the
    /// operation is still blocked past the cross-shard timeout (the
    /// deployment is then considered broken — the same situation in
    /// which [`ShardedWireClient::await_response`] would return `None`),
    /// or if the operation is a whole-object query the deployment cannot
    /// gather — use [`Self::try_submit`] to handle that case as a value.
    pub fn submit(&mut self, op: T::Operator, prev: &[ShardedOpId], strict: bool) -> ShardedOpId {
        self.try_submit(op, prev, strict)
            .unwrap_or_else(|e| panic!("{e}; use try_submit to handle this case"))
    }

    /// Like [`Self::submit`], but a keyless operator without a gather
    /// merge on a multi-shard table is refused with
    /// [`WholeObjectUnsupported`] instead of panicking (answering it
    /// from one shard's slice would silently drop every other shard's
    /// contribution).
    ///
    /// # Errors
    ///
    /// [`WholeObjectUnsupported`] as described.
    ///
    /// # Panics
    ///
    /// As [`Self::submit`], except for the un-gatherable whole-object
    /// case, which is returned as an error.
    pub fn try_submit(
        &mut self,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> Result<ShardedOpId, WholeObjectUnsupported> {
        let gathered = self.coord.classify(&op) == OpClass::Gatherable;
        let slot = self.scope.is_enabled().then(|| self.coord.slot_of(&op));
        let gid = self.coord.try_submit(self.id, op, prev, strict)?;
        self.m_submitted.inc();
        if gathered {
            self.m_gathers.inc();
        } else if let Some(slot) = slot {
            self.slot_ops
                .entry(slot)
                .or_insert_with(|| self.scope.counter(&format!("slot{slot}/ops")))
                .inc();
        }
        // A gather has no single home shard; its spans carry shard 0.
        let shard = self.shard_of(gid).unwrap_or(0);
        self.tracer
            .emit(shard, &gid.to_string(), esds_obs::Stage::Submit);
        // A ready operation's frame goes out in this very pump.
        self.pump();
        let deadline = Instant::now() + CROSS_SHARD_WAIT;
        assert!(
            self.drive_until(deadline, |c| c.is_released(gid)),
            "{gid} still blocked on {:?} after {:?}",
            self.coord.blocked_on(gid),
            CROSS_SHARD_WAIT
        );
        Ok(gid)
    }

    /// Waits until `id` is answered or `timeout` elapses, re-sending
    /// each request that has gone a full 50 ms retry period unanswered
    /// since its last write, and processing NAK re-routes (for a
    /// scattered whole-object query: re-scattering it).
    pub fn await_response(&mut self, id: ShardedOpId, timeout: Duration) -> Option<T::Value> {
        if !self.coord.contains(id) {
            return None;
        }
        let start = Instant::now();
        if !self.drive_until(start + timeout, |c| c.value_of(id).is_some()) {
            return None;
        }
        if self.m_await_us.is_enabled() {
            self.m_await_us.record(start.elapsed().as_micros() as u64);
        }
        self.coord.value_of(id).cloned()
    }

    /// The blocking loop behind every public call: pump, retry and nap
    /// until `done` holds (true) or `deadline` passes (false).
    fn drive_until(
        &mut self,
        deadline: Instant,
        done: impl Fn(&ShardCoordinator<T>) -> bool,
    ) -> bool {
        loop {
            if done(&self.coord) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.maybe_retry();
            self.pump();
            std::thread::sleep(AWAIT_NAP);
        }
    }

    /// Polls `shard`'s relay node for its **process-wide** metrics
    /// snapshot (a [`WireMessage::MetricsQuery`] frame), waiting up to
    /// `timeout` for a reply *newer than the probe* — probes and replies
    /// ride the same lossy links as everything else, so the probe is
    /// re-sent every retry period. `None` past the timeout. A node
    /// running with metrics disabled answers an empty snapshot.
    pub fn metrics_snapshot(
        &mut self,
        shard: u32,
        timeout: Duration,
    ) -> Option<esds_obs::MetricsSnapshot> {
        let deadline = Instant::now() + timeout;
        let baseline = self.metrics_seen[shard as usize];
        let mut next_probe = Instant::now();
        loop {
            if Instant::now() >= next_probe {
                self.send_query(shard, &WireMessage::MetricsQuery);
                next_probe = Instant::now() + RETRY_EVERY;
            }
            self.maybe_retry();
            self.pump();
            if self.metrics_seen[shard as usize] > baseline {
                return self.metrics_last[shard as usize].clone();
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(AWAIT_NAP);
        }
    }

    /// Sends a payload-free query frame to `shard`'s relay. The reply
    /// comes back on the connection the query went out on, so it needs
    /// no registration.
    fn send_query(&mut self, shard: u32, msg: &WireMessage<T::Operator, T::Value>) {
        let mut out = BytesMut::new();
        encode_message(msg, &mut out);
        self.links[shard as usize].send(self.id, &out, false);
    }

    /// Encodes and sends one request frame to its shard's relay. Failures
    /// are absorbed — the retry loop re-sends. A write restarts the
    /// placement's retry clock (see [`Self::maybe_retry`]).
    fn send_request(&mut self, e: Effect<T::Operator>, refresh_hello: bool) {
        let Effect::Send {
            shard,
            global,
            version,
            desc,
        } = e
        else {
            return;
        };
        self.retry_due.remove(&(shard, desc.id));
        let msg: WireMessage<T::Operator, T::Value> =
            WireMessage::ShardedRequest(ShardedRequestMsg {
                version,
                global,
                desc,
            });
        let mut out = BytesMut::new();
        encode_message(&msg, &mut out);
        self.links[shard as usize].send(self.id, &out, refresh_hello);
    }

    /// At every retry tick, re-sends each request that was already
    /// unanswered at the previous tick and not written since — so an
    /// unanswered request goes out again between one and two
    /// [`RETRY_EVERY`] periods after its last write, and one answered
    /// sooner is never duplicated. Also re-sends any stability probe
    /// whose own period has lapsed.
    fn maybe_retry(&mut self) {
        let now = Instant::now();
        for shard in 0..self.links.len() {
            if self.probe_due[shard].is_some_and(|due| now >= due) {
                self.probe_due[shard] = Some(now + RETRY_EVERY);
                self.send_query(shard as u32, &WireMessage::StabilityQuery);
            }
        }
        if now < self.next_retry {
            return;
        }
        self.next_retry = now + RETRY_EVERY;
        // Retries refresh the Hello preamble: under chaos the original
        // Hello may have been dropped while the connection stayed up, in
        // which case the node is answering an unregistered client into
        // the void. Re-registering is idempotent and a Hello frame is a
        // few bytes, so every re-send repairs registration for free.
        //
        // A request written a few µs before the tick is not re-sent: its
        // duplicate answer would reach the relay's Nagle-buffered socket
        // right behind the first, and the client's next answer would
        // then wait out the client's delayed ACK (~40 ms).
        let due = std::mem::take(&mut self.retry_due);
        for e in self.coord.unanswered_sends() {
            let Effect::Send { shard, desc, .. } = &e else {
                continue;
            };
            let placement = (*shard, desc.id);
            if due.contains(&placement) {
                self.m_resends.inc();
                self.send_request(e, true);
            }
            self.retry_due.insert(placement);
        }
    }

    /// One driver round: whatever frames have arrived on any shard link
    /// become coordinator inputs, then its effects are executed.
    fn pump(&mut self) {
        for (shard, link) in self.links.iter_mut().enumerate() {
            link.read_into_buf();
            loop {
                match decode_frame(&mut link.buf) {
                    Ok(Some(frame)) => {
                        let Ok(msg) = decode_message::<T::Operator, T::Value>(&frame) else {
                            link.conn = None;
                            link.buf.clear();
                            break;
                        };
                        match msg {
                            WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                                global,
                                resp,
                            }) if global.client() == self.id => {
                                self.coord.on_answer(
                                    shard as u32,
                                    resp.id,
                                    resp.value,
                                    resp.witness,
                                );
                            }
                            WireMessage::ShardedResponse(ShardedResponseMsg::Nak {
                                global,
                                table,
                            }) if global.client() == self.id => {
                                self.m_naks.inc();
                                self.tracer.emit(
                                    shard as u32,
                                    &global.to_string(),
                                    esds_obs::Stage::NakReroute,
                                );
                                self.coord.on_nak(global, table);
                            }
                            WireMessage::StabilityInfo(info) => {
                                self.probe_due[shard] = None;
                                let stable: BTreeSet<OpId> =
                                    info.stable_everywhere.into_iter().collect();
                                self.coord.on_stability(shard as u32, info.order, &stable);
                            }
                            WireMessage::MetricsInfo(snap) => {
                                self.metrics_last[shard] = Some(snap);
                                self.metrics_seen[shard] += 1;
                            }
                            _ => {} // other clients' frames / plain frames: not ours
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        link.conn = None;
                        link.buf.clear();
                        break;
                    }
                }
            }
        }
        let mut fanned_out = None;
        for e in self.coord.poll() {
            match e {
                Effect::Send { shard, global, .. } => {
                    if self.tracer.is_enabled() {
                        let gs = global.to_string();
                        if self.coord.gather_detail(global).is_none() {
                            self.tracer.emit(shard, &gs, esds_obs::Stage::Route);
                        } else if fanned_out.replace(global) != Some(global) {
                            self.tracer.emit(0, &gs, esds_obs::Stage::GatherFanout);
                        }
                    }
                    self.send_request(e, false);
                }
                Effect::ProbeStability { shard } => {
                    self.probe_due[shard as usize] = Some(Instant::now() + RETRY_EVERY);
                    self.send_query(shard, &WireMessage::StabilityQuery);
                }
                // Counted once per operation, on first delivery: a
                // duplicating link may replay the response frame, and
                // `ops_answered` must stay ≤ `ops_submitted`.
                Effect::Answered { global } => {
                    self.m_answered.inc();
                    let shard = self.shard_of(global).unwrap_or(0);
                    self.tracer
                        .emit(shard, &global.to_string(), esds_obs::Stage::Answer);
                }
            }
        }
    }
}

impl ShardLink {
    /// Ensures a live connection to the relay (Hello preamble included)
    /// and writes `frame_bytes`; failures clear the slot for a retry.
    /// With `refresh_hello`, the Hello preamble is repeated even on an
    /// already-open connection — registration at the node is idempotent,
    /// and under a lossy link the dial-time Hello may never have arrived
    /// (the node then answers an unregistered client into the void, and
    /// nothing else would ever re-register on the still-healthy socket).
    fn send(&mut self, client: ClientId, frame_bytes: &[u8], refresh_hello: bool) {
        let addr = self.addrs.lock()[self.relay];
        if self.conn.as_ref().is_some_and(|(d, _)| *d != addr) {
            self.conn = None;
        }
        let mut hello = BytesMut::new();
        // Hello frames carry no operator/value payloads, so the
        // concrete message type parameters are irrelevant here.
        encode_message::<u64, u64>(&WireMessage::Hello(HelloId::Client(client)), &mut hello);
        if self.conn.is_none() {
            let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
                return;
            };
            let _ = s.set_nodelay(true);
            let _ = s.set_nonblocking(true);
            if s.write_all(&hello).is_err() {
                return;
            }
            self.buf.clear();
            self.conn = Some((addr, s));
        } else if refresh_hello {
            if let Some((_, s)) = &mut self.conn {
                if s.write_all(&hello).is_err() {
                    self.conn = None;
                    return;
                }
            }
        }
        if let Some((_, s)) = &mut self.conn {
            if s.write_all(frame_bytes).is_err() {
                self.conn = None;
            }
        }
    }

    /// Drains whatever bytes are available right now (the socket is
    /// non-blocking) into this link's frame buffer.
    fn read_into_buf(&mut self) {
        let Some((_, s)) = &mut self.conn else { return };
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => {
                    self.conn = None;
                    return;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.conn = None;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::MigrationPlan;
    use esds_datatypes::{KvOp, KvStore, KvValue};

    #[test]
    fn sharded_wire_roundtrip_and_spread() {
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(c.submit(KvOp::put(format!("k{i}"), format!("{i}")), &[], false));
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack),
                "put k{i} timed out"
            );
        }
        for i in 0..10 {
            let get = c.submit(KvOp::get(format!("k{i}")), &[], false);
            assert_eq!(
                c.await_response(get, Duration::from_secs(10)),
                Some(KvValue::Value(Some(format!("{i}"))))
            );
        }
        // Both shards actually received traffic.
        let shards: BTreeSet<u32> = (0..10)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        // A strict fence per shard: when it answers, everything before
        // it is stable at every replica of its shard, so the
        // convergence check below cannot race gossip.
        for shard in 0..2u32 {
            let i = (0..10)
                .find(|i| table.shard_of_key(&format!("k{i}")) == shard)
                .expect("both shards have keys");
            let fence = c.submit(KvOp::get(format!("k{i}")), &ids.clone(), true);
            assert_eq!(
                c.await_response(fence, Duration::from_secs(30)),
                Some(KvValue::Value(Some(format!("{i}")))),
                "strict fence on shard {shard} did not stabilize"
            );
        }
        // Each shard's replicas converged among themselves.
        for (s, reps) in svc.shutdown().into_iter().enumerate() {
            let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
            assert!(
                states.windows(2).all(|w| w[0] == w[1]),
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn cross_shard_prev_waits_over_the_wire() {
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        // Submitting with a cross-shard prev blocks until wa is answered.
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        assert_eq!(c.value_of(wa), Some(&KvValue::Ack));
        assert_ne!(c.shard_of(wa), c.shard_of(wb));
        assert_eq!(
            c.await_response(wb, Duration::from_secs(10)),
            Some(KvValue::Ack)
        );
        svc.shutdown();
    }

    #[test]
    fn transitive_prev_through_foreign_hop_is_inherited() {
        // Chain A (shard s) ← B (foreign) ← C (shard s): C must carry
        // A's ordering into the shard even though its only direct prev
        // is foreign. Slow gossip keeps A from propagating on its own.
        let mut cfg = ShardedWireConfig::new(2);
        cfg.cluster.gossip_interval = Duration::from_secs(5);
        let mut svc = ShardedWireService::launch(KvStore, 2, cfg);
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let a = c.submit(KvOp::put(&ka, "1"), &[], false);
        let b = c.submit(KvOp::put(&kb, "2"), &[a], false);
        let read = c.submit(KvOp::get(&ka), &[b], false);
        assert_eq!(c.shard_of(read), c.shard_of(a), "same key, same shard");
        assert_eq!(
            c.await_response(read, Duration::from_secs(10)),
            Some(KvValue::Value(Some("1".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn stale_client_is_nakked_and_reroutes() {
        // The deployment runs at table v1 (a 2-shard table grown to 3);
        // the client's view is the v0 uniform 2-shard table. Every
        // submission under v0 is refused with a NAK carrying the v1
        // table; the client adopts it, re-routes, and the operation
        // lands on the correct shard — reads never route stale.
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        assert_eq!(grown.version(), 1);
        let mut svc = ShardedWireService::launch_with_table(
            KvStore,
            grown.clone(),
            ShardedWireConfig::new(2),
        );
        let stale = RoutingTable::uniform(2);
        let mut c = svc.client_with_table(stale.clone());
        assert_eq!(c.table_version(), 0);

        // A key the two tables route differently (one that moved to the
        // new shard).
        let key = (0..1000)
            .map(|i| format!("k{i}"))
            .find(|k| grown.shard_of_key(k) != stale.shard_of_key(k))
            .expect("some key moved");
        let put = c.submit(KvOp::put(&key, "fresh"), &[], false);
        assert_eq!(
            c.await_response(put, Duration::from_secs(10)),
            Some(KvValue::Ack)
        );
        // The NAK upgraded the client and relocated the operation.
        assert_eq!(c.table_version(), 1);
        assert_eq!(c.shard_of(put), Some(grown.shard_of_key(&key)));
        assert_eq!(c.routed_version(put), Some(1));

        // A fresh, current-table client reads the value from the right
        // shard — the stale client's write did not land on the old
        // owner. The reader relays through a *different* replica than
        // the writer, so a nonstrict read may race gossip; poll until
        // the eventually-consistent read converges (bounded).
        let mut reader = svc.client();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let get = reader.submit(KvOp::get(&key), &[], false);
            assert_eq!(reader.shard_of(get), Some(grown.shard_of_key(&key)));
            let v = reader.await_response(get, Duration::from_secs(10));
            if v == Some(KvValue::Value(Some("fresh".into()))) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "re-routed write never became visible on the new owner: {v:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        svc.shutdown();
    }

    #[test]
    fn duplicate_naks_do_not_double_apply_the_rerouted_op() {
        // Every frame is duplicated, so each stale-version request
        // provokes (at least) two NAKs for the same global operation.
        // The re-route must be idempotent: the first NAK relocates the
        // operation, stragglers merely re-send the *same* per-shard id.
        // Minting a fresh id per NAK would deposit twice — Bank is
        // non-idempotent, so the strict balance pins the exact amount.
        use esds_datatypes::{Bank, BankOp, BankValue};
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        let chaos = ChaosConfig::lossy(0.0, 77).with_duplication(1.0);
        let mut svc = ShardedWireService::launch_with_table(
            Bank,
            grown,
            ShardedWireConfig::new(2).with_chaos(chaos),
        );
        let mut c = svc.client_with_table(RoutingTable::uniform(2));
        let dep = c.submit(BankOp::Deposit(10), &[], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(BankValue::Ack)
        );
        assert_eq!(c.table_version(), 1, "NAK adopted");
        let bal = c.submit(BankOp::Balance, &[dep], true);
        assert_eq!(
            c.await_response(bal, Duration::from_secs(30)),
            Some(BankValue::Balance(10)),
            "a duplicated NAK re-minted the deposit"
        );
        let stats = svc.chaos_stats();
        assert!(stats.duplicated > 0, "duplication must actually happen");
        svc.shutdown();
    }

    /// Finds `per_shard` keys owned by every shard of `table`, drawing
    /// from a deterministic key stream.
    fn keys_covering(table: &RoutingTable, per_shard: usize) -> Vec<String> {
        let mut by_shard: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for i in 0..10_000 {
            let k = format!("k{i}");
            let owner = table.shard_of_key(&k);
            let bucket = by_shard.entry(owner).or_default();
            if bucket.len() < per_shard {
                bucket.push(k);
            }
            if by_shard.len() == table.n_shards() as usize
                && by_shard.values().all(|b| b.len() == per_shard)
            {
                break;
            }
        }
        assert_eq!(by_shard.len(), table.n_shards() as usize, "coverage");
        by_shard.into_values().flatten().collect()
    }

    #[test]
    fn whole_object_keys_gathers_union_across_shards() {
        // The PR's headline bug, on the wire: Keys is a whole-object
        // query, so on a 2-shard deployment it must return *both*
        // shards' key sets — not the home shard's slice. With every put
        // in `prev`, each per-shard sub-operation is ordered after that
        // shard's puts, so even the eventual-mode gather is exact.
        let mut svc = ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let keys = keys_covering(&table, 3);
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(c.await_response(*id, Duration::from_secs(10)).is_some());
        }
        let q = c.submit(KvOp::Keys, &puts, false);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(
            c.await_response(q, Duration::from_secs(10)),
            Some(KvValue::Keys(expect)),
            "gathered Keys must union every shard's slice"
        );
        assert_eq!(c.shard_of(q), None, "a gather lives on every shard");
        let (subs, frontier) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 2, "one sub-operation per involved shard");
        assert!(frontier.is_empty(), "eventual gathers take no barrier");
        // A gathered query works as a `prev`: the dependent get anchors
        // on the gather's sub-operation on its own shard.
        let dep = c.submit(KvOp::get(&keys[0]), &[q], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(KvValue::Value(Some("v".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn barrier_strict_keys_is_exact_on_four_shards() {
        // Acceptance: on a live 4-shard TCP deployment, a barrier-strict
        // Keys with *no* prev returns exactly the union a 1-shard
        // deployment would — everything this client has been answered
        // for is covered by each relay's frontier snapshot — and the
        // recorded (frontier, sub) pairs satisfy the spec-level barrier
        // predicate against each shard's stable watermark.
        use esds_spec::{check_barrier_cut, ShardBarrier};
        let mut svc = ShardedWireService::launch(KvStore, 4, ShardedWireConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let keys = keys_covering(&table, 3);
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(c.await_response(*id, Duration::from_secs(10)).is_some());
        }
        let q = c.submit(KvOp::Keys, &[], true);
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(
            c.await_response(q, Duration::from_secs(30)),
            Some(KvValue::Keys(expect)),
            "barrier-strict Keys must equal the 1-shard union"
        );
        let (subs, frontier) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 4);
        assert_eq!(frontier.len(), 4, "strict gathers barrier every shard");
        for (shard, sub) in &subs {
            let b = ShardBarrier {
                shard: *shard,
                frontier: frontier[shard].clone(),
                sub: *sub,
            };
            // The watermark grows to include the strict sub-operation
            // (it was answered, hence stable); then the barrier cut must
            // hold in the shard's final order prefix.
            let deadline = Instant::now() + Duration::from_secs(30);
            let order = loop {
                let w = svc
                    .stable_watermark(*shard, Duration::from_secs(5))
                    .expect("node answers stability probes");
                if w.contains(sub) {
                    break w;
                }
                assert!(
                    Instant::now() < deadline,
                    "sub-operation never entered shard {shard}'s watermark"
                );
                std::thread::sleep(Duration::from_millis(10));
            };
            assert_eq!(
                check_barrier_cut(&b, &order),
                Vec::new(),
                "barrier violated on shard {shard}"
            );
        }
        svc.shutdown();
    }

    #[test]
    fn ungatherable_whole_object_is_refused_on_multishard_tables() {
        // A keyless operator without a merge cannot be answered from one
        // shard's slice: `try_submit` refuses it with the typed error on
        // a multi-shard table, and `submit` would panic. On a 1-shard
        // table the home slot's owner holds the whole object, so legacy
        // routing stays exact and allowed.
        #[derive(Clone)]
        struct NoGatherKv;
        impl esds_core::SerialDataType for NoGatherKv {
            type State = <KvStore as esds_core::SerialDataType>::State;
            type Operator = KvOp;
            type Value = KvValue;
            fn initial_state(&self) -> Self::State {
                KvStore.initial_state()
            }
            fn apply(&self, s: &Self::State, op: &Self::Operator) -> (Self::State, Self::Value) {
                KvStore.apply(s, op)
            }
        }
        impl KeyedDataType for NoGatherKv {
            fn shard_key<'a>(&self, op: &'a KvOp) -> Option<&'a str> {
                KvStore.shard_key(op)
            }
            // merge_gathered: default None — Keys becomes un-gatherable.
        }

        let mut svc = ShardedWireService::launch(NoGatherKv, 2, ShardedWireConfig::new(1));
        let mut c = svc.client();
        assert_eq!(
            c.try_submit(KvOp::Keys, &[], false),
            Err(WholeObjectUnsupported)
        );
        assert_eq!(
            c.try_submit(KvOp::Keys, &[], true),
            Err(WholeObjectUnsupported),
            "strictness does not make a partial answer true"
        );
        // Keyed operators are unaffected.
        let put = c.submit(KvOp::put("a", "1"), &[], false);
        assert!(c.await_response(put, Duration::from_secs(10)).is_some());
        svc.shutdown();

        let mut single = ShardedWireService::launch(NoGatherKv, 1, ShardedWireConfig::new(1));
        let mut c1 = single.client();
        let w = c1.submit(KvOp::put("a", "1"), &[], false);
        let q = c1
            .try_submit(KvOp::Keys, &[w], false)
            .expect("one shard holds the whole object");
        assert_eq!(
            c1.await_response(q, Duration::from_secs(10)),
            Some(KvValue::Keys(vec!["a".into()]))
        );
        single.shutdown();
    }

    #[test]
    fn nakked_gather_rescatters_under_adopted_table() {
        // Satellite: a gather scattered under a stale table is NAKed per
        // sub-operation; the client must adopt the newer table and
        // re-scatter the *whole* query across the new involved shard
        // set — the fix for keyless routing racing a table flip.
        let mut grown = RoutingTable::uniform(2);
        grown.apply(&MigrationPlan::add_shard(&grown));
        let mut svc = ShardedWireService::launch_with_table(
            KvStore,
            grown.clone(),
            ShardedWireConfig::new(2),
        );
        // Seed all three shards through a current-table client.
        let keys = keys_covering(&grown, 2);
        let mut seeder = svc.client();
        let mut puts = Vec::new();
        for k in &keys {
            puts.push(seeder.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &puts {
            assert!(seeder
                .await_response(*id, Duration::from_secs(10))
                .is_some());
        }
        // The stale client's *first* submission is the gather: both v0
        // sub-operations are refused, the v1 table is adopted, and the
        // repair re-scatters across all three shards.
        let mut c = svc.client_with_table(RoutingTable::uniform(2));
        assert_eq!(c.table_version(), 0);
        let q = c.submit(KvOp::Keys, &[], false);
        assert!(
            c.await_response(q, Duration::from_secs(30)).is_some(),
            "re-scattered gather never answered"
        );
        assert_eq!(c.table_version(), 1, "NAK adopted");
        assert_eq!(c.routed_version(q), Some(1), "gather re-scattered");
        let (subs, _) = c.gather_detail(q).expect("gather bookkeeping");
        assert_eq!(subs.len(), 3, "new shard set includes the added shard");
        // An eventual read may predate gossip of the seeder's puts;
        // poll until the union converges to the full key set (bounded).
        let mut expect = keys.clone();
        expect.sort();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let q = c.submit(KvOp::Keys, &[], false);
            let v = c.await_response(q, Duration::from_secs(10));
            if v == Some(KvValue::Keys(expect.clone())) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "gathered union never converged: {v:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        svc.shutdown();
    }

    #[test]
    fn chaos_fronts_every_listener_and_work_completes() {
        // 10% loss plus duplication on every frame of every shard's
        // traffic (requests, responses, gossip): retries and gossip
        // re-shipping must still drive a cross-shard chain to completion.
        let chaos = ChaosConfig::lossy(0.10, 1234).with_duplication(0.10);
        let mut svc =
            ShardedWireService::launch(KvStore, 2, ShardedWireConfig::new(2).with_chaos(chaos));
        let table = svc.table();
        let mut c = svc.client();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        let ra = c.submit(KvOp::get(&ka), &[wb], false);
        assert_eq!(
            c.await_response(ra, Duration::from_secs(30)),
            Some(KvValue::Value(Some("1".into())))
        );
        let stats = svc.chaos_stats();
        assert!(stats.forwarded > 0, "proxies must carry the traffic");
        svc.shutdown();
    }

    /// Drives `n` keyed `Put`/`Get` operations one at a time through a
    /// fresh 1-shard deployment of `config` with metrics on, and returns
    /// how many were answered, the client's `resends` counter, and
    /// `Σ ⌊latency / RETRY_EVERY⌋` over the operations — the most
    /// re-sends a client may make if it re-sends only requests that
    /// have gone a full retry period unanswered.
    fn keyed_ops_one_at_a_time(n: usize, config: ShardedWireConfig) -> (usize, u64, u64) {
        let reg = esds_obs::MetricsRegistry::new();
        let mut svc = ShardedWireService::launch(KvStore, 1, config.with_obs(reg.clone()));
        let mut c = svc.client();
        let (mut answered, mut allowed) = (0, 0);
        for i in 0..n {
            let key = format!("k{}", i % 8);
            let op = if i % 2 == 0 {
                KvOp::put(&key, i.to_string())
            } else {
                KvOp::get(&key)
            };
            let start = Instant::now();
            let id = c.submit(op, &[], false);
            if c.await_response(id, Duration::from_secs(30)).is_some() {
                answered += 1;
            }
            allowed += (start.elapsed().as_micros() / RETRY_EVERY.as_micros()) as u64;
        }
        let resends = reg
            .snapshot()
            .counter(&format!("client{}/resends", c.client().0))
            .unwrap_or(0);
        svc.shutdown();
        (answered, resends, allowed)
    }

    #[test]
    fn lossless_link_never_resends_a_request_answered_within_the_retry_period() {
        // Re-sending a request the relay is about to answer makes it
        // write two answers back to back on its Nagle-buffered socket,
        // and the client's next answer then waits out a ~40 ms delayed
        // ACK. Without loss, a request may only be re-sent after it has
        // gone a full retry period unanswered.
        let mut config = ShardedWireConfig::new(3);
        config.cluster.replica = esds_alg::ReplicaConfig::default().with_batched(1);
        let (answered, resends, allowed) = keyed_ops_one_at_a_time(400, config);
        assert_eq!(answered, 400);
        assert!(
            resends <= allowed,
            "{resends} re-sends, but only {allowed} retry periods were waited out"
        );
    }

    #[test]
    fn lost_requests_are_still_resent_and_answered() {
        // Default (`Full`) gossip: batched deltas assume a link that
        // loses no frame of a live connection (`ChaosConfig::with_reordering`).
        const SEED: u64 = 4242;
        let config = ShardedWireConfig::new(3).with_chaos(ChaosConfig::lossy(0.2, SEED));
        let (answered, resends, _) = keyed_ops_one_at_a_time(100, config);
        assert_eq!(answered, 100, "an op went unanswered (chaos seed {SEED})");
        assert!(
            resends > 0,
            "20 % loss without a re-send (chaos seed {SEED})"
        );
    }
}
