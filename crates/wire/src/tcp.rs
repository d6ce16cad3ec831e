//! A TCP deployment of the data service.
//!
//! The paper's experimental system (§11.1) ran replicas on a network of
//! Unix workstations with MPI carrying requests, responses, and gossip.
//! This module is the equivalent deployment for this reproduction: each
//! [`TcpReplicaNode`] hosts one [`esds_alg::Replica`] state machine behind
//! a TCP listener; peers hold long-lived gossip connections to each other;
//! clients drive an [`esds_alg::FrontEnd`] over [`TcpClient`].
//!
//! Design notes:
//!
//! * **Same state machines as the simulator.** The node threads only move
//!   framed bytes; every replica decision — sync-before-release and
//!   peer-link rewinds included — lives in [`esds_alg::Node`], so the
//!   safety results validated under the simulator carry over.
//! * **One sans-IO server per node decides the wire protocol.** The
//!   acceptor hands each connection's write half to the core thread and
//!   its read half to a reader thread, which only frames and decodes.
//!   The core thread steps the node's `Server` (`crate::server`) on each
//!   decoded frame, open, close and tick, and writes what it returns.
//! * **Connection loss is message loss.** The algorithm tolerates lost and
//!   duplicated messages (paper §9.3), so a dropped gossip connection is
//!   simply re-dialed at the next gossip tick (reported to the node as
//!   [`Link::New`]), and front ends re-send pending requests (footnote 3
//!   of the paper).
//! * **Corrupt frames kill the connection**, not the node — see
//!   [`crate::frame`] on why corruption must not be absorbed.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use esds_alg::{
    FrontEnd, Link, Node, Persistence, RelayPolicy, Replica, ReplicaConfig, RequestMsg,
    RestoreImage,
};
use esds_core::{ClientId, OpId, ReplicaId, RoutingTable, SerialDataType};
use parking_lot::Mutex;

/// The cluster's address table, shared by nodes and clients. Restarting a
/// crashed node rebinds it to a fresh ephemeral port and updates its slot,
/// so peers and clients redial through the table rather than holding stale
/// addresses.
pub type AddrTable = Arc<Mutex<Vec<SocketAddr>>>;

use crate::codec::Wire;
use crate::frame::decode_frame;
use crate::message::{decode_message, encode_message, HelloId, WireMessage};
use crate::server::{ConnId, Halt, Server, To, Writes};

/// Read-poll granularity: how often blocked readers check for shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Configuration of a TCP cluster.
#[derive(Clone, Debug)]
pub struct TcpClusterConfig {
    /// Number of replica nodes.
    pub n_replicas: usize,
    /// Gossip tick interval per node.
    pub gossip_interval: Duration,
    /// Replica state-machine configuration.
    pub replica: ReplicaConfig,
    /// Observability plumbing (registry, prefix, tracer). Defaults to
    /// fully disabled — zero cost unless a registry is installed.
    pub obs: NodeObs,
}

impl TcpClusterConfig {
    /// Defaults: 5 ms gossip, the default [`ReplicaConfig`], metrics
    /// disabled.
    pub fn new(n_replicas: usize) -> Self {
        TcpClusterConfig {
            n_replicas,
            gossip_interval: Duration::from_millis(5),
            replica: ReplicaConfig::default(),
            obs: NodeObs::default(),
        }
    }

    /// Installs a metrics registry (and optionally a tracer) for every
    /// node spawned under this config.
    #[must_use]
    pub fn with_obs(mut self, obs: NodeObs) -> Self {
        self.obs = obs;
        self
    }
}

/// The observability plumbing a node carries: the **process-wide**
/// registry it reports into (and answers [`WireMessage::MetricsQuery`]
/// frames from), the node's hierarchical metric prefix, the shard
/// index stamped on trace spans, and the sampled lifecycle tracer.
///
/// Default is everything disabled: handles are no-ops and queries
/// answer an empty snapshot.
#[derive(Clone, Debug, Default)]
pub struct NodeObs {
    /// Registry the node's counters, gauges, and histograms live in.
    pub registry: esds_obs::MetricsRegistry,
    /// Hierarchical name prefix, e.g. `shard0` (empty for unsharded
    /// deployments: metrics are named `replica{r}/…` directly).
    pub prefix: String,
    /// Shard index stamped on lifecycle trace spans.
    pub shard: u32,
    /// Sampled op-lifecycle tracer.
    pub tracer: esds_obs::OpTracer,
}

impl NodeObs {
    /// Observability for an unsharded deployment: all nodes report
    /// into `registry`, trace spans carry shard 0.
    pub fn with_registry(registry: esds_obs::MetricsRegistry) -> Self {
        NodeObs {
            registry,
            ..NodeObs::default()
        }
    }
}

enum NodeInput<T: SerialDataType> {
    /// A connection was accepted; this is its write half.
    Open(ConnId, TcpStream),
    /// A decoded frame from a connection's reader.
    Message(ConnId, WireMessage<T::Operator, T::Value>),
    /// A connection's reader ended (EOF, bad frame, or shutdown).
    Closed(ConnId),
    Inspect(Sender<StabilitySnapshot>),
    Shutdown,
}

/// A replica's stability knowledge at one instant: its local label
/// order and the set it knows to be stable at every replica. The
/// allocation-light probe an audit watermark poll needs — operator
/// payloads and label maps stay on the node.
#[derive(Clone, Debug)]
pub struct StabilitySnapshot {
    /// The node's local label order (ids only).
    pub order: Vec<OpId>,
    /// `∩ᵢ stable_r[i]` — operations the node knows are stable
    /// everywhere; within [`StabilitySnapshot::order`] these form its
    /// solid prefix.
    pub stable_everywhere: std::collections::BTreeSet<OpId>,
}

/// One replica server: a listener, reader threads, and the core thread
/// stepping the node's sans-IO `Server` and the gossip timer.
pub struct TcpReplicaNode<T: SerialDataType> {
    addr: SocketAddr,
    input_tx: Sender<NodeInput<T>>,
    core: Option<JoinHandle<Replica<T>>>,
    acceptor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl<T> TcpReplicaNode<T>
where
    T: SerialDataType + Send + 'static,
    T::Operator: Wire + Send,
    T::Value: Wire + Send,
    T::State: Send,
{
    /// Spawns a node for replica `id` of `n`, listening on `listener`,
    /// gossiping to the peers in `addrs` (index = replica id; own entry
    /// ignored).
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read or threads
    /// cannot be spawned.
    pub fn spawn(
        dt: T,
        id: ReplicaId,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
    ) -> Self {
        let rep = Replica::new(dt, id, config.n_replicas, config.replica);
        Self::spawn_node(Node::new(rep, None), listener, addrs, config, None)
    }

    /// Spawns a **durable** node over a pre-built replica and its
    /// persistence backend — the restart-from-disk entry point: open the
    /// replica's store (recovering whatever survives on disk), then hand
    /// the recovered replica here. The [`Node`] syncs every input before
    /// its response or gossip leaves; a persist failure stops the core
    /// thread, exactly as if the machine had lost power.
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read or threads
    /// cannot be spawned.
    pub fn spawn_durable(
        rep: Replica<T>,
        store: Box<dyn Persistence<T>>,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
    ) -> Self {
        Self::spawn_node(Node::new(rep, Some(store)), listener, addrs, config, None)
    }

    /// Spawns a node around `node`. With the deployment's routing
    /// `table` it is shard-aware: `ShardedRequest` frames are
    /// version-checked against it (stale versions are NAKed with the
    /// authoritative table) and accepted operations answer as
    /// `ShardedResponse` frames carrying their global identity.
    pub(crate) fn spawn_node(
        node: Node<T>,
        listener: TcpListener,
        addrs: AddrTable,
        config: &TcpClusterConfig,
        table: Option<Arc<Mutex<RoutingTable>>>,
    ) -> Self {
        let id = node.replica().id();
        let addr = listener.local_addr().expect("listener address");
        let stop = Arc::new(AtomicBool::new(false));
        let (input_tx, input_rx) = unbounded::<NodeInput<T>>();
        let server = Server::new(node, table, &config.obs);
        let acceptor = Self::spawn_acceptor(id, listener, input_tx.clone(), stop.clone());
        let core = Self::spawn_core(
            server,
            config.gossip_interval,
            addrs,
            input_rx,
            stop.clone(),
        );
        TcpReplicaNode {
            addr,
            input_tx,
            core: Some(core),
            acceptor: Some(acceptor),
            stop,
        }
    }

    /// Fetches the node's [`StabilitySnapshot`] through its input
    /// channel (consistent: taken between state-machine steps).
    /// `None` if the node is shutting down or wedged past `timeout`.
    pub fn stability(&self, timeout: Duration) -> Option<StabilitySnapshot> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.input_tx.send(NodeInput::Inspect(tx)).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Stops the node's threads and returns the final replica state
    /// machine.
    pub fn shutdown(mut self) -> Replica<T> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.input_tx.send(NodeInput::Shutdown);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.core
            .take()
            .expect("core joined once")
            .join()
            .expect("replica core panicked")
    }

    /// Accepts connections: each one's write half goes to the core thread,
    /// its read half to a reader thread of its own.
    fn spawn_acceptor(
        id: ReplicaId,
        listener: TcpListener,
        input_tx: Sender<NodeInput<T>>,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("esds-tcp-accept-{}", id.0))
            .spawn(move || {
                let mut next_conn: ConnId = 0;
                while !stop.load(Ordering::SeqCst) {
                    let (stream, _) = match listener.accept() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Nagle stays on for accepted sockets. Its cost: of two
                    // responses queued back to back on an otherwise idle
                    // connection, the second waits for the peer's delayed
                    // ACK (~40 ms) — which is why the sharded client never
                    // duplicates a request still within its retry period.
                    // `set_nodelay(true)` here changes every workload, so
                    // it is a change of its own: on 2 vCPUs it cut
                    // `tcp3_durable_pipelined`'s set-up from 0.125 to
                    // 0.086 s (10 of 10 pairs), throughput within run
                    // spread.
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    let conn = next_conn;
                    next_conn += 1;
                    // Sent before the reader exists, so the core knows the
                    // connection before any of its frames.
                    if input_tx.send(NodeInput::Open(conn, write_half)).is_err() {
                        break;
                    }
                    let tx = input_tx.clone();
                    let stop = stop.clone();
                    let reader = std::thread::Builder::new()
                        .name(format!("esds-tcp-read-{}", id.0))
                        .spawn(move || Self::read_connection(conn, stream, tx, stop));
                    if reader.is_err() {
                        let _ = input_tx.send(NodeInput::Closed(conn));
                    }
                }
            })
            .expect("spawn acceptor")
    }

    /// Frames and decodes one inbound connection until EOF, a bad frame, or
    /// shutdown, forwarding every message to the core thread — decoding stays
    /// off the core — and then its close.
    fn read_connection(
        conn: ConnId,
        mut stream: TcpStream,
        input_tx: Sender<NodeInput<T>>,
        stop: Arc<AtomicBool>,
    ) {
        let _ = stream.set_read_timeout(Some(POLL));
        let mut buf = BytesMut::with_capacity(8 * 1024);
        let mut chunk = [0u8; 4096];
        'conn: loop {
            // Drain complete frames already buffered.
            loop {
                match decode_frame(&mut buf) {
                    Ok(Some(frame)) => {
                        // A malformed payload drops the connection.
                        let Ok(msg) = decode_message(&frame) else {
                            break 'conn;
                        };
                        if input_tx.send(NodeInput::Message(conn, msg)).is_err() {
                            break 'conn;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => break 'conn, // corrupt frame: drop connection
                }
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match stream.read(&mut chunk) {
                Ok(0) => break, // EOF
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        let _ = input_tx.send(NodeInput::Closed(conn));
    }

    /// The core thread: receive an input, step the [`Server`], write what it
    /// released; and every `gossip_interval`, dial the peers and tick.
    fn spawn_core(
        mut server: Server<T>,
        gossip_interval: Duration,
        addrs: AddrTable,
        input_rx: Receiver<NodeInput<T>>,
        stop: Arc<AtomicBool>,
    ) -> JoinHandle<Replica<T>> {
        let id = server.replica().id();
        let n = server.replica().n();
        std::thread::Builder::new()
            .name(format!("esds-tcp-core-{}", id.0))
            .spawn(move || {
                let mut sockets = Sockets {
                    peers: (0..n).map(|_| None).collect(),
                    conns: HashMap::new(),
                    out: BytesMut::new(),
                };
                let mut next_gossip = Instant::now() + gossip_interval;
                loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let now = Instant::now();
                    if now >= next_gossip {
                        // Dial before polling: a fresh connection is reported
                        // as a new link, so this very tick's envelope to it
                        // re-ships everything.
                        let links: Vec<Link> = sockets
                            .peers
                            .iter_mut()
                            .enumerate()
                            .map(|(p, peer)| {
                                if p == id.0 as usize {
                                    return Link::Down;
                                }
                                let peer_addr = addrs.lock()[p];
                                connect_to_peer(peer, peer_addr, id)
                            })
                            .collect();
                        let Ok(writes) = server.on_tick(now, &links) else {
                            break;
                        };
                        sockets.write(&mut server, writes);
                        next_gossip = now + gossip_interval;
                    }
                    let wait = next_gossip.saturating_duration_since(Instant::now());
                    let input = match input_rx.recv_timeout(wait.max(Duration::from_micros(200))) {
                        Ok(i) => i,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    };
                    match input {
                        NodeInput::Open(conn, w) => {
                            sockets.conns.insert(conn, w);
                            server.on_open(conn);
                        }
                        NodeInput::Message(conn, msg) => match server.on_message(conn, msg) {
                            Ok(writes) => sockets.write(&mut server, writes),
                            Err(Halt::Close) => sockets.close(conn),
                            // A dead node (failed persist) stops; its effects drop.
                            Err(Halt::Dead) => break,
                        },
                        NodeInput::Closed(conn) => {
                            sockets.conns.remove(&conn);
                            server.on_closed(conn);
                        }
                        NodeInput::Inspect(tx) => {
                            let _ = tx.send(server.stability());
                        }
                        NodeInput::Shutdown => break,
                    }
                }
                server.into_replica()
            })
            .expect("spawn core")
    }
}

/// The core thread's sockets: an outbound gossip link per peer, and the
/// write half of every open inbound connection.
struct Sockets {
    peers: Vec<Option<(SocketAddr, TcpStream)>>,
    conns: HashMap<ConnId, TcpStream>,
    out: BytesMut,
}

impl Sockets {
    /// Writes the frames `server` released. A connection whose write
    /// fails is closed; each gossip write's outcome goes back to
    /// `server`, and a failed link's cleared slot re-dials next tick.
    fn write<T>(&mut self, server: &mut Server<T>, writes: Writes<T::Operator, T::Value>)
    where
        T: SerialDataType,
        T::Operator: Wire,
        T::Value: Wire,
    {
        for (to, msg) in writes {
            self.out.clear();
            encode_message(&msg, &mut self.out);
            match to {
                To::Conn(conn) => {
                    let failed = self
                        .conns
                        .get_mut(&conn)
                        .is_some_and(|w| w.write_all(&self.out).is_err());
                    if failed {
                        self.close(conn);
                    }
                }
                To::Peer(p) => {
                    let slot = &mut self.peers[p.0 as usize];
                    let sent = slot
                        .as_mut()
                        .is_some_and(|(_, s)| s.write_all(&self.out).is_ok());
                    if !sent {
                        *slot = None;
                    }
                    server.on_peer_write(p, sent.then_some(self.out.len()));
                }
            }
        }
    }

    /// Shuts `conn` down; its reader then sees EOF and reports the close.
    fn close(&mut self, conn: ConnId) {
        if let Some(w) = self.conns.remove(&conn) {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

/// Ensures `slot` holds a live outbound connection to the peer at `addr`,
/// dialing (and introducing `me`) when it is empty or was dialed to an
/// address the table no longer names — the peer restarted elsewhere.
/// Returns the link: [`Link::New`] if just dialed, [`Link::Down`] if the
/// peer is unreachable (the slot stays empty for a retry next tick).
fn connect_to_peer(
    slot: &mut Option<(SocketAddr, TcpStream)>,
    addr: SocketAddr,
    me: ReplicaId,
) -> Link {
    if slot.as_ref().is_some_and(|(dialed, _)| *dialed == addr) {
        return Link::Up;
    }
    *slot = None;
    let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) else {
        return Link::Down;
    };
    let _ = s.set_nodelay(true);
    let mut hello = BytesMut::new();
    // Hello frames carry no operator/value payloads.
    encode_message::<u64, u64>(&WireMessage::Hello(HelloId::Replica(me)), &mut hello);
    if s.write_all(&hello).is_err() {
        return Link::Down;
    }
    *slot = Some((addr, s));
    Link::New
}

/// A client front end speaking the wire protocol over TCP.
pub struct TcpClient<T: SerialDataType> {
    fe: FrontEnd<T::Operator, T::Value>,
    conns: Vec<Option<(SocketAddr, TcpStream)>>,
    addrs: AddrTable,
    buf: BytesMut,
    m_submitted: esds_obs::Counter,
    m_answered: esds_obs::Counter,
    m_resends: esds_obs::Counter,
}

impl<T> TcpClient<T>
where
    T: SerialDataType,
    T::Operator: Wire + Clone,
    T::Value: Wire + Clone,
{
    /// Connects a client with identity `client` to a cluster whose replica
    /// addresses are `addrs` (index = replica id). The connection to the
    /// relay replica is opened lazily on first use.
    ///
    /// Clients of one service must use distinct [`ClientId`]s — operation
    /// identifiers embed them (paper §6.2, Invariant 4.1).
    pub fn connect(client: ClientId, addrs: Vec<SocketAddr>) -> Self {
        Self::connect_shared(client, Arc::new(Mutex::new(addrs)))
    }

    /// Like [`TcpClient::connect`], but sharing a live [`AddrTable`] (so
    /// node restarts at new addresses are picked up on the next dial).
    pub fn connect_shared(client: ClientId, addrs: AddrTable) -> Self {
        let n = addrs.lock().len();
        TcpClient {
            fe: FrontEnd::new(
                client,
                n,
                RelayPolicy::Fixed(ReplicaId(client.0 % n as u32)),
            ),
            conns: (0..n).map(|_| None).collect(),
            addrs,
            buf: BytesMut::with_capacity(4 * 1024),
            m_submitted: esds_obs::Counter::noop(),
            m_answered: esds_obs::Counter::noop(),
            m_resends: esds_obs::Counter::noop(),
        }
    }

    /// Registers client-side counters (`ops_submitted`, `ops_answered`,
    /// `resends`) under `scope`. Until called, the handles are no-ops.
    pub fn attach_metrics(&mut self, scope: &esds_obs::Scope) {
        self.m_submitted = scope.counter("ops_submitted");
        self.m_answered = scope.counter("ops_answered");
        self.m_resends = scope.counter("resends");
    }

    /// The client identity.
    pub fn client(&self) -> ClientId {
        self.fe.client()
    }

    /// Submits an operation; returns its id immediately.
    pub fn submit(&mut self, op: T::Operator, prev: &[OpId], strict: bool) -> OpId {
        self.m_submitted.inc();
        let (id, sends) = self.fe.submit(op, prev.iter().copied(), strict);
        for (r, msg) in sends {
            self.send_request(r, &msg);
        }
        id
    }

    /// The value previously returned for `id`, if completed.
    pub fn value_of(&self, id: OpId) -> Option<&T::Value> {
        self.fe.value_of(id)
    }

    /// Waits until `id` is answered or `timeout` elapses, re-sending
    /// pending requests every 50 ms (paper footnote 3).
    pub fn await_response(&mut self, id: OpId, timeout: Duration) -> Option<T::Value> {
        let deadline = Instant::now() + timeout;
        let mut next_retry = Instant::now() + Duration::from_millis(50);
        loop {
            if let Some(v) = self.fe.value_of(id) {
                self.m_answered.inc();
                return Some(v.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if now >= next_retry {
                for (r, msg) in self.fe.resend_pending() {
                    self.m_resends.inc();
                    self.send_request(r, &msg);
                }
                next_retry = now + Duration::from_millis(50);
            }
            self.pump_responses();
        }
    }

    /// Dials replica `idx` (with the client Hello) if the slot is empty
    /// or was dialed to a stale address.
    fn ensure_conn(&mut self, idx: usize) {
        let addr = self.addrs.lock()[idx];
        if self.conns[idx]
            .as_ref()
            .is_some_and(|(dialed, _)| *dialed != addr)
        {
            self.conns[idx] = None;
        }
        if self.conns[idx].is_none() {
            if let Ok(mut s) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(POLL));
                let mut hello = BytesMut::new();
                let h: WireMessage<T::Operator, T::Value> =
                    WireMessage::Hello(HelloId::Client(self.fe.client()));
                encode_message(&h, &mut hello);
                if s.write_all(&hello).is_ok() {
                    self.conns[idx] = Some((addr, s));
                }
            }
        }
    }

    fn send_request(&mut self, r: ReplicaId, msg: &RequestMsg<T::Operator>) {
        let mut out = BytesMut::new();
        let wire: WireMessage<T::Operator, T::Value> = WireMessage::Request(msg.clone());
        encode_message(&wire, &mut out);
        let idx = r.0 as usize;
        self.ensure_conn(idx);
        if let Some((_, s)) = &mut self.conns[idx] {
            if s.write_all(&out).is_err() {
                self.conns[idx] = None;
            }
        }
    }

    /// Reads whatever responses are available (bounded by the poll
    /// timeout) and feeds them to the front end.
    fn pump_responses(&mut self) {
        let mut chunk = [0u8; 4096];
        for slot in &mut self.conns {
            let Some((_, s)) = slot else { continue };
            match s.read(&mut chunk) {
                Ok(0) => {
                    *slot = None;
                    continue;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => {
                    *slot = None;
                    continue;
                }
            }
        }
        loop {
            match decode_frame(&mut self.buf) {
                Ok(Some(frame)) => {
                    if let Ok(WireMessage::<T::Operator, T::Value>::Response(m)) =
                        decode_message(&frame)
                    {
                        self.fe.on_response(m);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.buf.clear();
                    break;
                }
            }
        }
    }
}

/// A localhost cluster: `n` replica nodes plus a client factory.
///
/// # Examples
///
/// ```no_run
/// use std::time::Duration;
/// use esds_datatypes::{Counter, CounterOp, CounterValue};
/// use esds_wire::{TcpCluster, TcpClusterConfig};
///
/// let mut cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(3));
/// let mut client = cluster.client();
/// let id = client.submit(CounterOp::Increment(1), &[], false);
/// assert_eq!(
///     client.await_response(id, Duration::from_secs(5)),
///     Some(CounterValue::Ack)
/// );
/// cluster.shutdown();
/// ```
pub struct TcpCluster<T: SerialDataType> {
    dt: T,
    config: TcpClusterConfig,
    nodes: Vec<Option<TcpReplicaNode<T>>>,
    addrs: AddrTable,
    next_client: u32,
}

impl<T> TcpCluster<T>
where
    T: SerialDataType + Clone + Send + 'static,
    T::Operator: Wire + Send + Clone,
    T::Value: Wire + Send + Clone,
    T::State: Send,
{
    /// Binds `n` listeners on ephemeral localhost ports and spawns the
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero or localhost listeners cannot be
    /// bound.
    pub fn launch(dt: T, config: TcpClusterConfig) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        let listeners: Vec<TcpListener> = (0..config.n_replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind localhost"))
            .collect();
        let addrs: AddrTable = Arc::new(Mutex::new(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("addr"))
                .collect(),
        ));
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                Some(TcpReplicaNode::spawn(
                    dt.clone(),
                    ReplicaId(i as u32),
                    l,
                    addrs.clone(),
                    &config,
                ))
            })
            .collect();
        TcpCluster {
            dt,
            config,
            nodes,
            addrs,
            next_client: 0,
        }
    }

    /// A snapshot of the listen addresses, indexed by replica id.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.lock().clone()
    }

    /// Creates a new client with the next unused identity. Clients share
    /// the cluster's live address table, so they follow node restarts.
    pub fn client(&mut self) -> TcpClient<T> {
        let c = ClientId(self.next_client);
        self.next_client += 1;
        TcpClient::connect_shared(c, self.addrs.clone())
    }

    /// Crashes node `r`: its threads stop and all volatile state is lost.
    /// Returns what stable storage keeps ([`Replica::crash`], paper §9.3:
    /// the label-counter floor and locally-generated minimum labels) for a
    /// later [`TcpCluster::restart`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or already crashed.
    pub fn crash(&mut self, r: ReplicaId) -> RestoreImage<T> {
        let node = self.nodes[r.0 as usize].take().expect("node is running");
        node.shutdown().crash()
    }

    /// Restarts a crashed node from `img` ([`Replica::restore`]) on a
    /// fresh ephemeral port, updating the shared address table. The node
    /// rejoins by gossip: it serves nothing until it has heard from every
    /// peer (paper §9.3), after which Theorem 9.4's bounds apply again.
    ///
    /// # Panics
    ///
    /// Panics if the node is still running or the listener cannot bind.
    pub fn restart(&mut self, img: RestoreImage<T>) {
        let idx = img.id.0 as usize;
        assert!(self.nodes[idx].is_none(), "node {idx} is still running");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        self.addrs.lock()[idx] = listener.local_addr().expect("addr");
        let rep = Replica::restore(
            self.dt.clone(),
            img,
            self.config.n_replicas,
            self.config.replica,
        );
        self.nodes[idx] = Some(TcpReplicaNode::spawn_node(
            Node::new(rep, None),
            listener,
            self.addrs.clone(),
            &self.config,
            None,
        ));
    }

    /// Stops every running node, returning the final replica state
    /// machines (crashed slots are skipped).
    pub fn shutdown(self) -> Vec<Replica<T>> {
        self.nodes
            .into_iter()
            .flatten()
            .map(TcpReplicaNode::shutdown)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    #[test]
    fn cluster_roundtrip_plain_gossip() {
        exercise(TcpClusterConfig::new(3));
    }

    #[test]
    fn cluster_roundtrip_batched_gossip() {
        // The §10.4 batched wire contract over real sockets: every second
        // gossip tick one GossipBatched frame per peer, strict ops still
        // stabilize through the summary-borne votes.
        let mut config = TcpClusterConfig::new(3);
        config.replica = ReplicaConfig::default().with_batched(2);
        exercise(config);
    }

    fn exercise(config: TcpClusterConfig) {
        let mut cluster = TcpCluster::launch(Counter, config);
        let mut c0 = cluster.client();
        let mut c1 = cluster.client();

        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(c0.submit(CounterOp::Increment(1), &[], false));
            ids.push(c1.submit(CounterOp::Increment(10), &[], false));
        }
        for id in &ids {
            let owner = if id.client() == c0.client() {
                &mut c0
            } else {
                &mut c1
            };
            assert_eq!(
                owner.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        // Strict audit pinned after everything sees 4·1 + 4·10 = 44.
        let audit = c0.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c0.await_response(audit, Duration::from_secs(30)),
            Some(CounterValue::Count(44)),
        );

        let reps = cluster.shutdown();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 44), "diverged: {states:?}");
    }

    #[test]
    fn crash_and_recovery_over_sockets() {
        // §9.3 on the real deployment: crash a replica (volatile state
        // lost, stable-storage stub kept), keep working against the
        // survivors, restart it on a fresh port, and verify a strict
        // operation — which needs stability at *every* replica — completes
        // and all replicas converge.
        let mut cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(3));
        let mut c = cluster.client(); // relay = replica 0

        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        let stub = cluster.crash(ReplicaId(2));

        // Nonstrict work keeps flowing through the survivors.
        for _ in 0..5 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        for id in ids.iter().skip(5) {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(CounterValue::Ack)
            );
        }

        cluster.restart(stub);

        // The strict audit requires replica 2 to be back, caught up, and
        // voting stable; Theorem 9.4: liveness resumes after recovery.
        let audit = c.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c.await_response(audit, Duration::from_secs(60)),
            Some(CounterValue::Count(10)),
        );

        let reps = cluster.shutdown();
        assert_eq!(reps.len(), 3);
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 10), "diverged: {states:?}");
    }

    #[test]
    fn quick_restart_under_batched_gossip_rewinds_peer_delta_state() {
        // A crash followed at once by a restart gives the survivors no
        // failed write to notice: their connection slot is simply dialed
        // to an address the table no longer names. The delta state toward
        // the memory-less replica must rewind on that re-dial, or the next
        // batch carries full done/stable summaries with no labels (label
        // GC retired them) and the recovered replica cannot place the ops.
        let mut config = TcpClusterConfig::new(3);
        config.replica = ReplicaConfig::default().with_batched(1);
        let mut cluster = TcpCluster::launch(Counter, config);
        let mut c = cluster.client(); // relay = replica 0

        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        // Stable everywhere: shipped, acknowledged, due for label GC.
        let fence = c.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c.await_response(fence, Duration::from_secs(30)),
            Some(CounterValue::Count(5)),
        );

        let stub = cluster.crash(ReplicaId(2));
        cluster.restart(stub);

        for _ in 0..3 {
            ids.push(c.submit(CounterOp::Increment(1), &[], false));
        }
        let audit = c.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c.await_response(audit, Duration::from_secs(30)),
            Some(CounterValue::Count(8)),
        );

        let reps = cluster.shutdown();
        assert_eq!(reps.len(), 3);
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 8), "diverged: {states:?}");
    }

    #[test]
    fn gossip_naming_no_replica_is_refused_not_fatal() {
        // Readers forward gossip frames from any connection. One frame on
        // a client connection naming a replica the cluster does not have
        // must not stop the core thread.
        let mut cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(3));
        let mut raw = TcpStream::connect(cluster.addrs()[0]).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let bogus = esds_alg::GossipMsg {
            from: ReplicaId(9),
            rcvd: Vec::new(),
            done: Vec::new(),
            labels: Vec::new(),
            stable: Vec::new(),
        };
        let mut out = BytesMut::new();
        for msg in [
            WireMessage::Hello(HelloId::Client(ClientId(99))),
            WireMessage::Gossip(bogus),
            // Answered only after the core took the gossip frame: the
            // reader forwards both in order over one channel.
            WireMessage::StabilityQuery,
        ] {
            encode_message::<CounterOp, CounterValue>(&msg, &mut out);
        }
        raw.write_all(&out).expect("write");
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        let frame = loop {
            if let Some(frame) = decode_frame(&mut buf).expect("well-formed reply") {
                break frame;
            }
            let n = raw.read(&mut chunk).expect("stability answer");
            assert!(n > 0, "node closed the connection");
            buf.extend_from_slice(&chunk[..n]);
        };
        assert!(matches!(
            decode_message::<CounterOp, CounterValue>(&frame),
            Ok(WireMessage::StabilityInfo(_))
        ));

        let mut c = cluster.client(); // relay = replica 0
        let id = c.submit(CounterOp::Increment(1), &[], false);
        assert_eq!(
            c.await_response(id, Duration::from_secs(10)),
            Some(CounterValue::Ack)
        );
        let reps = cluster.shutdown();
        assert_eq!(reps[0].stats().gossip_refused, 1);
        assert_eq!(reps[1].stats().gossip_refused, 0);
    }

    #[test]
    fn closing_an_old_connection_keeps_the_new_registration() {
        // A client that re-dials registers its new connection; its old
        // connection closing afterwards must not unregister the new one.
        let cluster = TcpCluster::launch(Counter, TcpClusterConfig::new(1));
        let client = ClientId(7);
        let dial = || {
            let mut s = TcpStream::connect(cluster.addrs()[0]).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            send(
                &mut s,
                &[
                    WireMessage::Hello(HelloId::Client(client)),
                    WireMessage::StabilityQuery,
                ],
            );
            // The answer shows the node has taken the Hello.
            assert!(matches!(recv(&mut s), Some(WireMessage::StabilityInfo(_))));
            s
        };
        let old = dial();
        let mut new = dial();
        drop(old);
        std::thread::sleep(Duration::from_millis(300));

        let mut fe = FrontEnd::<_, CounterValue>::new(client, 1, RelayPolicy::Fixed(ReplicaId(0)));
        let (id, sends) = fe.submit(CounterOp::Increment(1), [], false);
        let requests: Vec<_> = sends
            .into_iter()
            .map(|(_, m)| WireMessage::Request(m))
            .collect();
        send(&mut new, &requests);
        match recv(&mut new) {
            Some(WireMessage::Response(r)) => assert_eq!(r.id, id),
            other => panic!("no response on the new connection: {other:?}"),
        }
        cluster.shutdown();
    }

    fn send(s: &mut TcpStream, msgs: &[WireMessage<CounterOp, CounterValue>]) {
        let mut out = BytesMut::new();
        for m in msgs {
            encode_message(m, &mut out);
        }
        s.write_all(&out).expect("write");
    }

    /// The next message on `s`; `None` on EOF or read timeout.
    fn recv(s: &mut TcpStream) -> Option<WireMessage<CounterOp, CounterValue>> {
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = decode_frame(&mut buf).expect("well-formed frame") {
                return decode_message(&frame).ok();
            }
            match s.read(&mut chunk) {
                Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                _ => return None,
            }
        }
    }

    #[test]
    fn client_times_out_against_dead_address() {
        // No listener: submit fails to connect, await returns None quickly.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut client: TcpClient<Counter> = TcpClient::connect(ClientId(0), vec![addr]);
        let id = client.submit(CounterOp::Read, &[], false);
        assert_eq!(client.await_response(id, Duration::from_millis(300)), None);
    }
}
