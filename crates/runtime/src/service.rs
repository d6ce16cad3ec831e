//! One replica group on OS threads: the per-shard building block of
//! [`crate::ShardedService`].
//!
//! Each replica runs on its own OS thread, driving the *same*
//! [`esds_alg::Node`] as the simulator (which also owns a durable
//! replica's sync-before-release); a network thread routes all messages
//! and injects a fixed propagation delay, standing in for the paper's
//! workstation network (Cheiner ran on MPI-connected Unix workstations).
//! Clients interact through [`RuntimeClient`] handles that own a front
//! end.

use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use esds_alg::{
    FrontEnd, GossipEnvelope, Link, Node, Persistence, RelayPolicy, Replica, ReplicaConfig,
    RequestMsg, ResponseMsg,
};
use esds_core::{ClientId, OpId, ReplicaId, SerialDataType};
use parking_lot::Mutex;

/// Injected one-way network delay for every message.
const NET_DELAY: Duration = Duration::from_millis(1);

/// Configuration of the threaded deployment (per shard).
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of replica threads.
    pub n_replicas: usize,
    /// Wall-clock gossip interval.
    pub gossip_interval: Duration,
    /// Replica configuration.
    pub replica: ReplicaConfig,
}

impl RuntimeConfig {
    /// Defaults: 5 ms gossip period, the default [`ReplicaConfig`].
    pub fn new(n_replicas: usize) -> Self {
        RuntimeConfig {
            n_replicas,
            gossip_interval: Duration::from_millis(5),
            replica: ReplicaConfig::default(),
        }
    }
}

enum Payload<T: SerialDataType> {
    Request(RequestMsg<T::Operator>),
    // Boxed: envelopes carry summaries and would dominate the enum size.
    Gossip(Box<GossipEnvelope<T::Operator>>),
    Response(ResponseMsg<T::Value>),
}

enum Endpoint {
    Replica(ReplicaId),
    Client(ClientId),
}

struct NetMsg<T: SerialDataType> {
    to: Endpoint,
    payload: Payload<T>,
}

/// Inputs to the network thread. Clients and replicas only ever send
/// `Msg`; `Shutdown` is sent once by [`RuntimeService::shutdown`] so the
/// thread terminates even while client handles (each holding a sender
/// clone) are still alive.
enum NetInput<T: SerialDataType> {
    Msg(NetMsg<T>),
    Shutdown,
}

/// A predicate over operators, shipped to a replica thread by
/// [`RuntimeService::count_unstable`].
pub(crate) type OpFilter<T> = Box<dyn Fn(&<T as SerialDataType>::Operator) -> bool + Send>;

enum ReplicaInput<T: SerialDataType> {
    Request(RequestMsg<T::Operator>),
    Gossip(Box<GossipEnvelope<T::Operator>>),
    Inspect(Sender<ReplicaSnapshot<T>>),
    CountUnstable(OpFilter<T>, Sender<usize>),
    Shutdown,
}

/// A point-in-time view of one replica's history, answered over the
/// replica's own input channel (so it is consistent: no message is half-
/// applied). The sharded layer's slot migration uses it to find a slot's
/// **stable prefix** — the operations whose order is final at every
/// replica — which is the unit of state transfer during a handoff.
pub(crate) struct ReplicaSnapshot<T: SerialDataType> {
    /// The replica's local label order.
    pub(crate) order: Vec<esds_core::OpId>,
    /// Operations the replica knows are stable at *every* replica; their
    /// labels — and positions in `order` — can never change again.
    pub(crate) stable_everywhere: std::collections::BTreeSet<esds_core::OpId>,
    /// The operator of every operation the replica has received.
    pub(crate) ops: std::collections::BTreeMap<esds_core::OpId, T::Operator>,
}

struct Timed<T: SerialDataType> {
    due: Instant,
    seq: u64,
    msg: NetMsg<T>,
}

impl<T: SerialDataType> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl<T: SerialDataType> Eq for Timed<T> {}
impl<T: SerialDataType> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}
impl<T: SerialDataType> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shared registry of per-client response channels.
type ClientRegistry<V> = std::sync::Arc<Mutex<Vec<Sender<ResponseMsg<V>>>>>;

/// A recovered replica paired with its durable backend, as handed (per
/// shard) to [`crate::ShardedService::start_durable`].
pub(crate) type DurableReplica<T> = (Replica<T>, Box<dyn Persistence<T>>);

/// A cheap cloneable handle for fetching [`ReplicaSnapshot`]s without
/// borrowing the [`RuntimeService`] — what a sharded client's stability
/// probes read through.
pub(crate) struct InspectHandle<T: SerialDataType> {
    inputs: Vec<Sender<ReplicaInput<T>>>,
}

impl<T: SerialDataType> Clone for InspectHandle<T> {
    fn clone(&self) -> Self {
        InspectHandle {
            inputs: self.inputs.clone(),
        }
    }
}

impl<T: SerialDataType> InspectHandle<T> {
    /// Number of replicas behind this handle.
    pub(crate) fn n_replicas(&self) -> usize {
        self.inputs.len()
    }

    /// A consistent snapshot of one replica, or `None` once the service
    /// has shut down (the handle outliving the service is not an error:
    /// there is just nothing left to observe).
    pub(crate) fn snapshot(&self, replica: usize) -> Option<ReplicaSnapshot<T>> {
        let (tx, rx) = bounded(1);
        self.inputs[replica].send(ReplicaInput::Inspect(tx)).ok()?;
        rx.recv().ok()
    }
}

/// A handle for one client of the running service.
pub(crate) struct RuntimeClient<T: SerialDataType> {
    fe: FrontEnd<T::Operator, T::Value>,
    rx: Receiver<ResponseMsg<T::Value>>,
    net_tx: Sender<NetInput<T>>,
}

impl<T: SerialDataType> RuntimeClient<T>
where
    T::Operator: Clone,
    T::Value: Clone,
{
    /// Submits an operation; returns its id immediately.
    pub(crate) fn submit(&mut self, op: T::Operator, prev: &[OpId], strict: bool) -> OpId {
        let (id, sends) = self.fe.submit(op, prev.iter().copied(), strict);
        for (r, msg) in sends {
            let _ = self.net_tx.send(NetInput::Msg(NetMsg {
                to: Endpoint::Replica(r),
                payload: Payload::Request(msg),
            }));
        }
        id
    }

    /// Waits until `id` is answered or `timeout` elapses; drains any other
    /// responses that arrive meanwhile. Re-sends pending requests every
    /// 50 ms while waiting (the front-end retry of paper footnote 3).
    pub(crate) fn await_response(&mut self, id: OpId, timeout: Duration) -> Option<T::Value> {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut next_retry = start + Duration::from_millis(50);
        loop {
            if let Some(v) = self.fe.value_of(id) {
                return Some(v.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            if now >= next_retry {
                for (r, msg) in self.fe.resend_pending() {
                    let _ = self.net_tx.send(NetInput::Msg(NetMsg {
                        to: Endpoint::Replica(r),
                        payload: Payload::Request(msg),
                    }));
                }
                next_retry = now + Duration::from_millis(50);
            }
            let wait = deadline.min(next_retry).saturating_duration_since(now);
            match self.rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                Ok(msg) => {
                    self.fe.on_response(msg);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// The value previously returned for `id`, if completed.
    pub(crate) fn value_of(&self, id: OpId) -> Option<&T::Value> {
        self.fe.value_of(id)
    }

    /// Drains any responses already delivered to this client's channel
    /// into the front end, without blocking. Makes [`RuntimeClient::value_of`]
    /// reflect everything the network has handed over so far.
    pub(crate) fn poll_responses(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            self.fe.on_response(msg);
        }
    }

    /// The client identity.
    pub(crate) fn client(&self) -> ClientId {
        self.fe.client()
    }
}

/// One running replica group: replica threads + network thread.
pub(crate) struct RuntimeService<T: SerialDataType> {
    net_tx: Sender<NetInput<T>>,
    client_reg: ClientRegistry<T::Value>,
    n_replicas: usize,
    next_client: u32,
    replica_threads: Vec<JoinHandle<Replica<T>>>,
    replica_inputs: Vec<Sender<ReplicaInput<T>>>,
    net_thread: Option<JoinHandle<()>>,
}

impl<T> RuntimeService<T>
where
    T: SerialDataType + Clone + Send + 'static,
    T::Operator: Send + Clone,
    T::Value: Send + Clone,
    T::State: Send,
{
    /// Starts the replica and network threads.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub(crate) fn start(dt: T, config: RuntimeConfig) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        let n = config.n_replicas;
        let nodes = (0..n)
            .map(|i| {
                let rep = Replica::new(dt.clone(), ReplicaId(i as u32), n, config.replica);
                Node::new(rep, None)
            })
            .collect();
        Self::start_nodes(config, nodes)
    }

    /// Starts the service over **pre-built** replicas, each paired with
    /// its durable backend — what a restart-from-disk looks like: the
    /// caller opens each replica's store (recovering whatever survives)
    /// and hands the recovered replicas here. Each replica's [`Node`]
    /// syncs every input before releasing its effects; a persist failure
    /// stops that replica's thread, as if its machine had lost power.
    ///
    /// # Panics
    ///
    /// Panics if `replicas.len() != config.n_replicas`.
    pub(crate) fn start_durable(config: RuntimeConfig, replicas: Vec<DurableReplica<T>>) -> Self {
        assert_eq!(
            replicas.len(),
            config.n_replicas,
            "one recovered replica per configured slot"
        );
        // A recycled client identity would alias pre-crash operations id
        // for id — front ends number their submissions `(client, seq)`
        // from zero, and the recovered replicas already hold the old
        // client's operations — so new front ends are numbered above
        // every client identity brought back from disk.
        let floor = replicas
            .iter()
            .flat_map(|(r, _)| r.rcvd().keys().map(|id| id.client().0 + 1))
            .max()
            .unwrap_or(0);
        let mut svc = Self::start_nodes(
            config,
            replicas
                .into_iter()
                .map(|(r, s)| Node::new(r, Some(s)))
                .collect(),
        );
        svc.skip_client_ids_below(floor);
        svc
    }

    /// The identity the next front end will be given.
    pub(crate) fn next_client_id(&self) -> u32 {
        self.next_client
    }

    /// Numbers future front ends from `floor` up. The response registry
    /// is indexed by raw client id, so the skipped identities are held
    /// with dead senders: deliveries to live clients land at the right
    /// slot.
    pub(crate) fn skip_client_ids_below(&mut self, floor: u32) {
        let mut reg = self.client_reg.lock();
        while self.next_client < floor {
            let (tx, _rx) = bounded(1);
            reg.push(tx);
            self.next_client += 1;
        }
    }

    fn start_nodes(config: RuntimeConfig, nodes: Vec<Node<T>>) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        let n = config.n_replicas;
        let (net_tx, net_rx) = unbounded::<NetInput<T>>();
        let client_reg: ClientRegistry<T::Value> = std::sync::Arc::new(Mutex::new(Vec::new()));

        // Replica threads. The in-process network never drops a link.
        let links = vec![Link::Up; n];
        let mut replica_inputs = Vec::with_capacity(n);
        let mut replica_threads = Vec::with_capacity(n);
        for (i, mut node) in nodes.into_iter().enumerate() {
            let (tx, rx) = unbounded::<ReplicaInput<T>>();
            replica_inputs.push(tx);
            let net = net_tx.clone();
            let interval = config.gossip_interval;
            let links = links.clone();
            let handle = std::thread::Builder::new()
                .name(format!("esds-replica-{i}"))
                .spawn(move || {
                    let mut next_gossip = Instant::now() + interval;
                    loop {
                        let now = Instant::now();
                        if now >= next_gossip {
                            let Ok(outbox) = node.on_tick(&links) else {
                                break;
                            };
                            for (p, g) in outbox {
                                let _ = net.send(NetInput::Msg(NetMsg {
                                    to: Endpoint::Replica(p),
                                    payload: Payload::Gossip(Box::new(g)),
                                }));
                            }
                            next_gossip = now + interval;
                        }
                        let wait = next_gossip.saturating_duration_since(Instant::now());
                        let input = match rx.recv_timeout(wait.max(Duration::from_micros(200))) {
                            Ok(i) => i,
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        };
                        let effects = match input {
                            ReplicaInput::Request(m) => node.on_request(m.desc),
                            ReplicaInput::Gossip(g) => node.on_gossip(*g),
                            ReplicaInput::Inspect(tx) => {
                                let rep = node.replica();
                                let _ = tx.send(ReplicaSnapshot {
                                    order: rep.local_order(),
                                    stable_everywhere: rep.stable_everywhere().clone(),
                                    ops: rep
                                        .rcvd()
                                        .iter()
                                        .map(|(id, d)| (*id, d.op.clone()))
                                        .collect(),
                                });
                                continue;
                            }
                            ReplicaInput::CountUnstable(filter, tx) => {
                                let rep = node.replica();
                                let n = rep
                                    .rcvd()
                                    .iter()
                                    .filter(|(id, d)| {
                                        filter(&d.op) && !rep.stable_everywhere().contains(id)
                                    })
                                    .count();
                                let _ = tx.send(n);
                                continue;
                            }
                            ReplicaInput::Shutdown => break,
                        };
                        // A dead node (failed persist) stops; its effects drop.
                        let Ok(effects) = effects else {
                            break;
                        };
                        for e in effects {
                            let _ = net.send(NetInput::Msg(NetMsg {
                                to: Endpoint::Client(e.client),
                                payload: Payload::Response(e.msg),
                            }));
                        }
                    }
                    node.into_replica()
                })
                .expect("spawn replica thread");
            replica_threads.push(handle);
        }

        // Network thread: applies the injected delay, then routes.
        let reg = client_reg.clone();
        let replica_inputs_clone = replica_inputs.clone();
        let net_thread = std::thread::Builder::new()
            .name("esds-net".to_string())
            .spawn(move || {
                let mut heap: BinaryHeap<Timed<T>> = BinaryHeap::new();
                let mut seq = 0u64;
                loop {
                    // Deliver everything due.
                    let now = Instant::now();
                    while heap.peek().is_some_and(|t| t.due <= now) {
                        let t = heap.pop().expect("peeked");
                        match t.msg.to {
                            Endpoint::Replica(r) => {
                                let input = match t.msg.payload {
                                    Payload::Request(m) => ReplicaInput::Request(m),
                                    Payload::Gossip(g) => ReplicaInput::Gossip(g),
                                    Payload::Response(_) => continue,
                                };
                                let _ = replica_inputs_clone[r.0 as usize].send(input);
                            }
                            Endpoint::Client(c) => {
                                if let Payload::Response(m) = t.msg.payload {
                                    let senders = reg.lock();
                                    if let Some(tx) = senders.get(c.0 as usize) {
                                        // try_send: a client that stopped
                                        // draining must not stall routing
                                        // for everyone else.
                                        let _ = tx.try_send(m);
                                    }
                                }
                            }
                        }
                    }
                    let wait = heap
                        .peek()
                        .map(|t| t.due.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(50));
                    match net_rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                        Ok(NetInput::Msg(msg)) => {
                            heap.push(Timed {
                                due: Instant::now() + NET_DELAY,
                                seq,
                                msg,
                            });
                            seq += 1;
                        }
                        Ok(NetInput::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                }
            })
            .expect("spawn network thread");

        RuntimeService {
            net_tx,
            client_reg,
            n_replicas: n,
            next_client: 0,
            replica_threads,
            replica_inputs,
            net_thread: Some(net_thread),
        }
    }

    /// Number of replica threads in this group.
    pub(crate) fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// A consistent snapshot of one replica's history (order, stability
    /// knowledge, operators), fetched through the replica's input channel.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or the service is shut down.
    pub(crate) fn snapshot(&self, replica: usize) -> ReplicaSnapshot<T> {
        let (tx, rx) = bounded(1);
        self.replica_inputs[replica]
            .send(ReplicaInput::Inspect(tx))
            .expect("replica thread alive");
        rx.recv().expect("replica thread alive")
    }

    /// How many operations matching `filter` the replica has received
    /// but does not yet know to be stable at every replica. A cheap,
    /// allocation-light probe for migration stability gates — unlike
    /// [`RuntimeService::snapshot`], nothing is cloned across the
    /// channel, so polling it does not stall the replica thread on
    /// copying its whole history.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or the service is shut down.
    pub(crate) fn count_unstable(&self, replica: usize, filter: OpFilter<T>) -> usize {
        let (tx, rx) = bounded(1);
        self.replica_inputs[replica]
            .send(ReplicaInput::CountUnstable(filter, tx))
            .expect("replica thread alive");
        rx.recv().expect("replica thread alive")
    }

    /// Creates a new client attached (fixed policy) to replica
    /// `client mod n`, like the simulator's default.
    pub(crate) fn client(&mut self) -> RuntimeClient<T> {
        let c = ClientId(self.next_client);
        self.next_client += 1;
        let (tx, rx) = bounded(1024);
        self.client_reg.lock().push(tx);
        RuntimeClient {
            fe: FrontEnd::new(
                c,
                self.n_replicas,
                RelayPolicy::Fixed(ReplicaId(c.0 % self.n_replicas as u32)),
            ),
            rx,
            net_tx: self.net_tx.clone(),
        }
    }

    /// A cloneable snapshot handle that does not borrow the service.
    pub(crate) fn inspect_handle(&self) -> InspectHandle<T> {
        InspectHandle {
            inputs: self.replica_inputs.clone(),
        }
    }

    /// Stops all threads and returns the final replica states (for
    /// convergence assertions).
    ///
    /// Safe to call while [`RuntimeClient`] handles are still alive: the
    /// network thread is stopped by an explicit control message, not by
    /// waiting for every sender clone to disconnect.
    pub(crate) fn shutdown(mut self) -> Vec<Replica<T>> {
        for tx in &self.replica_inputs {
            let _ = tx.send(ReplicaInput::Shutdown);
        }
        let reps: Vec<Replica<T>> = self
            .replica_threads
            .drain(..)
            .map(|h| h.join().expect("replica thread panicked"))
            .collect();
        let _ = self.net_tx.send(NetInput::Shutdown);
        self.replica_inputs.clear();
        if let Some(h) = self.net_thread.take() {
            let _ = h.join();
        }
        reps
    }

    /// Stops the service abruptly, discarding the replica states — the
    /// threaded stand-in for `kill -9` of the whole group. No final
    /// checkpoint or flush runs: a durable replica's on-disk image is
    /// left exactly as its last per-input sync wrote it, so a subsequent
    /// [`RuntimeService::start_durable`] over the same directories
    /// exercises the real recovery path. (Inputs already queued when the
    /// kill lands may still be processed — and persisted — before the
    /// thread notices; the durability contract is indifferent to where
    /// exactly the cut falls.)
    pub(crate) fn kill(mut self) {
        // Stop routing first, so no replica input arrives after the ones
        // already queued when the kill landed.
        let _ = self.net_tx.send(NetInput::Shutdown);
        if let Some(h) = self.net_thread.take() {
            let _ = h.join();
        }
        // Stop replicas by explicit message, not by dropping senders:
        // [`InspectHandle`]s (sharded clients' stability probes) hold
        // clones of these senders and may legitimately outlive the
        // service, so disconnection alone never comes. `Shutdown` breaks
        // the replica loop before any persist — the cut stays abrupt.
        for tx in &self.replica_inputs {
            let _ = tx.send(ReplicaInput::Shutdown);
        }
        self.replica_inputs.clear();
        for h in self.replica_threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    #[test]
    fn runtime_roundtrip_and_convergence() {
        let mut svc = RuntimeService::start(Counter, RuntimeConfig::new(3));
        let mut c0 = svc.client();
        let mut c1 = svc.client();

        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push((0, c0.submit(CounterOp::Increment(1), &[], false)));
            ids.push((1, c1.submit(CounterOp::Increment(1), &[], false)));
        }
        for (who, id) in &ids {
            let v = match who {
                0 => c0.await_response(*id, Duration::from_secs(10)),
                _ => c1.await_response(*id, Duration::from_secs(10)),
            };
            assert_eq!(v, Some(CounterValue::Ack), "op {id} timed out");
        }
        // A strict read constrained after every increment observes all ten.
        // (Strictness alone fixes the value in the eventual total order;
        // the prev set pins the increments before the read in that order.)
        let prev: Vec<OpId> = ids.iter().map(|(_, id)| *id).collect();
        let read = c0.submit(CounterOp::Read, &prev, true);
        let v = c0.await_response(read, Duration::from_secs(30));
        assert_eq!(v, Some(CounterValue::Count(10)));

        // After shutdown, give gossip a beat and check convergence.
        let reps = svc.shutdown();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 10), "diverged: {states:?}");
    }

    #[test]
    fn batched_gossip_runtime_roundtrip() {
        // The threaded deployment under GossipStrategy::Batched: strict
        // ops (which need stability votes flowing through the batched
        // D/S summaries) must still complete.
        let mut cfg = RuntimeConfig::new(3);
        cfg.replica = ReplicaConfig::default().with_batched(2);
        let mut svc = RuntimeService::start(Counter, cfg);
        let mut c = svc.client();
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
        let read = c.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            c.await_response(read, Duration::from_secs(30)),
            Some(CounterValue::Count(5))
        );
        let reps = svc.shutdown();
        let states: Vec<i64> = reps.iter().map(|r| r.current_state()).collect();
        assert!(states.iter().all(|s| *s == 5), "diverged: {states:?}");
    }

    #[test]
    fn strict_op_sees_prior_increment_via_prev() {
        let mut svc = RuntimeService::start(Counter, RuntimeConfig::new(2));
        let mut c = svc.client();
        let inc = c.submit(CounterOp::Increment(7), &[], false);
        let read = c.submit(CounterOp::Read, &[inc], false);
        let v = c.await_response(read, Duration::from_secs(10));
        assert_eq!(v, Some(CounterValue::Count(7)));
        svc.shutdown();
    }
}
