//! The simulated ESDS deployment: replicas, front ends, and channels
//! composed under the discrete-event kernel.
//!
//! This is the executable analogue of the paper's composed automaton
//! `ESDS-Alg = Π front-ends × Π channels × Π replicas` (§6.4), with the
//! timing structure of Section 9 made explicit: front-end↔replica channels
//! bounded by `df`, replica↔replica channels by `dg`, and periodic gossip
//! with interval `g`. A processing model adds per-event service times so
//! the Section 11 throughput experiments have a capacity to saturate.

use std::collections::{BTreeMap, BTreeSet};

use esds_alg::{
    Dead, FrontEnd, GossipEnvelope, GossipMsg, Link, Node, RelayPolicy, Replica, ReplicaConfig,
    ReplicaStats, RequestMsg, RespondEffect, ResponseMsg, SystemView,
};
use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId, SerialDataType};
use esds_sim::{
    derive_seed, ChannelConfig, ChannelModel, EventQueue, Histogram, SimDuration, SimTime,
    StopReason, World,
};
use esds_spec::Users;

/// The paper's three response-time classes (Theorem 9.3).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum OpClass {
    /// Nonstrict with an empty `prev` set: bound `2·df`.
    NonstrictEmptyPrev,
    /// Nonstrict with a nonempty `prev` set: bound `2·df + g + dg`.
    NonstrictWithPrev,
    /// Strict: bound `2·df + 3·(g + dg)`.
    Strict,
}

impl OpClass {
    /// Classifies a descriptor.
    pub fn of<O>(desc: &OpDescriptor<O>) -> Self {
        if desc.strict {
            OpClass::Strict
        } else if desc.prev.is_empty() {
            OpClass::NonstrictEmptyPrev
        } else {
            OpClass::NonstrictWithPrev
        }
    }

    /// The Theorem 9.3 bound `δ(x)` under the given timing parameters.
    pub fn delta_bound(self, df: SimDuration, dg: SimDuration, g: SimDuration) -> SimDuration {
        match self {
            OpClass::NonstrictEmptyPrev => df * 2,
            OpClass::NonstrictWithPrev => df * 2 + g + dg,
            OpClass::Strict => df * 2 + (g + dg) * 3,
        }
    }
}

/// Per-event service times at a replica (zero = the Section 9 idealization
/// "local computation time is negligible"; nonzero = the queueing model for
/// the Section 11 throughput experiments).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcessingModel {
    /// Server time consumed by one client request.
    pub request_cost: SimDuration,
    /// Server time consumed by applying one incoming gossip message.
    pub gossip_cost: SimDuration,
}

/// Configuration of a simulated deployment.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of replicas (ids `0..n`).
    pub n_replicas: usize,
    /// Master seed; all channel and workload randomness derives from it.
    pub seed: u64,
    /// Replica configuration (optimizations, gossip strategy, witnesses).
    pub replica: ReplicaConfig,
    /// Front-end relay policy. `None` = each client is *attached* to
    /// replica `client mod n` (the paper's locality setup).
    pub relay: Option<RelayPolicy>,
    /// Gossip interval `g`.
    pub gossip_interval: SimDuration,
    /// Front-end ↔ replica channels (delay bound `df`).
    pub fr_channel: ChannelConfig,
    /// Replica ↔ replica channels (delay bound `dg`).
    pub rr_channel: ChannelConfig,
    /// Service times.
    pub processing: ProcessingModel,
    /// Front-end retry period for unanswered requests (fault tolerance).
    pub retry_interval: Option<SimDuration>,
    /// Deliver each gossip message to all peers from one construction
    /// (§10.4's broadcast optimization; one message counted per round).
    pub broadcast_gossip: bool,
    /// Keep clones of in-flight gossip for [`SimSystem::view`] (needed by
    /// invariant/conformance checks; costs memory).
    pub track_in_flight: bool,
}

impl SystemConfig {
    /// A sensible default: `df = 5ms`, `dg = 5ms`, `g = 20ms`, zero
    /// processing cost, no retries, no faults.
    pub fn new(n_replicas: usize) -> Self {
        SystemConfig {
            n_replicas,
            seed: 0,
            replica: ReplicaConfig::default(),
            relay: None,
            gossip_interval: SimDuration::from_millis(20),
            fr_channel: ChannelConfig::fixed(SimDuration::from_millis(5)),
            rr_channel: ChannelConfig::fixed(SimDuration::from_millis(5)),
            processing: ProcessingModel::default(),
            retry_interval: None,
            broadcast_gossip: false,
            track_in_flight: false,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the replica configuration.
    #[must_use]
    pub fn with_replica(mut self, replica: ReplicaConfig) -> Self {
        self.replica = replica;
        self
    }

    /// Sets both channel configs.
    #[must_use]
    pub fn with_channels(mut self, fr: ChannelConfig, rr: ChannelConfig) -> Self {
        self.fr_channel = fr;
        self.rr_channel = rr;
        self
    }

    /// Sets the gossip interval `g`.
    #[must_use]
    pub fn with_gossip_interval(mut self, g: SimDuration) -> Self {
        self.gossip_interval = g;
        self
    }

    /// Sets the processing model.
    #[must_use]
    pub fn with_processing(mut self, p: ProcessingModel) -> Self {
        self.processing = p;
        self
    }

    /// Enables front-end retries.
    #[must_use]
    pub fn with_retry(mut self, every: SimDuration) -> Self {
        self.retry_interval = Some(every);
        self
    }

    /// Enables in-flight tracking (checker support).
    #[must_use]
    pub fn with_tracking(mut self) -> Self {
        self.track_in_flight = true;
        self
    }

    /// Overrides the relay policy for all clients.
    #[must_use]
    pub fn with_relay(mut self, relay: RelayPolicy) -> Self {
        self.relay = Some(relay);
        self
    }

    /// The worst-case `df` of the current channel config.
    pub fn df(&self) -> SimDuration {
        self.fr_channel.delay.upper_bound()
    }

    /// The worst-case `dg`.
    pub fn dg(&self) -> SimDuration {
        self.rr_channel.delay.upper_bound()
    }

    /// The virtual-time horizon `run_until_quiescent` is willing to wait
    /// from `now`: a generous multiple of the gossip + propagation period
    /// plus a constant floor. Deterministic fault-free runs converge far
    /// earlier; hitting this budget indicates a genuine liveness bug.
    pub fn quiescence_budget(&self, now: SimTime) -> SimTime {
        SimTime::from_micros(
            now.as_micros()
                + (self.gossip_interval + self.dg()).as_micros() * 1_000
                + 1_000_000_000,
        )
    }
}

/// Scheduled fault-injection actions (paper §9.3 / Theorem 9.4).
#[derive(Clone, Debug)]
pub enum FaultEvent {
    /// Crash a replica, losing volatile memory (stable storage retained).
    Crash(ReplicaId),
    /// Restart a crashed replica with [`Replica::restore`] from the image
    /// its crash kept ([`Replica::crash`]), volatile from then on (a
    /// restart from a durable backend's disk image goes through
    /// [`SimSystem::replace_replica`]).
    Recover(ReplicaId),
    /// Drop all traffic on every channel touching this replica.
    Isolate(ReplicaId),
    /// End the isolation.
    Reconnect(ReplicaId),
    /// Replace every channel's configuration (e.g. to violate and later
    /// restore the timing assumptions for Theorem 9.4).
    SetChannels {
        /// New front-end↔replica config.
        fr: ChannelConfig,
        /// New replica↔replica config.
        rr: ChannelConfig,
    },
}

/// Simulation events.
enum Event<O, V> {
    SubmitRequest {
        client: ClientId,
        sends: Vec<(ReplicaId, RequestMsg<O>)>,
    },
    DeliverRequest {
        to: ReplicaId,
        msg: RequestMsg<O>,
    },
    ProcessRequest {
        at: ReplicaId,
        msg: RequestMsg<O>,
    },
    DeliverGossip {
        to: ReplicaId,
        msg: GossipEnvelope<O>,
        tag: u64,
        /// The (sender, receiver) incarnations when the message was sent:
        /// a gossip message in flight across a crash of either endpoint
        /// dies with the connection.
        epochs: (u64, u64),
    },
    ProcessGossip {
        at: ReplicaId,
        msg: GossipEnvelope<O>,
        epochs: (u64, u64),
    },
    DeliverResponse {
        to: ClientId,
        msg: ResponseMsg<V>,
    },
    GossipTick {
        from: ReplicaId,
    },
    RetryTick {
        client: ClientId,
    },
    Fault(FaultEvent),
}

/// One entry of the response log: `(id, value, witness order)`.
pub type ResponseRecord<V> = (OpId, V, Option<Vec<OpId>>);

/// One simulator step: the virtual time it completed at plus its report.
pub type TimedStep<T> = (
    SimTime,
    StepReport<<T as SerialDataType>::Operator, <T as SerialDataType>::Value>,
);

/// What happened during one simulation event (conformance-observer food).
#[derive(Clone, Debug)]
pub struct StepReport<O, V> {
    /// Requests newly submitted (the `request(x)` actions).
    pub new_requests: Vec<OpDescriptor<O>>,
    /// Responses computed by replicas: `(id, value, witness)`.
    pub responses_computed: Vec<(OpId, V, Option<Vec<OpId>>)>,
    /// Responses delivered to clients (the `response(x, v)` actions).
    pub deliveries: Vec<(OpId, V)>,
}

// Manual impl: `O`/`V` need not be Default themselves.
impl<O, V> Default for StepReport<O, V> {
    fn default() -> Self {
        StepReport {
            new_requests: Vec::new(),
            responses_computed: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

impl<O, V> StepReport<O, V> {
    /// Whether this step produced no externally-visible action.
    pub fn is_trivial(&self) -> bool {
        self.new_requests.is_empty()
            && self.responses_computed.is_empty()
            && self.deliveries.is_empty()
    }
}

/// Per-operation timing record.
#[derive(Copy, Clone, Debug)]
pub struct OpTiming {
    /// Submission time.
    pub submitted: SimTime,
    /// Client-delivery time of the response, if any yet.
    pub responded: Option<SimTime>,
    /// Time the operation became done at every replica (Lemma 9.2), if
    /// known.
    pub done_everywhere: Option<SimTime>,
    /// Response-time class.
    pub class: OpClass,
}

enum Slot<T: SerialDataType> {
    /// A running node; a durable one owns its backend (see
    /// [`SimSystem::install_persistence`]).
    Alive(Box<Node<T>>),
    /// What the crash kept ([`Replica::crash`]); [`FaultEvent::Recover`]
    /// restores from it.
    Crashed(esds_alg::RestoreImage<T>),
}

impl<T: SerialDataType> Slot<T> {
    fn replica(&self) -> Option<&Replica<T>> {
        match self {
            Slot::Alive(node) => Some(node.replica()),
            Slot::Crashed(_) => None,
        }
    }
}

struct EsdsWorld<T: SerialDataType + Clone> {
    dt: T,
    config: SystemConfig,
    replicas: Vec<Slot<T>>,
    busy: Vec<SimTime>,
    isolated: Vec<bool>,
    /// Per-replica incarnation counter, bumped at every crash; gossip
    /// events carry both endpoints' values at send time so pre-crash
    /// in-flight messages are dropped instead of crossing the crash.
    /// Toward a recovered receiver, stale deltas could mark ops done
    /// whose labels died with the crash (Invariant 7.5); from a dead
    /// sender, a stale handshake could re-pollute the state the
    /// receiver's `reset_watermark` just rewound, suppressing re-sends
    /// the recovered incarnation still needs.
    crash_epoch: Vec<u64>,
    /// Per replica, the peers that restarted since it last gossiped to
    /// them: its next tick reports those links as [`Link::New`], so its
    /// node rewinds the delta state toward the memory-less incarnation
    /// ("requesting new gossip", §9.3).
    restarted: Vec<BTreeSet<ReplicaId>>,
    front_ends: Vec<FrontEnd<T::Operator, T::Value>>,
    users: Users<T::Operator>,

    c2r: BTreeMap<(u32, u32), ChannelModel>,
    r2c: BTreeMap<(u32, u32), ChannelModel>,
    r2r: BTreeMap<(u32, u32), ChannelModel>,

    requested: BTreeMap<OpId, OpDescriptor<T::Operator>>,
    submission_order: Vec<OpId>,
    responded: BTreeSet<OpId>,
    responses_log: Vec<(OpId, T::Value, Option<Vec<OpId>>)>,
    op_times: BTreeMap<OpId, OpTiming>,
    done_at: BTreeMap<OpId, BTreeSet<ReplicaId>>,

    in_flight_gossip: BTreeMap<u64, (ReplicaId, GossipMsg<T::Operator>)>,
    gossip_tag: u64,
    gossip_messages_sent: u64,
    gossip_bytes_sent: u64,

    scratch: StepReport<T::Operator, T::Value>,
}

impl<T: SerialDataType + Clone> EsdsWorld<T> {
    fn channel_seed(&self, kind: u64, a: u32, b: u32) -> u64 {
        derive_seed(
            self.config.seed,
            (kind << 48) | ((a as u64) << 24) | b as u64,
        )
    }

    fn node(&mut self, r: ReplicaId) -> Option<&mut Node<T>> {
        match &mut self.replicas[r.0 as usize] {
            Slot::Alive(node) => Some(node),
            Slot::Crashed(_) => None,
        }
    }

    /// Crashes slot `r` (no-op if it is down): volatile state and backend
    /// are lost, and in-flight messages to the old incarnation die with
    /// its connections.
    fn crash(&mut self, r: ReplicaId) {
        let i = r.0 as usize;
        if let Slot::Alive(node) = &self.replicas[i] {
            self.replicas[i] = Slot::Crashed(node.replica().crash());
            self.crash_epoch[i] += 1;
        }
    }

    /// Runs a restarted node in slot `r`; every peer's next gossip tick
    /// reaches it over a new link.
    fn revive(&mut self, r: ReplicaId, node: Node<T>, now: SimTime) {
        let i = r.0 as usize;
        self.replicas[i] = Slot::Alive(Box::new(node));
        self.busy[i] = now;
        self.restarted[i].clear();
        for (j, peers) in self.restarted.iter_mut().enumerate() {
            if j != i {
                peers.insert(r);
            }
        }
    }

    /// Feeds one input to replica `r`'s node (dropped if `r` is down).
    /// The effects it released enter the network; a dead node — its
    /// persist failed — crashes the slot and releases nothing.
    fn input(
        &mut self,
        r: ReplicaId,
        queue: &mut EventQueue<Event<T::Operator, T::Value>>,
        f: impl FnOnce(&mut Node<T>) -> Result<Vec<RespondEffect<T::Value>>, Dead>,
    ) {
        let Some(node) = self.node(r) else { return };
        match f(node) {
            Ok(effects) => {
                self.apply_effects(r, queue, effects);
                self.note_newly_done(r, queue.now());
            }
            Err(_) => self.crash(r),
        }
    }

    fn transmit_c2r(
        &mut self,
        c: ClientId,
        r: ReplicaId,
        queue: &mut EventQueue<Event<T::Operator, T::Value>>,
        msg: RequestMsg<T::Operator>,
    ) {
        if self.isolated[r.0 as usize] {
            return;
        }
        let cfg = self.config.fr_channel;
        let seed = self.channel_seed(1, c.0, r.0);
        let ch = self
            .c2r
            .entry((c.0, r.0))
            .or_insert_with(|| ChannelModel::new(cfg, seed));
        for d in ch.transmit() {
            queue.schedule_after(
                d,
                Event::DeliverRequest {
                    to: r,
                    msg: msg.clone(),
                },
            );
        }
    }

    fn transmit_r2c(
        &mut self,
        r: ReplicaId,
        c: ClientId,
        queue: &mut EventQueue<Event<T::Operator, T::Value>>,
        msg: ResponseMsg<T::Value>,
    ) {
        if self.isolated[r.0 as usize] {
            return;
        }
        let cfg = self.config.fr_channel;
        let seed = self.channel_seed(2, r.0, c.0);
        let ch = self
            .r2c
            .entry((r.0, c.0))
            .or_insert_with(|| ChannelModel::new(cfg, seed));
        for d in ch.transmit() {
            queue.schedule_after(
                d,
                Event::DeliverResponse {
                    to: c,
                    msg: msg.clone(),
                },
            );
        }
    }

    fn transmit_r2r(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        queue: &mut EventQueue<Event<T::Operator, T::Value>>,
        msg: GossipEnvelope<T::Operator>,
    ) {
        if self.isolated[from.0 as usize] || self.isolated[to.0 as usize] {
            return;
        }
        let cfg = self.config.rr_channel;
        let seed = self.channel_seed(3, from.0, to.0);
        let ch = self
            .r2r
            .entry((from.0, to.0))
            .or_insert_with(|| ChannelModel::new(cfg, seed));
        for d in ch.transmit() {
            let tag = self.gossip_tag;
            self.gossip_tag += 1;
            if self.config.track_in_flight {
                // Checkers reason over the snapshot-shaped view of the
                // message (batched D/S summaries expanded).
                self.in_flight_gossip.insert(tag, (to, msg.to_snapshot()));
            }
            queue.schedule_after(
                d,
                Event::DeliverGossip {
                    to,
                    msg: msg.clone(),
                    tag,
                    epochs: (
                        self.crash_epoch[from.0 as usize],
                        self.crash_epoch[to.0 as usize],
                    ),
                },
            );
        }
    }

    /// Queueing model: returns when the replica's server finishes this
    /// event's processing; `None` means "process inline right now".
    fn finish_time(&mut self, r: ReplicaId, now: SimTime, cost: SimDuration) -> Option<SimTime> {
        let b = &mut self.busy[r.0 as usize];
        let start = (*b).max(now);
        let done = start + cost;
        if done == now {
            None
        } else {
            *b = done;
            Some(done)
        }
    }

    /// Whether an in-flight gossip message predates a crash of either
    /// endpoint (see the `crash_epoch` field): such messages died with
    /// the connection.
    fn gossip_is_stale(&self, from: ReplicaId, to: ReplicaId, epochs: (u64, u64)) -> bool {
        epochs
            != (
                self.crash_epoch[from.0 as usize],
                self.crash_epoch[to.0 as usize],
            )
    }

    /// Handles replica output effects: transmit responses, update logs.
    fn apply_effects(
        &mut self,
        r: ReplicaId,
        queue: &mut EventQueue<Event<T::Operator, T::Value>>,
        effects: Vec<RespondEffect<T::Value>>,
    ) {
        for e in effects {
            self.responded.insert(e.msg.id);
            self.responses_log
                .push((e.msg.id, e.msg.value.clone(), e.msg.witness.clone()));
            self.scratch.responses_computed.push((
                e.msg.id,
                e.msg.value.clone(),
                e.msg.witness.clone(),
            ));
            self.transmit_r2c(r, e.client, queue, e.msg);
        }
    }

    /// Drains newly-done bookkeeping for the Lemma 9.2 experiment.
    fn note_newly_done(&mut self, r: ReplicaId, now: SimTime) {
        let n = self.config.n_replicas;
        let Some(node) = self.node(r) else { return };
        for x in node.take_newly_done() {
            let set = self.done_at.entry(x).or_default();
            set.insert(r);
            if set.len() == n {
                if let Some(t) = self.op_times.get_mut(&x) {
                    t.done_everywhere.get_or_insert(now);
                }
            }
        }
    }

    fn apply_fault(&mut self, f: FaultEvent, queue: &mut EventQueue<Event<T::Operator, T::Value>>) {
        match f {
            FaultEvent::Crash(r) => self.crash(r),
            FaultEvent::Recover(r) => {
                if let Slot::Crashed(img) = &self.replicas[r.0 as usize] {
                    let rep = Replica::restore(
                        self.dt.clone(),
                        img.clone(),
                        self.config.n_replicas,
                        self.config.replica,
                    );
                    self.revive(r, Node::new(rep, None), queue.now());
                }
            }
            FaultEvent::Isolate(r) => self.isolated[r.0 as usize] = true,
            FaultEvent::Reconnect(r) => self.isolated[r.0 as usize] = false,
            FaultEvent::SetChannels { fr, rr } => {
                self.config.fr_channel = fr;
                self.config.rr_channel = rr;
                for ch in self.c2r.values_mut().chain(self.r2c.values_mut()) {
                    ch.set_config(fr);
                }
                for ch in self.r2r.values_mut() {
                    ch.set_config(rr);
                }
            }
        }
    }
}

impl<T: SerialDataType + Clone> World for EsdsWorld<T> {
    type Event = Event<T::Operator, T::Value>;

    fn handle(&mut self, event: Self::Event, queue: &mut EventQueue<Self::Event>) {
        match event {
            Event::SubmitRequest { client, sends } => {
                for (r, msg) in sends {
                    self.transmit_c2r(client, r, queue, msg);
                }
            }
            Event::DeliverRequest { to, msg } => {
                if self.node(to).is_none() {
                    return; // crashed: message lost with the process
                }
                match self.finish_time(to, queue.now(), self.config.processing.request_cost) {
                    None => self.input(to, queue, |node| node.on_request(msg.desc)),
                    Some(at) => queue.schedule_at(at, Event::ProcessRequest { at: to, msg }),
                }
            }
            Event::ProcessRequest { at, msg } => {
                self.input(at, queue, |node| node.on_request(msg.desc));
            }
            Event::DeliverGossip {
                to,
                msg,
                tag,
                epochs,
            } => {
                self.in_flight_gossip.remove(&tag);
                if self.gossip_is_stale(msg.from(), to, epochs) || self.node(to).is_none() {
                    return;
                }
                match self.finish_time(to, queue.now(), self.config.processing.gossip_cost) {
                    None => self.input(to, queue, |node| node.on_gossip(msg)),
                    Some(at) => queue.schedule_at(
                        at,
                        Event::ProcessGossip {
                            at: to,
                            msg,
                            epochs,
                        },
                    ),
                }
            }
            Event::ProcessGossip { at, msg, epochs } => {
                if !self.gossip_is_stale(msg.from(), at, epochs) {
                    self.input(at, queue, |node| node.on_gossip(msg));
                }
            }
            Event::DeliverResponse { to, msg } => {
                let id = msg.id;
                if let Some(delivery) = self.front_ends[to.0 as usize].on_response(msg) {
                    if let Some(t) = self.op_times.get_mut(&id) {
                        t.responded.get_or_insert(queue.now());
                    }
                    self.scratch.deliveries.push((delivery.id, delivery.value));
                }
            }
            Event::GossipTick { from } => {
                queue.schedule_after(self.config.gossip_interval, Event::GossipTick { from });
                let n = self.config.n_replicas;
                if n < 2 {
                    return;
                }
                // Isolated endpoints produce/receive nothing. Skipping
                // *before* constructing the message matters for batched
                // gossip: poll_gossip irreversibly records what was
                // shipped (handshake and sent-label state), so building a
                // message the fault model then drops would lose those
                // deltas forever (Reconnect, unlike Recover, does not
                // make the links new).
                let i = from.0 as usize;
                if self.isolated[i] || self.node(from).is_none() {
                    return;
                }
                let mut links: Vec<Link> = (0..n)
                    .map(|p| {
                        if p == i || self.isolated[p] {
                            Link::Down
                        } else if self.restarted[i].remove(&ReplicaId(p as u32)) {
                            Link::New
                        } else {
                            Link::Up
                        }
                    })
                    .collect();
                // §10.4's broadcast: one envelope, built for the first
                // reachable peer and delivered to all of them.
                let fan_out = self.config.broadcast_gossip.then(|| {
                    let reachable: Vec<usize> =
                        (0..n).filter(|p| links[*p] != Link::Down).collect();
                    for p in reachable.iter().skip(1) {
                        links[*p] = Link::Down;
                    }
                    reachable
                });
                let node = self.node(from).expect("alive checked");
                let Ok(outbox) = node.on_tick(&links) else {
                    self.crash(from);
                    return;
                };
                for (p, msg) in outbox {
                    self.gossip_messages_sent += 1;
                    self.gossip_bytes_sent += msg.approx_bytes() as u64;
                    match &fan_out {
                        Some(peers) => {
                            for q in peers {
                                self.transmit_r2r(from, ReplicaId(*q as u32), queue, msg.clone());
                            }
                        }
                        None => self.transmit_r2r(from, p, queue, msg),
                    }
                }
            }
            Event::RetryTick { client } => {
                if let Some(every) = self.config.retry_interval {
                    queue.schedule_after(every, Event::RetryTick { client });
                }
                let sends = self.front_ends[client.0 as usize].resend_pending();
                for (r, msg) in sends {
                    self.transmit_c2r(client, r, queue, msg);
                }
            }
            Event::Fault(f) => self.apply_fault(f, queue),
        }
    }
}

/// A complete simulated ESDS deployment with a user-facing API: create
/// clients, submit operations, run virtual time, inspect results.
///
/// # Examples
///
/// ```
/// use esds_harness::{SimSystem, SystemConfig};
/// use esds_datatypes::{Counter, CounterOp, CounterValue};
///
/// let mut sys = SimSystem::new(Counter, SystemConfig::new(3).with_seed(7));
/// let c = sys.add_client(0);
/// let inc = sys.submit(c, CounterOp::Increment(5), &[], true);
/// let read = sys.submit(c, CounterOp::Read, &[inc], false);
/// sys.run_until_quiescent();
/// assert_eq!(sys.response(read), Some(&CounterValue::Count(5)));
/// ```
pub struct SimSystem<T: SerialDataType + Clone> {
    world: EsdsWorld<T>,
    queue: EventQueue<Event<T::Operator, T::Value>>,
}

impl<T: SerialDataType + Clone> SimSystem<T> {
    /// Builds a deployment with `config.n_replicas` replicas and no clients.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero
    /// replicas; batched gossip combined with broadcast, lossy or
    /// reordering replica channels).
    pub fn new(dt: T, config: SystemConfig) -> Self {
        assert!(config.n_replicas > 0, "need at least one replica");
        if let esds_alg::GossipStrategy::Batched { every } = config.replica.gossip {
            assert!(
                !config.broadcast_gossip,
                "broadcast gossip sends one message to all peers; per-peer batched state cannot apply"
            );
            assert!(
                config.rr_channel.loss_prob <= 0.0,
                "delta gossip (batched) assumes reliable replica channels: a dropped message \
                 loses its deltas forever (the simulator, unlike the TCP transport, has no \
                 send-failure signal to report as a lost write); use GossipStrategy::Full with \
                 lossy rr channels"
            );
            // Batched exchanges additionally need *in-order* delivery:
            // each batch carries a complete done/stable summary while the
            // matching labels ship only once, so a later batch overtaking
            // an earlier one can mark an op done before its label arrives
            // (Invariant 7.5). Successive batches to one peer are
            // every·g apart, so delivery is order-preserving iff the
            // channel's delay spread is within that gap.
            let delay = config.rr_channel.delay;
            let spread = delay.upper_bound().as_micros() - delay.lower_bound().as_micros();
            let gap = config.gossip_interval.as_micros() * u64::from(every.max(1));
            assert!(
                spread <= gap,
                "batched gossip needs FIFO replica channels: rr delay spread {spread}µs exceeds \
                 the {gap}µs between successive batches, so batches could be reordered"
            );
        }
        let replicas = (0..config.n_replicas)
            .map(|i| {
                let rep = Replica::new(
                    dt.clone(),
                    ReplicaId(i as u32),
                    config.n_replicas,
                    config.replica,
                );
                Slot::Alive(Box::new(Node::new(rep, None)))
            })
            .collect();
        let mut queue = EventQueue::new();
        for i in 0..config.n_replicas {
            queue.schedule_at(
                SimTime::ZERO + config.gossip_interval,
                Event::GossipTick {
                    from: ReplicaId(i as u32),
                },
            );
        }
        let world = EsdsWorld {
            dt,
            busy: vec![SimTime::ZERO; config.n_replicas],
            isolated: vec![false; config.n_replicas],
            crash_epoch: vec![0; config.n_replicas],
            restarted: vec![BTreeSet::new(); config.n_replicas],
            replicas,
            front_ends: Vec::new(),
            users: Users::new(),
            c2r: BTreeMap::new(),
            r2c: BTreeMap::new(),
            r2r: BTreeMap::new(),
            requested: BTreeMap::new(),
            submission_order: Vec::new(),
            responded: BTreeSet::new(),
            responses_log: Vec::new(),
            op_times: BTreeMap::new(),
            done_at: BTreeMap::new(),
            in_flight_gossip: BTreeMap::new(),
            gossip_tag: 0,
            gossip_messages_sent: 0,
            gossip_bytes_sent: 0,
            scratch: StepReport::default(),
            config,
        };
        SimSystem { world, queue }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.world.config
    }

    /// Adds a client; its front end uses the configured relay policy, or
    /// attaches to replica `hint mod n` by default.
    pub fn add_client(&mut self, hint: u32) -> ClientId {
        let c = ClientId(self.world.front_ends.len() as u32);
        let policy = self
            .world
            .config
            .relay
            .unwrap_or(RelayPolicy::Fixed(ReplicaId(
                hint % self.world.config.n_replicas as u32,
            )));
        self.world
            .front_ends
            .push(FrontEnd::new(c, self.world.config.n_replicas, policy));
        if let Some(every) = self.world.config.retry_interval {
            self.queue
                .schedule_at(self.queue.now() + every, Event::RetryTick { client: c });
        }
        c
    }

    /// Submits an operation *now*; the request enters the network at the
    /// current virtual time. Returns the assigned operation id.
    ///
    /// # Panics
    ///
    /// Panics on client well-formedness violations (unknown `prev` ids) —
    /// these are bugs in the calling test/experiment, not runtime
    /// conditions.
    pub fn submit(
        &mut self,
        client: ClientId,
        op: T::Operator,
        prev: &[OpId],
        strict: bool,
    ) -> OpId {
        self.submit_at(self.queue.now(), client, op, prev, strict)
    }

    /// Submits an operation at a future virtual time. The identifier is
    /// assigned immediately (ids are in submission order); the request
    /// message enters the network at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or the request is ill-formed.
    pub fn submit_at(
        &mut self,
        at: SimTime,
        client: ClientId,
        op: T::Operator,
        prev: &[OpId],
        strict: bool,
    ) -> OpId {
        let fe = &mut self.world.front_ends[client.0 as usize];
        let (id, sends) = fe.submit(op, prev.iter().copied(), strict);
        let desc = sends
            .first()
            .map(|(_, m)| m.desc.clone())
            .expect("at least one relay target");
        self.world
            .users
            .request(desc.clone())
            .expect("well-formed request");
        self.world.requested.insert(id, desc.clone());
        self.world.submission_order.push(id);
        self.world.op_times.insert(
            id,
            OpTiming {
                submitted: at,
                responded: None,
                done_everywhere: None,
                class: OpClass::of(&desc),
            },
        );
        self.world.scratch.new_requests.push(desc);
        self.queue
            .schedule_at(at, Event::SubmitRequest { client, sends });
        id
    }

    /// Schedules a fault at an absolute time.
    pub fn schedule_fault(&mut self, at: SimTime, fault: FaultEvent) {
        self.queue.schedule_at(at, Event::Fault(fault));
    }

    /// Installs a durable backend for replica `r`: the slot runs a fresh
    /// node owning it, which persists every input *before* its effects
    /// (responses, gossip) enter the simulated network — the
    /// sync-before-release discipline of [`esds_alg::Node`]. A persist
    /// failure (e.g. an armed `esds_store::CrashPlan`) crashes the slot
    /// exactly like [`FaultEvent::Crash`]: the input's effects are
    /// dropped, volatile state is lost.
    ///
    /// The backend must have been opened for the *same* identity and an
    /// *empty* disk, so its internal generation matches the fresh
    /// replica; a restart-from-disk goes through
    /// [`SimSystem::replace_replica`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the system was not configured with
    /// `config.replica.durable` (see [`Node::new`]), if `r` is out of
    /// range, or if replica `r` has already processed an operation.
    pub fn install_persistence(&mut self, r: usize, store: Box<dyn esds_alg::Persistence<T>>) {
        let config = self.world.config.replica;
        let rep = self.world.replicas[r]
            .replica()
            .unwrap_or_else(|| panic!("replica {r} is crashed; use replace_replica"));
        assert!(
            rep.rcvd().is_empty() && rep.memo_order().is_empty(),
            "install_persistence must run before replica {r} processes anything (earlier \
             inputs would be missing from the log)"
        );
        let n = self.world.config.n_replicas;
        let fresh = Replica::new(self.world.dt.clone(), rep.id(), n, config);
        self.world.replicas[r] = Slot::Alive(Box::new(Node::new(fresh, Some(store))));
    }

    /// Replaces a **crashed** slot with a replica recovered from disk
    /// (e.g. by `esds_store::DurableStore::open` over the surviving
    /// image), its backend alongside. The replica re-enters through the
    /// §9.3 gate — passive until it has gossiped with every peer — and
    /// peers reach it over new links, like [`FaultEvent::Recover`].
    ///
    /// # Panics
    ///
    /// Panics if slot `r` is still alive.
    pub fn replace_replica(
        &mut self,
        r: usize,
        rep: Replica<T>,
        store: Option<Box<dyn esds_alg::Persistence<T>>>,
    ) {
        assert!(
            matches!(self.world.replicas[r], Slot::Crashed(_)),
            "replace_replica targets a crashed slot; crash replica {r} first"
        );
        let now = self.queue.now();
        self.world
            .revive(ReplicaId(r as u32), Node::new(rep, store), now);
    }

    /// Runs until the given virtual time.
    pub fn run_until(&mut self, t: SimTime) {
        esds_sim::run(&mut self.world, &mut self.queue, Some(t));
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.queue.now() + d;
        self.run_until(t);
    }

    /// Runs one event and returns its report (`None` when the queue is
    /// empty). The report also carries any `submit` calls made since the
    /// previous step — their `request(x)` actions belong to this
    /// observation window.
    pub fn step_one(&mut self) -> Option<TimedStep<T>> {
        let stats = esds_sim::run_steps(&mut self.world, &mut self.queue, 1);
        if stats.events == 0 {
            return None;
        }
        let report = std::mem::take(&mut self.world.scratch);
        Some((stats.end_time, report))
    }

    /// Runs until every submitted operation has been answered *and* is
    /// stable at every replica, or until `max` virtual time passes.
    ///
    /// # Errors
    ///
    /// Returns the ids still unanswered/unstable on timeout.
    pub fn run_until_converged(&mut self, max: SimTime) -> Result<SimTime, String> {
        loop {
            let horizon = (self.queue.now() + self.world.config.gossip_interval).min(max);
            let stats = esds_sim::run(&mut self.world, &mut self.queue, Some(horizon));
            if self.is_converged() {
                return Ok(self.queue.now());
            }
            if self.queue.now() >= max || stats.stopped == StopReason::Quiescent {
                let missing: Vec<String> = self
                    .world
                    .requested
                    .keys()
                    .filter(|id| !self.world.responded.contains(id))
                    .map(|id| id.to_string())
                    .collect();
                return Err(format!("not converged by {max}: unanswered {missing:?}"));
            }
        }
    }

    /// Convenience wrapper: converge within a generous horizon.
    ///
    /// # Panics
    ///
    /// Panics if convergence is not reached (deterministic tests should
    /// always converge; prefer [`SimSystem::run_until_converged`] when
    /// faults make convergence uncertain).
    pub fn run_until_quiescent(&mut self) -> SimTime {
        let budget = self.world.config.quiescence_budget(self.queue.now());
        match self.run_until_converged(budget) {
            Ok(t) => t,
            Err(e) => panic!("run_until_quiescent: {e}"),
        }
    }

    /// Whether every requested operation is answered and stable at every
    /// replica (and all replicas are alive).
    pub fn is_converged(&self) -> bool {
        let w = &self.world;
        w.replicas
            .iter()
            .all(|s| s.replica().is_some_and(|r| !r.is_recovering()))
            && w.front_ends.iter().all(|f| f.waiting_ids().is_empty())
            && w.requested
                .keys()
                .all(|id| self.op_is_stable_everywhere(*id))
    }

    // ------------------------------------------------------------------
    // Results & inspection
    // ------------------------------------------------------------------

    /// The response delivered for `id`, if any.
    pub fn response(&self, id: OpId) -> Option<&T::Value> {
        self.world
            .front_ends
            .get(id.client().0 as usize)
            .and_then(|f| f.value_of(id))
    }

    /// Every request ever submitted.
    pub fn requested(&self) -> &BTreeMap<OpId, OpDescriptor<T::Operator>> {
        &self.world.requested
    }

    /// Every request, in submission order (the order the `Users` automaton
    /// observed them — prev targets always precede their dependents).
    pub fn requested_in_order(&self) -> Vec<&OpDescriptor<T::Operator>> {
        self.world
            .submission_order
            .iter()
            .map(|id| &self.world.requested[id])
            .collect()
    }

    /// The response log: `(id, value, witness)` in computation order
    /// (includes duplicates from retries).
    pub fn responses_log(&self) -> &[ResponseRecord<T::Value>] {
        &self.world.responses_log
    }

    /// Timing record per operation.
    pub fn op_times(&self) -> &BTreeMap<OpId, OpTiming> {
        &self.world.op_times
    }

    /// Latency histograms per response-time class, over answered ops.
    pub fn latency_by_class(&self) -> BTreeMap<OpClass, Histogram> {
        let mut out: BTreeMap<OpClass, Histogram> = BTreeMap::new();
        for t in self.world.op_times.values() {
            if let Some(r) = t.responded {
                out.entry(t.class)
                    .or_default()
                    .record(r.duration_since(t.submitted));
            }
        }
        out
    }

    /// Count of answered operations.
    pub fn completed_count(&self) -> usize {
        self.world
            .op_times
            .values()
            .filter(|t| t.responded.is_some())
            .count()
    }

    /// The system-wide minimum-label order over all done operations — the
    /// eventual total order once every label has converged.
    pub fn minlabel_order(&self) -> Vec<OpId> {
        self.view().expect("all replicas alive").minlabel_order()
    }

    /// Whether every replica of this deployment is currently alive (not
    /// crashed). Stability knowledge — and therefore
    /// [`SimSystem::stable_prefix`] — is only complete when they are.
    pub fn all_replicas_alive(&self) -> bool {
        self.world
            .replicas
            .iter()
            .all(|s| matches!(s, Slot::Alive(_)))
    }

    /// Whether `id` is *stable everywhere at every replica*: each replica
    /// knows every replica has it stable, so its label — and therefore
    /// its position in the eventual total order — is final and identical
    /// across the group. `false` while any replica is crashed (stability
    /// knowledge cannot be complete).
    pub fn op_is_stable_everywhere(&self, id: OpId) -> bool {
        self.world.replicas.iter().all(|s| {
            s.replica()
                .is_some_and(|r| r.stable_everywhere().contains(&id))
        })
    }

    /// The **stable prefix** of this deployment: every operation that is
    /// stable everywhere at every replica, in minimum-label order. This
    /// order is final — no future gossip can reorder it — which makes
    /// the prefix a *transferable artifact*: replaying it elsewhere
    /// reproduces exactly the state every strict (and eventually every
    /// nonstrict) response reflects. Slot migration
    /// (`ShardedSimSystem::begin_migration`) ships a keyspace slice of
    /// this prefix to the receiving group. `None` if a replica is
    /// crashed.
    pub fn stable_prefix(&self) -> Option<Vec<OpId>> {
        let order = self.view()?.minlabel_order();
        Some(
            order
                .into_iter()
                .filter(|id| self.op_is_stable_everywhere(*id))
                .collect(),
        )
    }

    /// The **position-final prefix** of the eventual total order: the
    /// minimum-label order truncated just past its *last*
    /// stable-everywhere operation — tentative operations interleaved
    /// before that point included.
    ///
    /// Unlike [`SimSystem::stable_prefix`] (which keeps only stable
    /// operations and so can have holes — stability *knowledge* of
    /// different operations completes in arbitrary order), this sequence
    /// is gap-free and every position in it is final. The fence
    /// argument: once `x` is stable everywhere, every replica has
    /// labeled `x`, so every replica's clock exceeds `x`'s
    /// system-minimum label; any label assigned from now on lands after
    /// `x`, and the already-assigned minimum labels below `x`'s are
    /// visible in the view — so the membership *and order* of everything
    /// at or before `x`'s position can no longer change. This is the
    /// correct `Stabilize` feed for the streaming audit
    /// ([`AuditDriver`](crate::AuditDriver)). `None` if a replica is
    /// crashed (stability knowledge is unobservable).
    pub fn final_prefix(&self) -> Option<Vec<OpId>> {
        let order = self.view()?.minlabel_order();
        Some(esds_spec::final_prefix(order, |id| {
            self.op_is_stable_everywhere(id)
        }))
    }

    /// A live borrow view for invariant checks. `None` if any replica is
    /// crashed or the system has no replicas.
    pub fn view(&self) -> Option<SystemView<'_, T>> {
        let replicas = self
            .world
            .replicas
            .iter()
            .map(Slot::replica)
            .collect::<Option<Vec<_>>>()?;
        let mut waiting = BTreeSet::new();
        for f in &self.world.front_ends {
            waiting.extend(f.waiting_ids());
        }
        Some(SystemView {
            replicas,
            gossip_in_flight: self
                .world
                .in_flight_gossip
                .values()
                .map(|(to, m)| (*to, m.clone()))
                .collect(),
            requested: self.world.requested.clone(),
            waiting,
            responded: self.world.responded.clone(),
        })
    }

    /// Per-replica local orders (label order) — equal iff converged.
    pub fn local_orders(&self) -> Vec<Vec<OpId>> {
        self.world
            .replicas
            .iter()
            .filter_map(|s| Some(s.replica()?.local_order()))
            .collect()
    }

    /// Per-replica object states obtained by replaying each local order.
    pub fn replica_states(&self) -> Vec<T::State> {
        self.world
            .replicas
            .iter()
            .filter_map(|s| Some(s.replica()?.current_state()))
            .collect()
    }

    /// Aggregated replica statistics.
    pub fn replica_stats(&self) -> Vec<ReplicaStats> {
        self.world
            .replicas
            .iter()
            .map(|s| s.replica().map(Replica::stats).unwrap_or_default())
            .collect()
    }

    /// Total gossip messages sent and their approximate bytes.
    pub fn gossip_traffic(&self) -> (u64, u64) {
        (
            self.world.gossip_messages_sent,
            self.world.gossip_bytes_sent,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    #[test]
    fn quickstart_roundtrip() {
        let mut sys = SimSystem::new(Counter, SystemConfig::new(3).with_seed(7));
        let c = sys.add_client(0);
        let inc = sys.submit(c, CounterOp::Increment(5), &[], true);
        let read = sys.submit(c, CounterOp::Read, &[inc], false);
        sys.run_until_quiescent();
        assert_eq!(sys.response(inc), Some(&CounterValue::Ack));
        assert_eq!(sys.response(read), Some(&CounterValue::Count(5)));
    }

    #[test]
    fn convergence_across_clients_and_replicas() {
        let mut sys = SimSystem::new(Counter, SystemConfig::new(4).with_seed(3));
        let clients: Vec<ClientId> = (0..4).map(|i| sys.add_client(i)).collect();
        for (i, c) in clients.iter().enumerate() {
            for _ in 0..5 {
                sys.submit(*c, CounterOp::Increment(i as i64 + 1), &[], false);
            }
        }
        sys.run_until_quiescent();
        let orders = sys.local_orders();
        let states = sys.replica_states();
        assert!(esds_spec::check_converged(&orders, &states).is_ok());
        // 5·(1+2+3+4) = 50.
        assert_eq!(states[0], 50);
        assert_eq!(sys.completed_count(), 20);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| -> Vec<(OpId, CounterValue)> {
            let cfg = SystemConfig::new(3).with_seed(seed).with_channels(
                ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(9)),
                ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(9)),
            );
            let mut sys = SimSystem::new(Counter, cfg);
            let a = sys.add_client(0);
            let b = sys.add_client(1);
            for i in 0..10 {
                sys.submit(a, CounterOp::Increment(1), &[], i % 3 == 0);
                sys.submit(b, CounterOp::Read, &[], false);
                sys.run_for(SimDuration::from_millis(2));
            }
            sys.run_until_quiescent();
            sys.responses_log()
                .iter()
                .map(|(id, v, _)| (*id, v.clone()))
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should reorder something");
    }

    #[test]
    fn retry_overcomes_message_loss() {
        let lossy = ChannelConfig::fixed(SimDuration::from_millis(5)).with_loss(0.4);
        let cfg = SystemConfig::new(3)
            .with_seed(11)
            .with_channels(lossy, lossy)
            .with_retry(SimDuration::from_millis(40));
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        for _ in 0..10 {
            sys.submit(c, CounterOp::Increment(1), &[], false);
        }
        let t = sys
            .run_until_converged(SimTime::from_millis(60_000))
            .expect("retries must eventually deliver");
        assert!(t > SimTime::ZERO);
        assert_eq!(sys.completed_count(), 10);
        assert_eq!(sys.replica_states()[0], 10);
    }

    #[test]
    fn batched_gossip_deployment_converges() {
        // The §10.4 batched strategy under the full simulator: batching 4
        // gossip intervals per exchange must still answer everything
        // (including strict ops) and converge, with fewer messages than
        // one per peer per tick.
        let cfg = SystemConfig::new(3)
            .with_seed(17)
            .with_replica(ReplicaConfig::default().with_batched(4));
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(sys.submit(c, CounterOp::Increment(1), &[], i % 4 == 0));
        }
        sys.run_until_quiescent();
        for id in &ids {
            assert_eq!(sys.response(*id), Some(&CounterValue::Ack));
        }
        let states = sys.replica_states();
        assert!(states.iter().all(|s| *s == 8), "diverged: {states:?}");
        let (msgs, bytes) = sys.gossip_traffic();
        assert!(msgs > 0 && bytes > 0);
        // 6 directed pairs tick every interval; batching emits on every
        // 4th tick per pair.
        let elapsed_ticks = sys.now().as_micros() / sys.config().gossip_interval.as_micros();
        assert!(
            msgs <= 6 * (elapsed_ticks / 4 + 1),
            "batching must cut message count: {msgs} msgs over {elapsed_ticks} ticks"
        );
    }

    #[test]
    fn batched_gossip_survives_isolation_fault() {
        // Regression: gossip polled toward an isolated replica used to be
        // dropped *after* the batched handshake recorded it as sent, so
        // the deltas were lost forever and the system never converged
        // after Reconnect.
        let cfg = SystemConfig::new(3)
            .with_seed(23)
            .with_replica(ReplicaConfig::default().with_batched(2));
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0); // attached to replica 0
        sys.schedule_fault(SimTime::from_millis(10), FaultEvent::Isolate(ReplicaId(2)));
        sys.schedule_fault(
            SimTime::from_millis(400),
            FaultEvent::Reconnect(ReplicaId(2)),
        );
        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(sys.submit(c, CounterOp::Increment(1), &[], false));
        }
        // Run through the outage: plenty of gossip ticks fire while
        // replica 2 is unreachable.
        sys.run_for(SimDuration::from_millis(300));
        // A strict op after reconnection needs replica 2 fully caught up.
        let audit = sys.submit_at(SimTime::from_millis(450), c, CounterOp::Read, &ids, true);
        sys.run_until_converged(SimTime::from_millis(10_000))
            .expect("deltas must survive the isolation window");
        assert_eq!(sys.response(audit), Some(&CounterValue::Count(5)));
        let states = sys.replica_states();
        assert!(states.iter().all(|s| *s == 5), "diverged: {states:?}");
    }

    #[test]
    fn batched_gossip_survives_crash_with_gossip_in_flight() {
        // Regression (found in review): a batch sent before a crash and
        // delivered after a fast recovery carried a complete done summary
        // whose labels only earlier batches had — the recovered replica
        // (labels lost) would mark those ops done unlabeled (Invariant
        // 7.5 panic in debug). Crash now invalidates in-flight gossip.
        let cfg = SystemConfig::new(2)
            .with_seed(31)
            .with_replica(ReplicaConfig::default().with_batched(1))
            .with_retry(SimDuration::from_millis(50));
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0); // attached to replica 0
        sys.submit(c, CounterOp::Increment(1), &[], false);
        // Let op1's label ship and settle, then time the crash inside a
        // later batch's flight window (ticks every 20 ms, delivery 5 ms
        // later): batch sent at 240 ms carries D ⊇ op1 but no label.
        sys.schedule_fault(SimTime::from_millis(241), FaultEvent::Crash(ReplicaId(1)));
        sys.schedule_fault(SimTime::from_millis(243), FaultEvent::Recover(ReplicaId(1)));
        sys.run_for(SimDuration::from_millis(400));
        let audit = sys.submit(c, CounterOp::Read, &[], true);
        sys.run_until_converged(SimTime::from_millis(10_000))
            .expect("recovered replica must catch up");
        assert_eq!(sys.response(audit), Some(&CounterValue::Count(1)));
    }

    #[test]
    #[should_panic(expected = "FIFO replica channels")]
    fn reordering_channels_reject_batched() {
        // uniform(1, 60) on a 20 ms gossip interval can reorder
        // successive batches; the constructor must refuse.
        let wide =
            ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(60));
        let cfg = SystemConfig::new(3)
            .with_replica(ReplicaConfig::default().with_batched(1))
            .with_channels(ChannelConfig::fixed(SimDuration::from_millis(5)), wide);
        let _ = SimSystem::new(Counter, cfg);
    }

    #[test]
    fn narrow_jitter_accepts_batched() {
        // A delay spread inside the batch gap cannot reorder batches:
        // accepted and converges.
        let narrow =
            ChannelConfig::uniform(SimDuration::from_millis(1), SimDuration::from_millis(9));
        let cfg = SystemConfig::new(3)
            .with_seed(41)
            .with_replica(ReplicaConfig::default().with_batched(2))
            .with_channels(narrow, narrow);
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        let id = sys.submit(c, CounterOp::Increment(3), &[], true);
        sys.run_until_quiescent();
        assert_eq!(sys.response(id), Some(&CounterValue::Ack));
    }

    #[test]
    #[should_panic(expected = "delta gossip")]
    fn lossy_channels_reject_batched() {
        let lossy = ChannelConfig::fixed(SimDuration::from_millis(5)).with_loss(0.2);
        let cfg = SystemConfig::new(3)
            .with_replica(ReplicaConfig::default().with_batched(2))
            .with_channels(ChannelConfig::fixed(SimDuration::from_millis(5)), lossy);
        let _ = SimSystem::new(Counter, cfg);
    }

    #[test]
    #[should_panic(expected = "broadcast gossip")]
    fn broadcast_rejects_batched() {
        let mut cfg = SystemConfig::new(3).with_replica(ReplicaConfig::default().with_batched(2));
        cfg.broadcast_gossip = true;
        let _ = SimSystem::new(Counter, cfg);
    }

    #[test]
    fn view_reports_in_flight_gossip() {
        let cfg = SystemConfig::new(2).with_seed(1).with_tracking();
        let mut sys = SimSystem::new(Counter, cfg);
        let c = sys.add_client(0);
        sys.submit(c, CounterOp::Increment(1), &[], false);
        // Run past a gossip tick but not past delivery (tick at 20ms,
        // delivery at 25ms).
        sys.run_until(SimTime::from_millis(21));
        let view = sys.view().expect("alive");
        assert!(!view.gossip_in_flight.is_empty());
    }

    #[test]
    fn crash_and_recover_preserves_service() {
        // The crash image has an empty prefix, so every configuration
        // restores from it: memoization, eager-commute and batched gossip
        // included.
        for replica in [
            ReplicaConfig::basic(),
            ReplicaConfig::default(),
            ReplicaConfig::default().with_batched(1),
            ReplicaConfig::commute(),
        ] {
            let cfg = SystemConfig::new(3)
                .with_seed(5)
                .with_replica(replica)
                .with_retry(SimDuration::from_millis(50));
            let mut sys = SimSystem::new(Counter, cfg);
            let c = sys.add_client(0); // attached to replica 0
            sys.submit(c, CounterOp::Increment(1), &[], false);
            sys.run_for(SimDuration::from_millis(200));
            // Crash the client's replica; retries keep hitting it until it
            // recovers (Fixed policy), so recovery must restore service.
            sys.schedule_fault(SimTime::from_millis(210), FaultEvent::Crash(ReplicaId(0)));
            sys.schedule_fault(SimTime::from_millis(400), FaultEvent::Recover(ReplicaId(0)));
            sys.run_for(SimDuration::from_millis(250));
            let id = sys.submit(c, CounterOp::Read, &[], false);
            sys.run_until_converged(SimTime::from_millis(5_000))
                .unwrap_or_else(|e| panic!("{replica:?}: {e}"));
            assert_eq!(
                sys.response(id),
                Some(&CounterValue::Count(1)),
                "{replica:?}"
            );
        }
    }
}
