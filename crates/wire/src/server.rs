//! The sans-IO half of a TCP replica node: every wire-protocol decision.
//!
//! A [`Server`] takes one transport event at a time — a connection
//! opened, a decoded frame on a connection, a connection closed, a gossip
//! tick, the outcome of a gossip write — and returns the frames to write,
//! each addressed to a connection or to a peer replica. It owns the
//! [`Node`] and all per-connection state: which `Hello` each connection
//! said, which connection a client's responses go to, and the sharded
//! handshake's `local id → global id` map. [`crate::tcp`] only frames,
//! decodes, dials and writes, so the protocol is tested here without
//! sockets.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use esds_alg::{Dead, GossipEnvelope, Link, Node, Replica, RespondEffect};
use esds_core::{ClientId, OpId, ReplicaId, RoutingTable, SerialDataType, ShardedOpId};
use esds_obs::Stage;
use parking_lot::Mutex;

use crate::message::{HelloId, ShardedResponseMsg, StabilityInfoMsg, WireMessage};
use crate::tcp::{NodeObs, StabilitySnapshot};

/// A transport connection, numbered by the transport.
pub(crate) type ConnId = u64;

/// Where an output frame goes.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum To {
    /// Back on an inbound connection.
    Conn(ConnId),
    /// To a peer replica, over the node's outbound gossip link.
    Peer(ReplicaId),
}

/// The frames one input released, in write order.
pub(crate) type Writes<O, V> = Vec<(To, WireMessage<O, V>)>;

/// Why a frame released nothing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum Halt {
    /// The frame broke the protocol: the transport closes its connection.
    Close,
    /// A persist failed ([`Dead`]): the transport stops the node.
    Dead,
}

/// One replica's protocol state machine (see the module docs).
pub(crate) struct Server<T: SerialDataType> {
    node: Node<T>,
    /// The deployment's routing table; `None` on an unsharded node.
    table: Option<Arc<Mutex<RoutingTable>>>,
    /// Open connections and the `Hello` each said, if any.
    conns: HashMap<ConnId, Option<HelloId>>,
    /// Where each registered client's responses go.
    clients: HashMap<ClientId, ConnId>,
    /// Operations accepted through the sharded handshake, until answered.
    globals: HashMap<OpId, ShardedOpId>,
    obs: Obs,
}

/// The node's metrics and lifecycle tracing.
struct Obs {
    registry: esds_obs::MetricsRegistry,
    requests: esds_obs::Counter,
    gossip_in: esds_obs::Counter,
    responses: esds_obs::Counter,
    unstable: esds_obs::Gauge,
    wm_age: esds_obs::Gauge,
    /// Per peer: `gossip_msgs`, `gossip_bytes`.
    peers: Vec<(esds_obs::Counter, esds_obs::Counter)>,
    tracer: esds_obs::OpTracer,
    shard: u32,
    /// Sampled in-flight ops awaiting a `stabilize` span.
    pending_stab: Vec<(OpId, String)>,
    /// The watermark-advance clock behind `stable_watermark_age_ms`.
    last_stable_n: usize,
    last_advance: Instant,
}

impl<T: SerialDataType> Server<T> {
    /// A server around `node`; shard-aware when given the deployment's
    /// routing `table`.
    pub(crate) fn new(
        node: Node<T>,
        table: Option<Arc<Mutex<RoutingTable>>>,
        obs: &NodeObs,
    ) -> Self {
        // Metric handles resolve to no-ops when the registry is disabled;
        // the per-tick gauge math is additionally gated on the registry
        // so the disabled path costs one predictable branch.
        let scope = match (obs.prefix.as_str(), node.replica().id()) {
            ("", id) => obs.registry.scoped(format!("replica{}", id.0)),
            (prefix, id) => obs.registry.scoped(format!("{prefix}/replica{}", id.0)),
        };
        let peer = |p, name| scope.counter(&format!("peer{p}/{name}"));
        let obs = Obs {
            registry: obs.registry.clone(),
            requests: scope.counter("requests"),
            gossip_in: scope.counter("gossip_in"),
            responses: scope.counter("responses"),
            unstable: scope.gauge("unstable_window"),
            wm_age: scope.gauge("stable_watermark_age_ms"),
            peers: (0..node.replica().n())
                .map(|p| (peer(p, "gossip_msgs"), peer(p, "gossip_bytes")))
                .collect(),
            tracer: obs.tracer.clone(),
            shard: obs.shard,
            pending_stab: Vec::new(),
            last_stable_n: 0,
            last_advance: Instant::now(),
        };
        Server {
            node,
            table,
            conns: HashMap::new(),
            clients: HashMap::new(),
            globals: HashMap::new(),
            obs,
        }
    }

    /// The replica, for reads.
    pub(crate) fn replica(&self) -> &Replica<T> {
        self.node.replica()
    }

    /// The replica, dropping everything else.
    pub(crate) fn into_replica(self) -> Replica<T> {
        self.node.into_replica()
    }

    /// The replica's stability knowledge, taken between two inputs.
    pub(crate) fn stability(&self) -> StabilitySnapshot {
        let rep = self.replica();
        StabilitySnapshot {
            order: rep.local_order(),
            stable_everywhere: rep.stable_everywhere().clone(),
        }
    }

    /// A connection opened; it has said no `Hello` yet.
    pub(crate) fn on_open(&mut self, conn: ConnId) {
        self.conns.insert(conn, None);
    }

    /// A connection closed. Its client's registration goes only while it
    /// still names this connection: a newer connection keeps its own.
    pub(crate) fn on_closed(&mut self, conn: ConnId) {
        self.unregister(conn);
        self.conns.remove(&conn);
    }

    /// One decoded frame on `conn`. Frames on a connection that is not
    /// open (never opened, or already refused) are ignored.
    ///
    /// # Errors
    ///
    /// [`Halt::Close`] for a frame the node refuses by closing the
    /// connection (a `ShardedRequest` at an unsharded node); [`Halt::Dead`]
    /// once the node has died.
    pub(crate) fn on_message(
        &mut self,
        conn: ConnId,
        msg: WireMessage<T::Operator, T::Value>,
    ) -> Result<Writes<T::Operator, T::Value>, Halt> {
        if !self.conns.contains_key(&conn) {
            return Ok(Vec::new());
        }
        let reply = |msg| Ok(vec![(To::Conn(conn), msg)]);
        match msg {
            WireMessage::Hello(hello) => {
                self.unregister(conn);
                if let HelloId::Client(c) = hello {
                    self.clients.insert(c, conn);
                }
                self.conns.insert(conn, Some(hello));
                Ok(Vec::new())
            }
            WireMessage::Request(m) => self.request(m.desc),
            WireMessage::ShardedRequest(m) => {
                let Some(table) = &self.table else {
                    // An unsharded node cannot version-check.
                    self.on_closed(conn);
                    return Err(Halt::Close);
                };
                let stale = {
                    let table = table.lock();
                    (table.version() != m.version).then(|| table.clone())
                };
                match stale {
                    // The client routed under the table this shard serves,
                    // so the key belongs here.
                    None => {
                        self.globals.insert(m.desc.id, m.global);
                        self.request(m.desc)
                    }
                    // NAK before the replica ever sees the descriptor.
                    Some(table) => reply(WireMessage::ShardedResponse(ShardedResponseMsg::Nak {
                        global: m.global,
                        table,
                    })),
                }
            }
            WireMessage::Gossip(g) => self.gossip(GossipEnvelope::Snapshot(g)),
            WireMessage::GossipBatched(b) => self.gossip(GossipEnvelope::Batched(b)),
            WireMessage::StabilityQuery => {
                let snap = self.stability();
                reply(WireMessage::StabilityInfo(StabilityInfoMsg {
                    order: snap.order,
                    stable_everywhere: snap.stable_everywhere.into_iter().collect(),
                }))
            }
            // The registry is process-wide; a node with metrics disabled
            // answers an empty snapshot, so pollers need not know its
            // config.
            WireMessage::MetricsQuery => {
                reply(WireMessage::MetricsInfo(self.obs.registry.snapshot()))
            }
            WireMessage::Response(_)
            | WireMessage::ShardedResponse(_)
            | WireMessage::StabilityInfo(_)
            | WireMessage::MetricsInfo(_) => Ok(Vec::new()),
        }
    }

    /// One gossip tick at `now` over `links` (indexed by replica id; the
    /// transport dials before it calls). Returns the envelopes due and
    /// updates the tick's gauges and `stabilize` spans.
    ///
    /// # Errors
    ///
    /// [`Dead`] once the node has died.
    pub(crate) fn on_tick(
        &mut self,
        now: Instant,
        links: &[Link],
    ) -> Result<Writes<T::Operator, T::Value>, Dead> {
        let outbox = self.node.on_tick(links)?;
        let obs = &mut self.obs;
        let enabled = obs.registry.is_enabled();
        if enabled || !obs.pending_stab.is_empty() {
            let rep = self.node.replica();
            let stable = rep.stable_everywhere();
            if stable.len() > obs.last_stable_n {
                obs.last_stable_n = stable.len();
                obs.last_advance = now;
            }
            if enabled {
                let age = now.saturating_duration_since(obs.last_advance);
                obs.wm_age.set(age.as_millis() as u64);
                obs.unstable
                    .set(rep.rcvd().len().saturating_sub(stable.len()) as u64);
            }
            let (tracer, shard) = (&obs.tracer, obs.shard);
            obs.pending_stab.retain(|(opid, s)| {
                let done = stable.contains(opid);
                if done {
                    tracer.emit(shard, s, Stage::Stabilize);
                }
                !done
            });
        }
        Ok(outbox
            .into_iter()
            .map(|(peer, env)| {
                let msg = match env {
                    GossipEnvelope::Batched(b) => WireMessage::GossipBatched(b),
                    GossipEnvelope::Snapshot(g) => WireMessage::Gossip(g),
                };
                (To::Peer(peer), msg)
            })
            .collect())
    }

    /// How a gossip write to `peer` went: `Some(bytes)` written, or
    /// `None` if the envelope was lost (the next one re-ships what it
    /// carried).
    pub(crate) fn on_peer_write(&mut self, peer: ReplicaId, written: Option<usize>) {
        let Some(bytes) = written else {
            // A dead node has nothing left to rewind.
            let _ = self.node.on_lost_write(peer);
            return;
        };
        let (msgs, total) = &self.obs.peers[peer.0 as usize];
        msgs.inc();
        total.add(bytes as u64);
    }

    fn request(
        &mut self,
        desc: esds_core::OpDescriptor<T::Operator>,
    ) -> Result<Writes<T::Operator, T::Value>, Halt> {
        self.obs.requests.inc();
        let tracer = &self.obs.tracer;
        if tracer.is_enabled() {
            let ids = desc.id.to_string();
            if tracer.sampled(&ids) {
                tracer.emit(self.obs.shard, &ids, Stage::ReplicaAccept);
                self.obs.pending_stab.push((desc.id, ids));
            }
        }
        let effects = self.node.on_request(desc).map_err(|_| Halt::Dead)?;
        Ok(self.respond(effects))
    }

    fn gossip(
        &mut self,
        env: GossipEnvelope<T::Operator>,
    ) -> Result<Writes<T::Operator, T::Value>, Halt> {
        self.obs.gossip_in.inc();
        let effects = self.node.on_gossip(env).map_err(|_| Halt::Dead)?;
        Ok(self.respond(effects))
    }

    /// Addresses each response to its client's connection at this moment
    /// (an unregistered client's is dropped; its front end re-sends).
    fn respond(&mut self, effects: Vec<RespondEffect<T::Value>>) -> Writes<T::Operator, T::Value> {
        let mut writes = Vec::with_capacity(effects.len());
        for e in effects {
            self.obs.responses.inc();
            if self.obs.tracer.is_enabled() {
                // The op carries its minlabel by the time the replica
                // answers (Thm 5.7's labelling step).
                self.obs
                    .tracer
                    .emit(self.obs.shard, &e.msg.id.to_string(), Stage::Label);
            }
            // Consumed here, so the map stays bounded by in-flight
            // operations; a retry of an answered request re-inserts it
            // before the replica re-answers.
            let msg = match self.globals.remove(&e.msg.id) {
                Some(global) => WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                    global,
                    resp: e.msg,
                }),
                None => WireMessage::Response(e.msg),
            };
            if let Some(&conn) = self.clients.get(&e.client) {
                writes.push((To::Conn(conn), msg));
            }
        }
        writes
    }

    /// Drops the client registration `conn` made, if it still holds.
    fn unregister(&mut self, conn: ConnId) {
        if let Some(Some(HelloId::Client(c))) = self.conns.get(&conn) {
            if self.clients.get(c) == Some(&conn) {
                self.clients.remove(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_alg::{ReplicaConfig, RequestMsg};
    use esds_core::OpDescriptor;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    use crate::message::ShardedRequestMsg;

    type Msg = WireMessage<CounterOp, CounterValue>;

    fn server(id: u32, n: usize, table: Option<RoutingTable>) -> Server<Counter> {
        let rep = Replica::new(Counter, ReplicaId(id), n, ReplicaConfig::default());
        let table = table.map(|t| Arc::new(Mutex::new(t)));
        Server::new(Node::new(rep, None), table, &NodeObs::default())
    }

    /// Opens `conn` and registers `client` on it.
    fn hello(s: &mut Server<Counter>, conn: ConnId, client: ClientId) {
        s.on_open(conn);
        let out = s.on_message(conn, Msg::Hello(HelloId::Client(client)));
        assert_eq!(out, Ok(Vec::new()));
    }

    fn sharded(version: u64, client: ClientId, seq: u64, strict: bool) -> Msg {
        let mut desc = OpDescriptor::new(OpId::new(client, seq), CounterOp::Increment(1));
        desc.strict = strict;
        Msg::ShardedRequest(ShardedRequestMsg {
            version,
            global: ShardedOpId::new(client, seq),
            desc,
        })
    }

    #[test]
    fn stale_version_is_nakked_on_its_own_connection() {
        let table = RoutingTable::uniform(1);
        let mut s = server(0, 1, Some(table.clone()));
        let c = ClientId(3);
        hello(&mut s, 1, c);
        s.on_open(2);
        let out = s.on_message(2, sharded(table.version() + 1, c, 0, false));
        assert_eq!(
            out,
            Ok(vec![(
                To::Conn(2),
                Msg::ShardedResponse(ShardedResponseMsg::Nak {
                    global: ShardedOpId::new(c, 0),
                    table,
                })
            )])
        );
        assert!(s.replica().rcvd().is_empty());
        assert!(s.globals.is_empty());
    }

    #[test]
    fn accepted_request_answers_with_its_global_id() {
        let table = RoutingTable::uniform(1);
        let mut s = server(0, 1, Some(table.clone()));
        let c = ClientId(3);
        hello(&mut s, 1, c);
        let out = s.on_message(1, sharded(table.version(), c, 0, false));
        let Ok(out) = out else {
            panic!("refused: {out:?}")
        };
        assert!(matches!(
            out.as_slice(),
            [(To::Conn(1), Msg::ShardedResponse(ShardedResponseMsg::Ok { global, resp }))]
                if *global == ShardedOpId::new(c, 0)
                    && resp.id == OpId::new(c, 0)
                    && resp.value == CounterValue::Ack
        ));
        assert!(s.globals.is_empty());
    }

    #[test]
    fn a_response_released_by_gossip_goes_to_the_current_connection() {
        let mut s0 = server(0, 2, None);
        let mut s1 = server(1, 2, None);
        let c = ClientId(4);
        hello(&mut s0, 1, c);
        let mut desc = OpDescriptor::new(OpId::new(c, 0), CounterOp::Increment(1));
        desc.strict = true;
        // Strict: no answer until replica 1 has voted it stable.
        let out = s0.on_message(1, Msg::Request(RequestMsg { desc }));
        assert_eq!(out, Ok(Vec::new()));
        // The client re-dials; its old connection closes afterwards.
        hello(&mut s0, 2, c);
        s0.on_closed(1);

        s1.on_open(9);
        for _ in 0..10 {
            let now = Instant::now();
            for (to, msg) in s0.on_tick(now, &[Link::Down, Link::Up]).unwrap() {
                assert_eq!(to, To::Peer(ReplicaId(1)));
                assert_eq!(s1.on_message(9, msg), Ok(Vec::new()));
            }
            for (to, msg) in s1.on_tick(now, &[Link::Up, Link::Down]).unwrap() {
                assert_eq!(to, To::Peer(ReplicaId(0)));
                let out = s0.on_message(2, msg).unwrap();
                if let [(to, Msg::Response(r))] = out.as_slice() {
                    assert_eq!((*to, r.id), (To::Conn(2), OpId::new(c, 0)));
                    return;
                }
                assert!(out.is_empty(), "{out:?}");
            }
        }
        panic!("the strict request was never answered");
    }

    #[test]
    fn stability_query_is_answered_on_the_asking_connection() {
        let mut s = server(0, 1, None);
        let c = ClientId(5);
        hello(&mut s, 1, c);
        let desc = OpDescriptor::new(OpId::new(c, 0), CounterOp::Increment(1));
        s.on_message(1, Msg::Request(RequestMsg { desc })).unwrap();
        // An unregistered connection is answered too.
        s.on_open(2);
        let out = s.on_message(2, Msg::StabilityQuery);
        let Ok([(To::Conn(2), Msg::StabilityInfo(info))]) = out.as_deref() else {
            panic!("unexpected {out:?}");
        };
        assert_eq!(info.order, vec![OpId::new(c, 0)]);
    }

    #[test]
    fn unsharded_server_refuses_a_sharded_request_by_closing() {
        let mut s = server(0, 1, None);
        let c = ClientId(6);
        hello(&mut s, 1, c);
        assert_eq!(s.on_message(1, sharded(0, c, 0, false)), Err(Halt::Close));
        assert!(s.replica().rcvd().is_empty());
        // Frames already read from the refused connection are ignored.
        assert_eq!(s.on_message(1, Msg::StabilityQuery), Ok(Vec::new()));
    }
}
