//! The sans-IO replica node every deployment drives.
//!
//! A [`Node`] owns one [`Replica`] and, if durable, its [`Persistence`]
//! backend. It is the one place that decides the two rules §9.3 recovery
//! rests on:
//!
//! * **sync-before-release** — an input's changes are persisted before
//!   anything it produced (responses, gossip envelopes) is returned. A
//!   failed persist kills the node: that input and every later one return
//!   [`Dead`], as if the machine had lost power;
//! * **peer-link rewinds** — the batched delta state toward a peer is
//!   rewound on a new link ([`Link::New`]: the peer may have restarted
//!   without its memory) and on a lost write ([`Node::on_lost_write`]).
//!
//! Drivers keep their sockets, channels, timers, metrics and tracing; a
//! gossip tick is whenever a driver calls [`Node::on_tick`].

use std::fmt;

use esds_core::{OpDescriptor, OpId, ReplicaId, SerialDataType};

use crate::messages::GossipEnvelope;
use crate::persist::Persistence;
use crate::replica::{Replica, RespondEffect};

/// A driver's link to one peer at a gossip tick.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Link {
    /// Unreachable: nothing is built for the peer.
    Down,
    /// The link the node last gossiped over.
    Up,
    /// Not gossiped over before (first dial, re-dial, restarted peer):
    /// this tick's envelope re-ships everything.
    New,
}

/// Returned by every input once a persist has failed: nothing was
/// released, and the driver must stop the node. Carries the backend error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dead(pub String);

impl fmt::Display for Dead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node dead after a failed persist: {}", self.0)
    }
}

impl std::error::Error for Dead {}

/// The gossip envelopes one tick releases, by destination peer.
pub type Outbox<O> = Vec<(ReplicaId, GossipEnvelope<O>)>;

/// A replica plus its optional durable backend (see module docs).
pub struct Node<T: SerialDataType> {
    replica: Replica<T>,
    store: Option<Box<dyn Persistence<T>>>,
    dead: Option<Dead>,
}

impl<T: SerialDataType> Node<T> {
    /// A node around `replica`, persisting through `store` if given.
    ///
    /// # Panics
    ///
    /// Panics if `store` is given and the replica is not
    /// [`crate::ReplicaConfig::durable`]: it would track no WAL delta, so
    /// the backend would persist nothing.
    pub fn new(replica: Replica<T>, store: Option<Box<dyn Persistence<T>>>) -> Self {
        assert!(
            store.is_none() || replica.config().durable,
            "a persistence backend needs a durable replica (config.replica.durable)"
        );
        Node {
            replica,
            store,
            dead: None,
        }
    }

    /// The replica, for reads.
    pub fn replica(&self) -> &Replica<T> {
        &self.replica
    }

    /// The replica, dropping the backend.
    pub fn into_replica(self) -> Replica<T> {
        self.replica
    }

    /// A client request; the responses it released.
    ///
    /// # Errors
    ///
    /// [`Dead`] if this input's persist failed or the node was dead.
    pub fn on_request(
        &mut self,
        desc: OpDescriptor<T::Operator>,
    ) -> Result<Vec<RespondEffect<T::Value>>, Dead> {
        self.alive()?;
        let effects = self.replica.on_request(desc);
        self.sync()?;
        Ok(effects)
    }

    /// A replica-to-replica message; the responses it released.
    ///
    /// # Errors
    ///
    /// As [`Node::on_request`].
    pub fn on_gossip(
        &mut self,
        env: GossipEnvelope<T::Operator>,
    ) -> Result<Vec<RespondEffect<T::Value>>, Dead> {
        self.alive()?;
        let effects = self.replica.on_gossip_envelope(env);
        self.sync()?;
        Ok(effects)
    }

    /// One gossip tick over `links`, indexed by replica id (the node's
    /// own entry is ignored). Returns the envelopes due (batched pacing
    /// may hold some back), synced once — whatever the peer count —
    /// before any is released.
    ///
    /// # Errors
    ///
    /// As [`Node::on_request`].
    ///
    /// # Panics
    ///
    /// Panics if `links` does not name every replica of the service.
    pub fn on_tick(&mut self, links: &[Link]) -> Result<Outbox<T::Operator>, Dead> {
        self.alive()?;
        assert_eq!(links.len(), self.replica.n(), "one link per replica");
        let mut out = Vec::new();
        for (p, link) in links.iter().enumerate() {
            let peer = ReplicaId(p as u32);
            if peer == self.replica.id() || *link == Link::Down {
                continue;
            }
            if *link == Link::New {
                self.replica.reset_watermark(peer);
            }
            out.extend(self.replica.poll_gossip(peer).map(|env| (peer, env)));
        }
        if !out.is_empty() {
            self.sync()?;
        }
        Ok(out)
    }

    /// An envelope for `peer` was lost: the next one re-ships what it
    /// carried.
    ///
    /// # Errors
    ///
    /// [`Dead`] if the node is dead.
    pub fn on_lost_write(&mut self, peer: ReplicaId) -> Result<(), Dead> {
        self.alive()?;
        self.replica.reset_watermark(peer);
        Ok(())
    }

    /// See [`Replica::take_newly_done`] (harness instrumentation).
    pub fn take_newly_done(&mut self) -> Vec<OpId> {
        self.replica.take_newly_done()
    }

    fn alive(&self) -> Result<(), Dead> {
        self.dead.clone().map_or(Ok(()), Err)
    }

    fn sync(&mut self) -> Result<(), Dead> {
        let Some(store) = &mut self.store else {
            return Ok(());
        };
        store.persist(&mut self.replica).map_err(|e| {
            let dead = Dead(e);
            self.dead = Some(dead.clone());
            dead
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use esds_core::ClientId;
    use esds_datatypes::{Counter, CounterOp, CounterValue};

    use super::*;
    use crate::replica::{ReplicaConfig, WalDelta};

    /// A backend that drains the WAL delta into a shared log on every
    /// call, and fails its `fail_at`-th call (1-based).
    struct FlakyDisk {
        calls: usize,
        fail_at: Option<usize>,
        log: Arc<Mutex<Vec<WalDelta>>>,
    }

    impl Persistence<Counter> for FlakyDisk {
        fn persist(&mut self, replica: &mut Replica<Counter>) -> Result<(), String> {
            self.calls += 1;
            if self.fail_at == Some(self.calls) {
                return Err(format!("disk lost power on call {}", self.calls));
            }
            self.log.lock().unwrap().push(replica.take_wal_delta());
            Ok(())
        }
    }

    type Log = Arc<Mutex<Vec<WalDelta>>>;

    const UP: [Link; 2] = [Link::Up, Link::Up];

    fn op(seq: u64, op: CounterOp) -> OpDescriptor<CounterOp> {
        OpDescriptor::new(OpId::new(ClientId(0), seq), op)
    }

    /// Replica 0 durable over a [`FlakyDisk`], replica 1 volatile.
    fn durable_pair(
        config: ReplicaConfig,
        fail_at: Option<usize>,
    ) -> (Node<Counter>, Node<Counter>, Log) {
        let log = Log::default();
        let disk = FlakyDisk {
            calls: 0,
            fail_at,
            log: log.clone(),
        };
        let a = Replica::new(Counter, ReplicaId(0), 2, config.with_durable());
        let b = Replica::new(Counter, ReplicaId(1), 2, config);
        (Node::new(a, Some(Box::new(disk))), Node::new(b, None), log)
    }

    fn has_pending_delta(node: &Node<Counter>) -> bool {
        !node.replica().clone().take_wal_delta().is_empty()
    }

    /// Every kind of input once; each persists exactly once while alive.
    fn script(a: &mut Node<Counter>, b: &mut Node<Counter>, step: u64) -> Result<usize, Dead> {
        match step {
            0 => a
                .on_request(op(0, CounterOp::Increment(1)))
                .map(|fx| fx.len()),
            1 => a.on_tick(&UP).map(|out| out.len()),
            2 => {
                let (_, env) = b.on_tick(&UP).unwrap().pop().expect("full gossip");
                a.on_gossip(env).map(|fx| fx.len())
            }
            _ => a.on_request(op(step, CounterOp::Read)).map(|fx| fx.len()),
        }
    }

    #[test]
    fn failed_persist_releases_nothing_and_refuses_every_later_input() {
        for k in 1..=5 {
            let (mut a, mut b, log) = durable_pair(ReplicaConfig::default(), Some(k));
            for step in 0..5u64 {
                let res = script(&mut a, &mut b, step);
                if step + 1 < k as u64 {
                    assert!(res.is_ok(), "k={k}: input {step} precedes the failure");
                } else {
                    assert!(res.is_err(), "k={k}: input {step} released {res:?}");
                }
            }
            assert_eq!(
                log.lock().unwrap().len(),
                k - 1,
                "nothing persisted after death"
            );
            let (_, env) = b.on_tick(&UP).unwrap().pop().expect("full gossip");
            assert!(a.on_request(op(9, CounterOp::Read)).is_err());
            assert!(a.on_gossip(env).is_err());
            assert!(a.on_tick(&UP).is_err());
            assert!(a.on_tick(&[Link::Down, Link::Down]).is_err());
            assert!(a.on_lost_write(ReplicaId(1)).is_err());
        }
    }

    #[test]
    fn durable_node_never_releases_with_a_pending_wal_delta() {
        let (mut a, mut b, log) = durable_pair(ReplicaConfig::default(), None);
        let strict = op(1, CounterOp::Read).with_strict(true);
        let mut answered = Vec::new();
        answered.extend(a.on_request(op(0, CounterOp::Increment(2))).unwrap());
        assert!(!has_pending_delta(&a));
        answered.extend(a.on_request(strict).unwrap());
        for _ in 0..4 {
            for (_, env) in a.on_tick(&UP).unwrap() {
                assert!(
                    !has_pending_delta(&a),
                    "a tick released an envelope unsynced"
                );
                b.on_gossip(env).unwrap();
            }
            for (_, env) in b.on_tick(&UP).unwrap() {
                answered.extend(a.on_gossip(env).unwrap());
                assert!(
                    !has_pending_delta(&a),
                    "gossip released a response unsynced"
                );
            }
        }
        let values: Vec<_> = answered.iter().map(|e| e.msg.value.clone()).collect();
        assert_eq!(values, [CounterValue::Ack, CounterValue::Count(2)]);
        // Not vacuous: both admissions and both labels reached the log.
        let log = log.lock().unwrap();
        assert_eq!(log.iter().map(|d| d.admitted.len()).sum::<usize>(), 2);
        assert_eq!(log.iter().map(|d| d.labels.len()).sum::<usize>(), 2);
    }

    #[test]
    #[should_panic(expected = "durable replica")]
    fn backend_for_a_volatile_replica_is_refused() {
        let rep = Replica::new(Counter, ReplicaId(0), 2, ReplicaConfig::default());
        let disk = FlakyDisk {
            calls: 0,
            fail_at: None,
            log: Log::default(),
        };
        let _ = Node::new(rep, Some(Box::new(disk)));
    }

    fn batched_pair() -> (Node<Counter>, Node<Counter>) {
        let config = ReplicaConfig::default().with_batched(1);
        let (a, b, _) = durable_pair(config, None);
        (a, b)
    }

    fn shipped(out: &Outbox<CounterOp>) -> usize {
        match &out[..] {
            [(_, GossipEnvelope::Batched(g))] => g.rcvd.len(),
            other => panic!("expected one batch, got {} envelopes", other.len()),
        }
    }

    #[test]
    fn new_link_reships_everything() {
        let (mut a, mut b) = batched_pair();
        let x = op(0, CounterOp::Increment(1));
        a.on_request(x.clone()).unwrap();
        // The first batch is lost with its link: b never sees it.
        assert_eq!(shipped(&a.on_tick(&UP).unwrap()), 1);
        assert_eq!(
            shipped(&a.on_tick(&UP).unwrap()),
            0,
            "no re-ship on an old link"
        );
        let mut out = a.on_tick(&[Link::Up, Link::New]).unwrap();
        assert_eq!(shipped(&out), 1, "a new link re-ships everything");
        b.on_gossip(out.pop().unwrap().1).unwrap();
        assert!(b.replica().done_here().contains(&x.id));
    }

    #[test]
    fn lost_write_rewinds_the_same_way() {
        let (mut a, mut b) = batched_pair();
        let x = op(0, CounterOp::Increment(1));
        a.on_request(x.clone()).unwrap();
        assert_eq!(shipped(&a.on_tick(&UP).unwrap()), 1);
        a.on_lost_write(ReplicaId(1)).unwrap();
        assert!(a.on_tick(&[Link::Up, Link::Down]).unwrap().is_empty());
        let mut out = a.on_tick(&UP).unwrap();
        assert_eq!(shipped(&out), 1, "a lost write re-ships what it carried");
        b.on_gossip(out.pop().unwrap().1).unwrap();
        assert!(b.replica().done_here().contains(&x.id));
    }
}
