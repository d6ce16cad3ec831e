//! Seeded sans-IO property test of [`ShardCoordinator`]: random streams
//! of keyed / eventual-gather / strict-gather submissions with random
//! `prev`, against a toy in-memory shard model that delivers requests,
//! answers, stability reports and version NAKs in random order, with
//! duplicates — the arrival-order races that otherwise only the
//! wall-clock chaos lanes reach.
//!
//! Each seed picks one of three modes: `plain`, `flip` (a freeze → flip
//! migration with replay anchors happens mid-stream, the way the
//! simulated driver runs one) or `nak` (the coordinator
//! starts one or two versions behind the table the shards serve, the way
//! a stale TCP client does; that table does not move mid-run — nothing
//! executes a migration over TCP yet).
//!
//! A toy shard answers an operation only once it has accepted everything
//! the operation's `prev` names, so a descriptor anchored on an
//! identifier its shard never accepts shows up as a run that does not
//! quiesce.
//!
//! Checked on every `Send`, from the coordinator's own public records:
//!
//! 1. no foreign node of the operation's `prev` closure is unanswered;
//! 2. `desc.prev` equals `gather_frontier` over the recorded placements
//!    plus the slot's (a gather: the shard's) replay anchors;
//! 3. a strict sub-operation's shard reported its snapshotted frontier
//!    stable everywhere before the sub-operation was emitted;
//! 4. no keyed operation is released onto a frozen slot, no gather while
//!    any slot is frozen, and one table version maps a keyed operation to
//!    one per-shard id (a duplicate NAK re-sends, never re-mints);
//!
//! and at the end of every run: every submitted operation was `Answered`
//! exactly once.
//!
//! A failing case prints its seed; `ESDS_COORD_SEED=<seed>` re-runs it
//! alone. Runs at 512 cases in the release-mode CI `proptests` job.

use std::collections::{BTreeMap, BTreeSet};

use esds_core::{
    gather_frontier, Blocker, ClientId, Effect, KeyedDataType, MigrationPlan, OpId, RoutingTable,
    SerialDataType, ShardCoordinator, ShardedOpId,
};
use proptest::prelude::*;

/// Keyed cells plus one mergeable whole-object query. The model never
/// applies anything; values are what the toy shards choose to answer.
#[derive(Clone)]
struct Toy;

#[derive(Clone, PartialEq, Debug)]
enum ToyOp {
    Touch(String),
    Sum,
}

impl SerialDataType for Toy {
    type State = ();
    type Operator = ToyOp;
    type Value = u64;
    fn initial_state(&self) {}
    fn apply(&self, _: &(), _: &ToyOp) -> ((), u64) {
        ((), 0)
    }
}

impl KeyedDataType for Toy {
    fn shard_key<'a>(&self, op: &'a ToyOp) -> Option<&'a str> {
        match op {
            ToyOp::Touch(k) => Some(k),
            ToyOp::Sum => None,
        }
    }
    fn merge_gathered(&self, op: &ToyOp, parts: Vec<u64>) -> Option<u64> {
        matches!(op, ToyOp::Sum).then(|| parts.iter().sum())
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "coordinator property failed: re-run with ESDS_COORD_SEED={}",
                self.0
            );
        }
    }
}

/// A frame in flight between the coordinator and the toy shards.
enum Msg {
    Request {
        shard: u32,
        global: ShardedOpId,
        version: u64,
        local: OpId,
        prev: BTreeSet<OpId>,
    },
    Answer {
        shard: u32,
        local: OpId,
    },
    Nak {
        global: ShardedOpId,
        table: RoutingTable,
    },
    Probe {
        shard: u32,
    },
    Stability {
        shard: u32,
        order: Vec<OpId>,
        stable: BTreeSet<OpId>,
    },
}

/// One delivered stability report: `(order, stable everywhere)`.
type Report = (Vec<OpId>, BTreeSet<OpId>);

/// One toy shard: what it accepted (its "label order") with the `prev`
/// each operation waits on, and which of that is answered / stable
/// everywhere.
#[derive(Default)]
struct ToyShard {
    order: Vec<OpId>,
    prev: BTreeMap<OpId, BTreeSet<OpId>>,
    answered: BTreeSet<OpId>,
    stable: BTreeSet<OpId>,
}

struct World {
    rng: Rng,
    co: ShardCoordinator<Toy>,
    /// `nak` mode only (the simulated shards never check
    /// versions — an operation in flight across a flip stays valid): the
    /// table the toy shards check request versions against.
    authoritative: Option<RoutingTable>,
    shards: Vec<ToyShard>,
    wire: Vec<Msg>,
    /// What the test submitted: global id → (operator, prev, strict).
    submitted: BTreeMap<ShardedOpId, (ToyOp, Vec<ShardedOpId>, bool)>,
    answered: BTreeMap<ShardedOpId, u32>,
    /// The replay anchors handed to `flip`.
    anchors: BTreeMap<(u32, u16), OpId>,
    /// Every stability report delivered, per shard, in delivery order.
    reports: BTreeMap<u32, Vec<Report>>,
    /// Keyed operations: `(global, version) →` the one local id sent.
    minted: BTreeMap<(ShardedOpId, u64), OpId>,
    /// Every `(shard, local id)` a `Send` has carried.
    sent: BTreeSet<(u32, OpId)>,
    /// A plan frozen but not yet flipped.
    migrating: Option<MigrationPlan>,
}

const KEYS: usize = 24;
const MAX_SHARDS: usize = 6;

impl World {
    fn new(seed: u64) -> (Self, &'static str) {
        let mut rng = Rng(seed);
        let mode = ["plain", "flip", "nak"][rng.below(3)];
        let table = RoutingTable::uniform(2 + rng.below(2) as u32);
        let authoritative = (mode == "nak").then(|| {
            let mut ahead = table.clone();
            for _ in 0..1 + rng.below(2) {
                ahead.apply(&MigrationPlan::add_shard(&ahead));
            }
            ahead
        });
        let world = World {
            rng,
            co: ShardCoordinator::new(Toy, table),
            authoritative,
            shards: (0..MAX_SHARDS).map(|_| ToyShard::default()).collect(),
            wire: Vec::new(),
            submitted: BTreeMap::new(),
            answered: BTreeMap::new(),
            anchors: BTreeMap::new(),
            reports: BTreeMap::new(),
            minted: BTreeMap::new(),
            sent: BTreeSet::new(),
            migrating: None,
        };
        (world, mode)
    }

    /// Where the coordinator says `g` is placed: `(shard, local)` pairs.
    fn placements(&self, g: ShardedOpId) -> Vec<(u32, OpId)> {
        if let Some((subs, _)) = self.co.gather_detail(g) {
            return subs.iter().map(|(s, l)| (*s, *l)).collect();
        }
        match self.co.placement(g) {
            Some((shard, Some(local))) => vec![(shard, local)],
            _ => panic!("{g} is named by a released operation but is not released itself"),
        }
    }

    fn submit(&mut self) {
        let client = ClientId(self.rng.below(2) as u32);
        let op = match self.rng.below(10) {
            0 => ToyOp::Sum,
            _ => ToyOp::Touch(format!("k{}", self.rng.below(KEYS))),
        };
        let strict = self.rng.chance(30);
        let known: Vec<ShardedOpId> = self.submitted.keys().copied().collect();
        let mut prev = Vec::new();
        if !known.is_empty() {
            for _ in 0..self.rng.below(4) {
                prev.push(known[self.rng.below(known.len())]);
            }
        }
        let gid = self.co.submit(client, op.clone(), &prev, strict);
        assert!(
            self.submitted.insert(gid, (op, prev, strict)).is_none(),
            "global id {gid} minted twice"
        );
        self.poll();
    }

    /// Runs the coordinator to fixpoint and checks every effect.
    fn poll(&mut self) {
        let effects = self.co.poll();
        // All of one poll's `Send`s are checked against the state the
        // poll left behind: no input arrives in between.
        for e in &effects {
            match e {
                Effect::Send {
                    shard,
                    global,
                    version,
                    desc,
                } => {
                    self.check_send(*shard, *global, *version, desc.id, &desc.prev, desc.strict);
                    self.wire.push(Msg::Request {
                        shard: *shard,
                        global: *global,
                        version: *version,
                        local: desc.id,
                        prev: desc.prev.clone(),
                    });
                }
                Effect::ProbeStability { shard } => self.wire.push(Msg::Probe { shard: *shard }),
                Effect::Answered { global } => {
                    assert!(self.co.value_of(*global).is_some(), "{global} has no value");
                    *self.answered.entry(*global).or_default() += 1;
                }
            }
        }
    }

    fn check_send(
        &mut self,
        shard: u32,
        global: ShardedOpId,
        version: u64,
        local: OpId,
        sent_prev: &BTreeSet<OpId>,
        sent_strict: bool,
    ) {
        let (op, prev, strict) = self.submitted[&global].clone();
        assert_eq!(
            sent_strict, strict,
            "{global}: strictness changed in flight"
        );
        assert_eq!(version, self.co.table().version(), "{global}: routed stale");
        let gathered = self.co.gather_detail(global).is_some();
        let targets: BTreeSet<u32> = self.placements(global).iter().map(|(s, _)| *s).collect();
        assert!(targets.contains(&shard), "{global}: sent off its placement");

        // (4) frozen slots hold their operations back (a re-send of an
        // existing placement, provoked by a duplicate NAK, is no release).
        let fresh = self.sent.insert((shard, local));
        if gathered {
            assert!(
                !fresh || self.co.frozen().is_empty(),
                "{global} scattered mid-freeze"
            );
        } else {
            let slot = self.co.slot_of(&op);
            assert!(
                !fresh || !self.co.frozen().contains(&slot),
                "{global}: released onto a frozen slot"
            );
            assert_eq!(shard, self.co.table().shard_of_slot(slot), "{global}");
            let minted = *self.minted.entry((global, version)).or_insert(local);
            assert_eq!(minted, local, "{global}: re-minted under table v{version}");
        }

        // (1) every foreign node of the prev closure is answered. The
        // walk stops at a node placed on every target shard (that is
        // where the descriptor anchors) and descends through the rest.
        let mut visited = BTreeSet::new();
        let mut stack = prev.clone();
        while let Some(n) = stack.pop() {
            if !visited.insert(n) {
                continue;
            }
            let on: BTreeSet<u32> = self.placements(n).iter().map(|(s, _)| *s).collect();
            let anchors_here = if self.co.gather_detail(n).is_some() {
                targets.is_subset(&on)
            } else {
                !on.is_disjoint(&targets)
            };
            if !anchors_here {
                assert!(
                    self.co.value_of(n).is_some(),
                    "{global} sent to shard {shard} while foreign predecessor {n} is unanswered"
                );
                stack.extend(self.submitted[&n].1.iter().copied());
            }
        }

        // (2) the descriptor carries exactly the same-shard frontier
        // plus the replay anchors.
        let mut expect: BTreeSet<OpId> = gather_frontier(&prev, shard, |n| {
            (self.placements(n), self.submitted[&n].1.clone())
        })
        .into_iter()
        .collect();
        let slot = (!gathered).then(|| self.co.slot_of(&op));
        for ((sh, sl), a) in &self.anchors {
            if *sh == shard && slot.is_none_or(|s| s == *sl) {
                expect.insert(*a);
            }
        }
        assert_eq!(sent_prev, &expect, "{global}: wrong prev on shard {shard}");

        // (3) a strict sub-operation follows stability cover of the
        // frontier its barrier snapshotted.
        if gathered && strict {
            let (_, frontier) = self.co.gather_detail(global).expect("gathered");
            let frontier = frontier
                .get(&shard)
                .unwrap_or_else(|| panic!("{global}: no barrier snapshot of shard {shard}"));
            let reports = self.reports.get(&shard).map_or(&[][..], |r| &r[..]);
            let snapshot = reports
                .iter()
                .position(|(order, _)| order == frontier)
                .unwrap_or_else(|| panic!("{global}: frontier on {shard} was never reported"));
            assert!(
                reports[snapshot..]
                    .iter()
                    .any(|(_, stable)| frontier.iter().all(|id| stable.contains(id))),
                "{global}: strict sub-operation on {shard} emitted before its frontier was \
                 reported stable"
            );
        } else if gathered {
            assert!(self
                .co
                .gather_detail(global)
                .expect("gathered")
                .1
                .is_empty());
        }
    }

    /// Delivers one in-flight frame, chosen at random.
    fn deliver(&mut self) {
        if self.wire.is_empty() {
            return;
        }
        let i = self.rng.below(self.wire.len());
        match self.wire.swap_remove(i) {
            Msg::Request {
                shard,
                global,
                version,
                local,
                prev,
            } => {
                if let Some(table) = self
                    .authoritative
                    .clone()
                    .filter(|t| t.version() != version)
                {
                    if self.rng.chance(30) {
                        self.wire.push(Msg::Nak {
                            global,
                            table: table.clone(),
                        });
                    }
                    self.wire.push(Msg::Nak { global, table });
                    return;
                }
                let s = &mut self.shards[shard as usize];
                if !s.order.contains(&local) {
                    s.order.push(local);
                    s.prev.insert(local, prev);
                }
                if self.rng.chance(20) {
                    self.wire.push(Msg::Answer { shard, local });
                }
                self.wire.push(Msg::Answer { shard, local });
            }
            Msg::Answer { shard, local } => {
                let s = &mut self.shards[shard as usize];
                if !s.prev[&local].iter().all(|p| s.order.contains(p)) {
                    // Not applicable yet: a predecessor has not arrived.
                    self.wire.push(Msg::Answer { shard, local });
                    return;
                }
                s.answered.insert(local);
                self.co
                    .on_answer(shard, local, u64::from(shard) + 1, Some(vec![local]));
                self.poll();
            }
            Msg::Nak { global, table } => {
                self.co.on_nak(global, table);
                self.poll();
            }
            Msg::Probe { shard } => {
                let s = &self.shards[shard as usize];
                self.wire.push(Msg::Stability {
                    shard,
                    order: s.order.clone(),
                    stable: s.stable.clone(),
                });
            }
            Msg::Stability {
                shard,
                order,
                stable,
            } => {
                self.reports
                    .entry(shard)
                    .or_default()
                    .push((order.clone(), stable.clone()));
                self.co.on_stability(shard, order, &stable);
                self.poll();
            }
        }
    }

    /// Stability advances along a shard's order, answered operations only.
    fn stabilize(&mut self, everything: bool) {
        let n = self.shards.len();
        let picked = self.rng.below(n);
        for (i, s) in self.shards.iter_mut().enumerate() {
            if !everything && i != picked {
                continue;
            }
            for id in &s.order {
                if !s.answered.contains(id) {
                    break;
                }
                if s.stable.insert(*id) && !everything {
                    break;
                }
            }
        }
    }

    /// Phase 1 of a migration: plan against the current table, freeze.
    fn freeze(&mut self) {
        let table = self.co.table().clone();
        let plan = if table.n_shards() as usize >= MAX_SHARDS || self.rng.chance(30) {
            let owners = table.involved_shards();
            if owners.len() < 2 {
                return;
            }
            MigrationPlan::drain_shard(&table, owners[self.rng.below(owners.len())])
        } else {
            MigrationPlan::add_shard(&table)
        };
        self.co.freeze(plan.slots());
        self.migrating = Some(plan);
        self.poll();
    }

    /// Phases 3–4: some moved slots come with a replayed prefix, whose
    /// last operation anchors everything that follows on the slot.
    fn flip(&mut self) {
        let Some(plan) = self.migrating.take() else {
            return;
        };
        let mut anchors = Vec::new();
        for mv in plan.moves() {
            if self.rng.chance(40) {
                let a = OpId::new(ClientId(99), self.rng.next() >> 8);
                let dest = &mut self.shards[mv.to as usize];
                dest.order.push(a);
                dest.prev.insert(a, BTreeSet::new());
                dest.answered.insert(a);
                anchors.push(((mv.to, mv.slot), a));
            }
        }
        self.anchors.extend(anchors.iter().copied());
        self.co.flip(&plan, anchors);
        self.poll();
    }

    /// Delivers everything still in flight and checks the end state.
    fn finish(mut self) {
        self.flip();
        for round in 0.. {
            assert!(round < 100_000, "the run does not quiesce");
            self.stabilize(true);
            if self.wire.is_empty() {
                break;
            }
            self.deliver();
        }
        let stuck: Vec<(ShardedOpId, Option<Blocker>)> = self
            .co
            .pending()
            .chain(self.co.gathers_in_flight().iter().copied())
            .map(|g| (g, self.co.blocked_on(g)))
            .collect();
        assert!(stuck.is_empty(), "operations never released: {stuck:?}");
        assert_eq!(
            self.co.outstanding().count(),
            0,
            "placements never answered"
        );
        for g in self.submitted.keys() {
            assert_eq!(
                self.answered.get(g),
                Some(&1),
                "{g} must be Answered exactly once"
            );
            if let Some((subs, _)) = self.co.gather_detail(*g) {
                let sum: u64 = subs.keys().map(|s| u64::from(*s) + 1).sum();
                assert_eq!(self.co.value_of(*g), Some(&sum), "{g}: wrong merge");
            }
        }
    }
}

fn run(seed: u64) {
    let _guard = SeedOnPanic(seed);
    let (mut w, mode) = World::new(seed);
    let steps = 60 + w.rng.below(120);
    for step in 0..steps {
        match w.rng.below(10) {
            0..=2 => w.submit(),
            3..=7 => w.deliver(),
            8 => w.stabilize(false),
            _ if mode == "flip" && w.migrating.is_none() && step % 3 == 0 => w.freeze(),
            _ if mode == "flip" && step % 3 == 1 => w.flip(),
            _ => w.deliver(),
        }
    }
    w.finish();
}

proptest! {
    #[test]
    fn random_arrival_orders_uphold_the_coordinator_contract(seed in any::<u64>()) {
        match std::env::var("ESDS_COORD_SEED").ok().and_then(|s| s.parse().ok()) {
            Some(pinned) => run(pinned),
            None => run(seed),
        }
    }
}

fn sends(effects: &[Effect<ToyOp>], of: ShardedOpId) -> Vec<(u32, OpId, u64)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                shard,
                global,
                version,
                desc,
            } if *global == of => Some((*shard, desc.id, *version)),
            _ => None,
        })
        .collect()
}

/// A NAK-refused operation whose re-route is not ready — a predecessor
/// the adopted table made foreign is unanswered — is released by the
/// `poll` that consumes the unblocking answer (not by a retry timer),
/// under its same global id and exactly one fresh per-shard id, however
/// many copies of the NAK arrive.
#[test]
fn nak_reroute_waits_for_its_now_foreign_predecessor_and_mints_once() {
    let stale = RoutingTable::uniform(2);
    let mut grown = stale.clone();
    grown.apply(&MigrationPlan::add_shard(&grown));
    // p stays where it was; d shares p's shard under the stale table and
    // moves to the new shard under the grown one.
    let keys: Vec<String> = (0..500).map(|i| format!("k{i}")).collect();
    let kp = keys
        .iter()
        .find(|k| stale.shard_of_key(k) == grown.shard_of_key(k))
        .expect("some key does not move");
    let home = stale.shard_of_key(kp);
    let kd = keys
        .iter()
        .find(|k| stale.shard_of_key(k) == home && grown.shard_of_key(k) == 2)
        .expect("some key of the same shard moves");
    let mut co = ShardCoordinator::new(Toy, stale);
    let p = co.submit(ClientId(0), ToyOp::Touch(kp.clone()), &[], false);
    let d = co.submit(ClientId(0), ToyOp::Touch(kd.clone()), &[p], false);
    let first = co.poll();
    let [(_, p_stale, 0)] = sends(&first, p)[..] else {
        panic!("p goes out under v0: {first:?}");
    };
    let [(d_shard, d_stale, 0)] = sends(&first, d)[..] else {
        panic!("d rides the same shard, anchored on p: {first:?}");
    };
    assert_eq!(d_shard, home);

    // Both are refused. p re-routes at once (fresh id, same shard) …
    co.on_nak(p, grown.clone());
    assert_eq!(co.table().version(), 1, "NAK adopted");
    let [(p_shard, p_fresh, 1)] = sends(&co.poll(), p)[..] else {
        panic!("nothing blocks p's re-route");
    };
    assert_eq!(p_shard, home);
    assert_ne!(p_fresh, p_stale);
    // … d does not: p is foreign to d's new shard, and unanswered. A
    // second copy of the NAK changes nothing.
    co.on_nak(d, grown.clone());
    co.on_nak(d, grown.clone());
    assert_eq!(co.poll(), vec![], "d must wait for p");
    assert_eq!(
        co.blocked_on(d),
        Some(Blocker::Unanswered {
            shard: home,
            local: p_fresh
        })
    );
    assert_eq!(co.placement(d), Some((2, None)), "same global id, pending");

    // The poll that consumes p's answer emits d's Send.
    co.on_answer(home, p_fresh, 7, None);
    let unblocked = co.poll();
    assert_eq!(unblocked[0], Effect::Answered { global: p });
    let [(2, d_fresh, 1)] = sends(&unblocked, d)[..] else {
        panic!("d must be sent to its new owner in this very poll: {unblocked:?}");
    };
    assert_ne!(d_fresh, d_stale);
    assert_eq!(unblocked.len(), 2);
    let Effect::Send { desc, .. } = &unblocked[1] else {
        panic!("checked above");
    };
    assert!(desc.prev.is_empty(), "an answered foreign edge is dropped");

    // Straggling copies of the NAK re-send that placement; none re-mints.
    co.on_nak(d, grown.clone());
    co.on_nak(d, grown);
    assert_eq!(
        sends(&co.poll(), d),
        vec![(2, d_fresh, 1), (2, d_fresh, 1)],
        "duplicate NAKs re-send, never re-mint"
    );
    assert_eq!(co.placement(d), Some((2, Some(d_fresh))));
}
