//! The sans-IO **shard coordinator**: everything a sharded deployment
//! decides about an operation between "the client submitted it" and "the
//! client has its answer", as one state machine that takes inputs and
//! returns effects — the shape of `alg::Replica::on_request →
//! Vec<RespondEffect>`, one level up.
//!
//! Everything is documented on [`ShardCoordinator`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ids::{ClientId, OpId};
use crate::op::OpDescriptor;
use crate::shard::{gather_frontier, KeyedDataType, MigrationPlan, RoutingTable, ShardedOpId};

/// A keyless operator without a gather merge was submitted against a
/// routing table whose slots span more than one shard: no single shard
/// holds the whole object, and without [`KeyedDataType::merge_gathered`]
/// the per-shard partial answers cannot be combined. Returned by
/// [`ShardCoordinator::try_submit`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WholeObjectUnsupported;

impl std::fmt::Display for WholeObjectUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "whole-object operator has no gather merge and the routing table spans multiple shards",
        )
    }
}

impl std::error::Error for WholeObjectUnsupported {}

/// How an operator is routed under the current table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Names a key: routed to the owner of the key's slot.
    Keyed,
    /// Keyless, but every slot lives on one shard: the home slot's owner
    /// holds the whole object, so routing there is exact.
    HomeSlotExact,
    /// Keyless and mergeable on a multi-shard table: scatter-gathered.
    Gatherable,
    /// Keyless, not mergeable, multi-shard table: no truthful answer
    /// exists. [`ShardCoordinator::try_submit`] refuses it;
    /// [`ShardCoordinator::submit`] routes it to the home slot's owner,
    /// which answers from its own slice.
    Unsupported,
}

/// What [`ShardCoordinator::poll`] asks its driver to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect<O> {
    /// Hand `desc` to `shard`, routed under table `version`.
    Send {
        /// The receiving shard.
        shard: u32,
        /// The operation (for a gather: the whole query) this serves.
        global: ShardedOpId,
        /// The table version the placement was routed under.
        version: u64,
        /// The per-shard descriptor, identifier included.
        desc: OpDescriptor<O>,
    },
    /// Report `shard`'s answered frontier and what of it is stable
    /// everywhere, through [`ShardCoordinator::on_stability`].
    ProbeStability {
        /// The shard a strict gather's barrier is waiting on.
        shard: u32,
    },
    /// `global` has its (for a gather: merged) answer. Emitted once.
    Answered {
        /// The answered operation.
        global: ShardedOpId,
    },
}

/// Why a submitted operation has not been handed to its shard(s) yet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Blocker {
    /// Held by its driver ([`ShardCoordinator::hold`]).
    Held,
    /// Its slot (for a gather: any slot) is frozen by a migration.
    Frozen,
    /// A predecessor has itself not been released.
    Unreleased(ShardedOpId),
    /// A foreign (or version-refused) predecessor placement is unanswered.
    Unanswered {
        /// Where the predecessor was placed.
        shard: u32,
        /// Its identifier there.
        local: OpId,
    },
    /// A strict gather is waiting for stability cover of its barrier.
    Barrier,
}

type Answer<V> = (V, Option<Vec<OpId>>);

/// What the client submitted, plus the slot it is attributed to.
struct PendingOp<O> {
    slot: u16,
    op: O,
    prev: Vec<ShardedOpId>,
    strict: bool,
}

/// A single-shard placement.
struct Placed<T: KeyedDataType> {
    p: PendingOp<T::Operator>,
    shard: u32,
    local: OpId,
    local_prev: Vec<OpId>,
    version: u64,
    answer: Option<Answer<T::Value>>,
}

/// A scattered whole-object query.
struct Gather<T: KeyedDataType> {
    p: PendingOp<T::Operator>,
    version: u64,
    /// Involved shard → the sub-operation submitted there.
    subs: BTreeMap<u32, OpId>,
    sub_prev: BTreeMap<u32, Vec<OpId>>,
    /// Strict only: the per-shard answered frontier the barrier covered.
    frontier: BTreeMap<u32, Vec<OpId>>,
    parts: BTreeMap<u32, Answer<T::Value>>,
    merged: Option<T::Value>,
}

enum Ticket<T: KeyedDataType> {
    Pending(PendingOp<T::Operator>),
    Submitted(Placed<T>),
    GatherBarrier {
        p: PendingOp<T::Operator>,
        /// The table version the barrier is being taken under.
        version: u64,
        frontier: BTreeMap<u32, Vec<OpId>>,
        covered: BTreeSet<u32>,
    },
    GatherScattered(Gather<T>),
}

fn descriptor<O: Clone>(local: OpId, p: &PendingOp<O>, local_prev: &[OpId]) -> OpDescriptor<O> {
    OpDescriptor::new(local, p.op.clone())
        .with_prev(local_prev.iter().copied())
        .with_strict(p.strict)
}

fn send<O: Clone>(
    global: ShardedOpId,
    shard: u32,
    version: u64,
    local: OpId,
    p: &PendingOp<O>,
    local_prev: &[OpId],
) -> Effect<O> {
    Effect::Send {
        shard,
        global,
        version,
        desc: descriptor(local, p, local_prev),
    }
}

impl<T: KeyedDataType> Ticket<T> {
    /// The request(s) still awaiting an answer, as `Send` effects.
    fn unanswered_sends(&self, global: ShardedOpId) -> Vec<Effect<T::Operator>> {
        match self {
            Ticket::Submitted(q) if q.answer.is_none() => {
                vec![send(
                    global,
                    q.shard,
                    q.version,
                    q.local,
                    &q.p,
                    &q.local_prev,
                )]
            }
            Ticket::GatherScattered(g) => g
                .subs
                .iter()
                .filter(|(s, _)| !g.parts.contains_key(s))
                .map(|(s, l)| send(global, *s, g.version, *l, &g.p, &g.sub_prev[s]))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// The sans-IO shard coordinator.
///
/// The simulated (`esds-harness`) and TCP (`esds-wire`) sharded stacks
/// are **drivers** of this type: they move
/// bytes and time, and feed what they observe back in.
///
/// | input | who supplies it |
/// |---|---|
/// | [`submit`](ShardCoordinator::submit) / [`try_submit`](ShardCoordinator::try_submit) | every driver, from its public `submit` |
/// | [`on_answer`](ShardCoordinator::on_answer) | sim and threads: polled off the per-shard front ends; TCP: `ShardedResponse::Ok` frames |
/// | [`on_stability`](ShardCoordinator::on_stability) | the reply to a [`Effect::ProbeStability`]: sim reads its replicas, threads their inspect handles, TCP a `StabilityInfo` frame |
/// | [`on_nak`](ShardCoordinator::on_nak) | TCP only: `ShardedResponse::Nak` frames |
/// | [`freeze`](ShardCoordinator::freeze) / [`flip`](ShardCoordinator::flip) | sim and threads, around the data plane of a migration |
/// | [`hold`](ShardCoordinator::hold) / [`unhold`](ShardCoordinator::unhold) | sim only: `submit_at`'s schedule is driver time |
///
/// After any input, [`poll`](ShardCoordinator::poll) runs to fixpoint and
/// returns the [`Effect`]s to execute, in order.
///
/// # Ticket states
///
/// ```text
///            submit                      ready (keyed / home-slot-exact)
///   ────────▶ Pending ─────────────────────────────────▶ Submitted ──on_answer──▶ answered
///               ▲  │ ready, gatherable, eventual              │
///               │  ├───────────────────────────▶ GatherScattered ──all parts──▶ merged
///               │  │ ready, gatherable, strict        ▲        │
///               │  └──▶ GatherBarrier ──covered───────┘        │
///               └───────────── on_nak (stale version) ─────────┘
/// ```
///
/// # Routing and cross-shard `prev`
///
/// A keyed operator goes to the owner of its key's slot; a keyless one is
/// classified once ([`OpClass`]). A `Pending` operation is released only
/// when its slot is not frozen and every **foreign** node of its `prev`
/// closure (walk: descend through nodes placed on other shards, stop at
/// nodes placed on a target shard) is answered — different shards hold
/// disjoint state, so an answered foreign predecessor's constraint is
/// vacuous for the state and satisfied for the client-observed order.
/// What remains is carried in-shard: the released descriptor's `prev` is
/// [`gather_frontier`] over the recorded placements, plus the anchor of
/// any prefix a migration replayed onto the slot.
///
/// # Whole-object queries
///
/// A gatherable operator is scattered as one sub-operation per involved
/// shard and merged by [`KeyedDataType::merge_gathered`]. A **strict**
/// gather first takes a per-shard barrier: snapshot the shard's answered
/// frontier, wait until a stability report covers it, only then emit the
/// strict sub-operation — its fresh label exceeds every frontier label,
/// whose positions are final, so the merged answer is a consistent cut
/// (`esds_spec::check_barrier_cut` checks exactly the recorded
/// [`gather_detail`](ShardCoordinator::gather_detail)). Gathers never
/// scatter while any slot is frozen: the involved-shard set must not
/// change under them.
///
/// # Version NAKs
///
/// A node that refuses a stale table version ships the authoritative one
/// back. [`on_nak`](ShardCoordinator::on_nak) adopts it and sends the
/// refused operation back to `Pending` under its **same global id**; the
/// next `poll` that finds it ready mints one fresh per-shard id. A gather
/// is re-scattered whole (the involved set may have changed; a strict one
/// retakes its barrier — safe, gatherable operators are read-only). A
/// duplicate or straggler NAK re-sends the current placement, never
/// re-mints.
///
/// One instance serves any number of clients (the simulator keeps one for
/// the whole deployment; a TCP client handle keeps its own).
/// It has no clock, socket, thread or lock.
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, Effect, KeyedDataType, RoutingTable, SerialDataType, ShardCoordinator};
///
/// #[derive(Clone)]
/// struct Cells;
/// impl SerialDataType for Cells {
///     type State = ();
///     type Operator = &'static str;
///     type Value = u8;
///     fn initial_state(&self) {}
///     fn apply(&self, _: &(), _: &&'static str) -> ((), u8) { ((), 0) }
/// }
/// impl KeyedDataType for Cells {
///     fn shard_key<'a>(&self, op: &'a &'static str) -> Option<&'a str> { Some(op) }
/// }
///
/// let table = RoutingTable::uniform(2);
/// let b = ["b", "c", "d", "e"]
///     .into_iter()
///     .find(|k| table.shard_of_key(k) != table.shard_of_key("a"))
///     .unwrap();
/// let mut co = ShardCoordinator::new(Cells, table);
/// let x = co.submit(ClientId(0), "a", &[], false);
/// let y = co.submit(ClientId(0), b, &[x], false);
/// // `y` waits: its predecessor lives on another shard and is unanswered.
/// let effects = co.poll();
/// let Effect::Send { shard, desc, .. } = &effects[0] else { panic!() };
/// assert_eq!(effects.len(), 1);
/// co.on_answer(*shard, desc.id, 7, None);
/// let effects = co.poll();
/// assert!(matches!(effects[0], Effect::Answered { global } if global == x));
/// assert!(matches!(&effects[1], Effect::Send { global, desc, .. } if *global == y && desc.prev.is_empty()));
/// ```
pub struct ShardCoordinator<T: KeyedDataType> {
    dt: T,
    table: RoutingTable,
    /// The highest table version adopted from a NAK: every node refuses
    /// requests routed under anything older.
    refused_below: u64,
    frozen: BTreeSet<u16>,
    held: BTreeSet<ShardedOpId>,
    /// `(shard, slot) →` the last operation of the prefix a migration
    /// replayed onto that shard for that slot.
    replay_anchor: BTreeMap<(u32, u16), OpId>,
    tickets: BTreeMap<ShardedOpId, Ticket<T>>,
    /// `Pending` tickets, in submission order.
    deferred: VecDeque<ShardedOpId>,
    /// Gathers at their barrier or awaiting parts.
    gathers: Vec<ShardedOpId>,
    /// Released, unanswered placements.
    by_local: BTreeMap<(u32, OpId), ShardedOpId>,
    next_seq: BTreeMap<ClientId, u64>,
    next_local: BTreeMap<(ClientId, u32), u64>,
    /// Shards with a stability probe outstanding.
    probing: BTreeSet<u32>,
    effects: Vec<Effect<T::Operator>>,
}

impl<T: KeyedDataType> ShardCoordinator<T> {
    /// A coordinator routing `dt`'s operators through `table`.
    pub fn new(dt: T, table: RoutingTable) -> Self {
        ShardCoordinator {
            dt,
            table,
            refused_below: 0,
            frozen: BTreeSet::new(),
            held: BTreeSet::new(),
            replay_anchor: BTreeMap::new(),
            tickets: BTreeMap::new(),
            deferred: VecDeque::new(),
            gathers: Vec::new(),
            by_local: BTreeMap::new(),
            next_seq: BTreeMap::new(),
            next_local: BTreeMap::new(),
            probing: BTreeSet::new(),
            effects: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Registers an operation of `client` and mints its global id. The
    /// operation is `Pending` until a [`poll`](Self::poll) finds it ready.
    ///
    /// # Panics
    ///
    /// Panics if `prev` names an id this coordinator never minted (client
    /// well-formedness, paper §4).
    pub fn submit(
        &mut self,
        client: ClientId,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> ShardedOpId {
        for g in prev {
            assert!(
                self.tickets.contains_key(g),
                "prev {g} was never submitted to this coordinator (ids resolve only on the \
                 handle that issued them)"
            );
        }
        let seq = self.next_seq.entry(client).or_default();
        let gid = ShardedOpId::new(client, *seq);
        *seq += 1;
        let p = PendingOp {
            slot: self.slot_of(&op),
            op,
            prev: prev.to_vec(),
            strict,
        };
        self.tickets.insert(gid, Ticket::Pending(p));
        self.deferred.push_back(gid);
        gid
    }

    /// Like [`submit`](Self::submit), but refuses an
    /// [`OpClass::Unsupported`] operator instead of routing it to the
    /// home slot's owner. No id is minted on refusal.
    ///
    /// # Errors
    ///
    /// [`WholeObjectUnsupported`] as described.
    ///
    /// # Panics
    ///
    /// As [`submit`](Self::submit).
    pub fn try_submit(
        &mut self,
        client: ClientId,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> Result<ShardedOpId, WholeObjectUnsupported> {
        if self.classify(&op) == OpClass::Unsupported {
            return Err(WholeObjectUnsupported);
        }
        Ok(self.submit(client, op, prev, strict))
    }

    /// Keeps `id` `Pending` until [`unhold`](Self::unhold), whatever else
    /// becomes true. The coordinator has no clock; a driver that schedules
    /// submissions in its own time holds them here so that dependents,
    /// freezes and flips see them.
    pub fn hold(&mut self, id: ShardedOpId) {
        self.held.insert(id);
    }

    /// Ends a [`hold`](Self::hold).
    pub fn unhold(&mut self, id: ShardedOpId) {
        self.held.remove(&id);
    }

    /// `shard` answered its operation `local`. Answers to anything but a
    /// released, unanswered placement (duplicates, other traffic of the
    /// shard, sub-operations retired by a NAK) are ignored.
    pub fn on_answer(
        &mut self,
        shard: u32,
        local: OpId,
        value: T::Value,
        witness: Option<Vec<OpId>>,
    ) {
        let Some(global) = self.by_local.remove(&(shard, local)) else {
            return;
        };
        match self.tickets.get_mut(&global) {
            Some(Ticket::Submitted(q)) => q.answer = Some((value, witness)),
            Some(Ticket::GatherScattered(g)) => {
                g.parts.insert(shard, (value, witness));
                if g.parts.len() < g.subs.len() {
                    return;
                }
                // One part per involved shard, ascending — the order
                // `merge_gathered` documents.
                let parts = g.parts.values().map(|(v, _)| v.clone()).collect();
                g.merged = Some(
                    self.dt
                        .merge_gathered(&g.p.op, parts)
                        .expect("scattered operators are gatherable"),
                );
                self.gathers.retain(|x| *x != global);
            }
            _ => unreachable!("only released placements are indexed"),
        }
        self.effects.push(Effect::Answered { global });
    }

    /// The reply to an [`Effect::ProbeStability`]: `order` is (a superset
    /// of) every operation `shard` has answered, `stable_everywhere` what
    /// of it is stable at every replica — both read at one instant, after
    /// the probe was emitted. A barrier that has no snapshot of `shard`
    /// yet takes `order` as its frontier; one whose frontier lies within
    /// `stable_everywhere` is covered there.
    pub fn on_stability(
        &mut self,
        shard: u32,
        order: Vec<OpId>,
        stable_everywhere: &BTreeSet<OpId>,
    ) {
        self.probing.remove(&shard);
        if !self.table.involved_shards().contains(&shard) {
            return;
        }
        for gid in &self.gathers {
            if let Some(Ticket::GatherBarrier {
                frontier, covered, ..
            }) = self.tickets.get_mut(gid)
            {
                let f = frontier.entry(shard).or_insert_with(|| order.clone());
                if f.iter().all(|id| stable_everywhere.contains(id)) {
                    covered.insert(shard);
                }
            }
        }
    }

    /// A node refused `global`'s request as routed under a stale table
    /// and sent the authoritative one (see the module docs).
    pub fn on_nak(&mut self, global: ShardedOpId, table: RoutingTable) {
        if table.version() > self.table.version() {
            self.refused_below = table.version();
            self.table = table;
        }
        let current = self.table.version();
        let mut p = match self.tickets.remove(&global) {
            Some(Ticket::Submitted(q)) if q.answer.is_none() && q.version != current => {
                self.by_local.remove(&(q.shard, q.local));
                q.p
            }
            Some(Ticket::GatherScattered(g)) if g.merged.is_none() && g.version != current => {
                for (s, l) in &g.subs {
                    self.by_local.remove(&(*s, *l));
                }
                self.gathers.retain(|x| *x != global);
                g.p
            }
            // Already re-routed (or never stale): the refused frame was a
            // duplicate or a straggler. Minting a second per-shard id
            // would apply the operation twice.
            Some(t) => {
                self.effects.extend(t.unanswered_sends(global));
                self.tickets.insert(global, t);
                return;
            }
            None => return,
        };
        p.slot = self.slot_of(&p.op);
        self.tickets.insert(global, Ticket::Pending(p));
        self.deferred.push_back(global);
    }

    /// Sets the frozen slots (phase 1 of a migration): operations on them
    /// stay `Pending`, and no gather scatters, until the [`flip`](Self::flip).
    pub fn freeze(&mut self, slots: BTreeSet<u16>) {
        self.frozen = slots;
    }

    /// Applies `plan` to the table and unfreezes (phases 3–4). `anchors`
    /// names, per `(shard, slot)`, the last operation of the prefix the
    /// driver replayed there: every later operation on the slot — and
    /// every gather sub-operation on the shard — is ordered behind it.
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale (see [`RoutingTable::apply`]).
    pub fn flip(
        &mut self,
        plan: &MigrationPlan,
        anchors: impl IntoIterator<Item = ((u32, u16), OpId)>,
    ) {
        self.table.apply(plan);
        self.frozen.clear();
        self.replay_anchor.extend(anchors);
    }

    /// Releases every `Pending` operation that is ready and scatters every
    /// covered barrier, to fixpoint (asking for the stability reports the
    /// remaining barriers need); returns all effects since the last call.
    pub fn poll(&mut self) -> Vec<Effect<T::Operator>> {
        loop {
            let released = self.release_ready();
            if !self.advance_barriers() && !released {
                break;
            }
        }
        std::mem::take(&mut self.effects)
    }

    // ------------------------------------------------------------------
    // The state machine
    // ------------------------------------------------------------------

    /// The one classification of an operator (see [`OpClass`]).
    pub fn classify(&self, op: &T::Operator) -> OpClass {
        if self.dt.shard_key(op).is_some() {
            OpClass::Keyed
        } else if self.table.involved_shards().len() <= 1 {
            OpClass::HomeSlotExact
        } else if self.dt.is_gatherable(op) {
            OpClass::Gatherable
        } else {
            OpClass::Unsupported
        }
    }

    /// The readiness walk: `None` when `p` may be released now. Every
    /// predecessor must itself be released; every predecessor placement
    /// off the target shard(s) must be answered before the walk descends
    /// through it (answeredness does not propagate transitively — a
    /// foreign predecessor can be answered by a replica that learned *its*
    /// predecessors through gossip before those were answered); a
    /// placement on a target shard is where the walk stops, because the
    /// released descriptor will name it. An unanswered placement routed
    /// under a version a NAK has since refused is never named: it is
    /// about to be refused too, or was accepted before the table moved
    /// and is about to be answered.
    fn blocker(&self, gid: ShardedOpId, p: &PendingOp<T::Operator>) -> Option<Blocker> {
        if self.held.contains(&gid) {
            return Some(Blocker::Held);
        }
        let targets = if self.classify(&p.op) == OpClass::Gatherable {
            if !self.frozen.is_empty() {
                return Some(Blocker::Frozen);
            }
            self.table.involved_shards()
        } else {
            if self.frozen.contains(&p.slot) {
                return Some(Blocker::Frozen);
            }
            vec![self.table.shard_of_slot(p.slot)]
        };
        let mut visited = BTreeSet::new();
        let mut stack = p.prev.clone();
        while let Some(g) = stack.pop() {
            if !visited.insert(g) {
                continue;
            }
            match &self.tickets[&g] {
                Ticket::Pending(_) | Ticket::GatherBarrier { .. } => {
                    return Some(Blocker::Unreleased(g))
                }
                Ticket::Submitted(q) => {
                    let local = targets.contains(&q.shard);
                    if q.answer.is_none() && (!local || q.version < self.refused_below) {
                        return Some(Blocker::Unanswered {
                            shard: q.shard,
                            local: q.local,
                        });
                    }
                    if !local {
                        stack.extend(&q.p.prev);
                    }
                }
                Ticket::GatherScattered(q) => {
                    let local = targets.iter().all(|t| q.subs.contains_key(t));
                    if q.merged.is_none() && (!local || q.version < self.refused_below) {
                        let (shard, local) = q
                            .subs
                            .iter()
                            .find(|(s, _)| !q.parts.contains_key(s))
                            .expect("an unmerged gather lacks a part");
                        return Some(Blocker::Unanswered {
                            shard: *shard,
                            local: *local,
                        });
                    }
                    if !local {
                        stack.extend(&q.p.prev);
                    }
                }
            }
        }
        None
    }

    /// The `prev` set a descriptor released to `shard` carries: the
    /// same-shard frontier of its global `prev` closure, plus the replay
    /// anchor of `slot` there (a gather's sub-operation, `slot == None`:
    /// of every slot replayed onto the shard).
    fn local_prev(&self, prev: &[ShardedOpId], shard: u32, slot: Option<u16>) -> Vec<OpId> {
        let mut out = gather_frontier(prev, shard, |g| match &self.tickets[&g] {
            Ticket::Submitted(q) => (vec![(q.shard, q.local)], q.p.prev.clone()),
            Ticket::GatherScattered(q) => (
                q.subs.iter().map(|(s, l)| (*s, *l)).collect(),
                q.p.prev.clone(),
            ),
            _ => unreachable!("the readiness walk saw every predecessor released"),
        });
        out.extend(
            self.replay_anchor
                .iter()
                .filter(|((sh, sl), _)| *sh == shard && slot.is_none_or(|s| s == *sl))
                .map(|(_, a)| *a),
        );
        out
    }

    fn mint_local(&mut self, global: ShardedOpId, shard: u32) -> OpId {
        let n = self.next_local.entry((global.client(), shard)).or_default();
        let local = OpId::new(global.client(), *n);
        *n += 1;
        self.by_local.insert((shard, local), global);
        local
    }

    /// Hands a ready operation to the current owner of its slot, or
    /// starts its gather.
    fn release(&mut self, gid: ShardedOpId, p: PendingOp<T::Operator>) {
        let version = self.table.version();
        if self.classify(&p.op) == OpClass::Gatherable {
            self.gathers.push(gid);
            if p.strict {
                let barrier = Ticket::GatherBarrier {
                    p,
                    version,
                    frontier: BTreeMap::new(),
                    covered: BTreeSet::new(),
                };
                self.tickets.insert(gid, barrier);
            } else {
                self.scatter(gid, p, BTreeMap::new());
            }
            return;
        }
        let shard = self.table.shard_of_slot(p.slot);
        let local_prev = self.local_prev(&p.prev, shard, Some(p.slot));
        let local = self.mint_local(gid, shard);
        self.effects
            .push(send(gid, shard, version, local, &p, &local_prev));
        let placed = Placed {
            p,
            shard,
            local,
            local_prev,
            version,
            answer: None,
        };
        self.tickets.insert(gid, Ticket::Submitted(placed));
    }

    /// Emits one sub-operation per involved shard.
    fn scatter(
        &mut self,
        gid: ShardedOpId,
        p: PendingOp<T::Operator>,
        frontier: BTreeMap<u32, Vec<OpId>>,
    ) {
        let version = self.table.version();
        let mut subs = BTreeMap::new();
        let mut sub_prev = BTreeMap::new();
        for shard in self.table.involved_shards() {
            let local_prev = self.local_prev(&p.prev, shard, None);
            let local = self.mint_local(gid, shard);
            self.effects
                .push(send(gid, shard, version, local, &p, &local_prev));
            subs.insert(shard, local);
            sub_prev.insert(shard, local_prev);
        }
        let gather = Gather {
            p,
            version,
            subs,
            sub_prev,
            frontier,
            parts: BTreeMap::new(),
            merged: None,
        };
        self.tickets.insert(gid, Ticket::GatherScattered(gather));
    }

    /// Releases ready `Pending` operations in submission order, to
    /// fixpoint (one release can unblock another).
    fn release_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            let mut progressed = false;
            for _ in 0..self.deferred.len() {
                let gid = self.deferred.pop_front().expect("counted");
                let Some(Ticket::Pending(p)) = self.tickets.get(&gid) else {
                    unreachable!("deferred tickets are pending");
                };
                if self.blocker(gid, p).is_some() {
                    self.deferred.push_back(gid);
                    continue;
                }
                let Some(Ticket::Pending(p)) = self.tickets.remove(&gid) else {
                    unreachable!("checked above");
                };
                self.release(gid, p);
                progressed = true;
            }
            if !progressed {
                return any;
            }
            any = true;
        }
    }

    /// Scatters every barrier gather that is ready and whose involved
    /// shards are all covered, and asks for a stability report from every
    /// shard one still waits on. A barrier the table moved under is
    /// retaken from scratch.
    fn advance_barriers(&mut self) -> bool {
        let at_barrier = |g| matches!(self.tickets.get(g), Some(Ticket::GatherBarrier { .. }));
        if !self.gathers.iter().any(at_barrier) {
            return false;
        }
        let current = self.table.version();
        let involved = self.table.involved_shards();
        let mut progressed = false;
        for gid in self.gathers.clone() {
            let Some(Ticket::GatherBarrier {
                version,
                frontier,
                covered,
                ..
            }) = self.tickets.get_mut(&gid)
            else {
                continue;
            };
            if *version != current {
                *version = current;
                frontier.clear();
                covered.clear();
            }
            let mut waiting = involved.iter().filter(|s| !covered.contains(s)).peekable();
            if waiting.peek().is_some() {
                for s in waiting {
                    if self.probing.insert(*s) {
                        self.effects.push(Effect::ProbeStability { shard: *s });
                    }
                }
                continue;
            }
            // Readiness again: since the barrier was entered a slot may
            // have frozen, or a NAK sent a predecessor back to `Pending`.
            let Some(Ticket::GatherBarrier { p, .. }) = self.tickets.get(&gid) else {
                unreachable!("checked above");
            };
            if self.blocker(gid, p).is_some() {
                continue;
            }
            let Some(Ticket::GatherBarrier { p, frontier, .. }) = self.tickets.remove(&gid) else {
                unreachable!("checked above");
            };
            self.scatter(gid, p, frontier);
            progressed = true;
        }
        progressed
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// The routing table this coordinator currently routes under.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The slots currently frozen.
    pub fn frozen(&self) -> &BTreeSet<u16> {
        &self.frozen
    }

    /// The slot `op` is attributed to (see [`RoutingTable::slot_of`]).
    pub fn slot_of(&self, op: &T::Operator) -> u16 {
        self.table.slot_of(&self.dt, op)
    }

    /// Whether `id` was minted by this coordinator.
    pub fn contains(&self, id: ShardedOpId) -> bool {
        self.tickets.contains_key(&id)
    }

    /// Every global id minted so far, ascending.
    pub fn ids(&self) -> impl Iterator<Item = ShardedOpId> + '_ {
        self.tickets.keys().copied()
    }

    /// The operations still `Pending`, in submission order.
    pub fn pending(&self) -> impl Iterator<Item = ShardedOpId> + '_ {
        self.deferred.iter().copied()
    }

    /// The gathers at their barrier or awaiting parts.
    pub fn gathers_in_flight(&self) -> &[ShardedOpId] {
        &self.gathers
    }

    /// Whether `id` has been handed to its shard(s).
    pub fn is_released(&self, id: ShardedOpId) -> bool {
        matches!(
            self.tickets.get(&id),
            Some(Ticket::Submitted(_) | Ticket::GatherScattered(_))
        )
    }

    /// What keeps `id` from being released, if anything does. `None` for
    /// released and unknown ids, and for a `Pending` operation the next
    /// [`poll`](Self::poll) will release.
    pub fn blocked_on(&self, id: ShardedOpId) -> Option<Blocker> {
        match self.tickets.get(&id)? {
            Ticket::Pending(p) => self.blocker(id, p),
            Ticket::GatherBarrier { .. } => Some(Blocker::Barrier),
            _ => None,
        }
    }

    /// Where `id` is: its shard and, once released, its identifier there.
    /// A `Pending` operation reports the *current* owner of its slot (it
    /// follows migrations and NAKs until released). `None` for a gather
    /// (see [`gather_detail`](Self::gather_detail)) and for unknown ids.
    pub fn placement(&self, id: ShardedOpId) -> Option<(u32, Option<OpId>)> {
        match self.tickets.get(&id)? {
            Ticket::Pending(p) if self.classify(&p.op) != OpClass::Gatherable => {
                Some((self.table.shard_of_slot(p.slot), None))
            }
            Ticket::Submitted(q) => Some((q.shard, Some(q.local))),
            _ => None,
        }
    }

    /// The table version `id` was last released under.
    pub fn routed_version(&self, id: ShardedOpId) -> Option<u64> {
        match self.tickets.get(&id)? {
            Ticket::Submitted(q) => Some(q.version),
            Ticket::GatherScattered(g) => Some(g.version),
            _ => None,
        }
    }

    /// A scattered gather's per-shard sub-operations and, when strict, the
    /// answered-frontier snapshots its barrier covered (empty when
    /// eventual) — the `esds_spec::ShardBarrier` records. `None` until it
    /// scatters, and for single-placement operations.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(&BTreeMap<u32, OpId>, &BTreeMap<u32, Vec<OpId>>)> {
        match self.tickets.get(&id)? {
            Ticket::GatherScattered(g) => Some((&g.subs, &g.frontier)),
            _ => None,
        }
    }

    /// An *answered* gather's per-shard trace — `(shard, descriptor,
    /// value, witness)`, ascending: each sub-operation is an ordinary
    /// request of its shard, answered with that shard's slice.
    #[allow(clippy::type_complexity)]
    pub fn gather_sub_trace(
        &self,
        id: ShardedOpId,
    ) -> Option<Vec<(u32, OpDescriptor<T::Operator>, T::Value, Option<Vec<OpId>>)>> {
        let Ticket::GatherScattered(g) = self.tickets.get(&id)? else {
            return None;
        };
        g.merged.as_ref()?;
        let sends = g.subs.iter().map(|(s, l)| {
            let (v, w) = g.parts[s].clone();
            (*s, descriptor(*l, &g.p, &g.sub_prev[s]), v, w)
        });
        Some(sends.collect())
    }

    /// The shard and descriptor a single-placement `id` is currently
    /// submitted as — built by the same constructor as its `Send` effect.
    pub fn local_descriptor(&self, id: ShardedOpId) -> Option<(u32, OpDescriptor<T::Operator>)> {
        let Ticket::Submitted(q) = self.tickets.get(&id)? else {
            return None;
        };
        Some((q.shard, descriptor(q.local, &q.p, &q.local_prev)))
    }

    /// The answer to `id` (for a gather: the merged one), once known.
    pub fn value_of(&self, id: ShardedOpId) -> Option<&T::Value> {
        match self.tickets.get(&id)? {
            Ticket::Submitted(q) => q.answer.as_ref().map(|(v, _)| v),
            Ticket::GatherScattered(g) => g.merged.as_ref(),
            _ => None,
        }
    }

    /// The witness `id`'s answer carried, if any.
    pub fn witness_of(&self, id: ShardedOpId) -> Option<&Vec<OpId>> {
        match self.tickets.get(&id)? {
            Ticket::Submitted(q) => q.answer.as_ref().and_then(|(_, w)| w.as_ref()),
            _ => None,
        }
    }

    /// The released placements still awaiting an answer, as `(shard,
    /// identifier there)`.
    pub fn outstanding(&self) -> impl Iterator<Item = (u32, OpId)> + '_ {
        self.by_local.keys().copied()
    }

    /// A `Send` effect for every released placement still awaiting an
    /// answer — what a driver on lossy links re-sends on its retry timer.
    pub fn unanswered_sends(&self) -> Vec<Effect<T::Operator>> {
        let globals: BTreeSet<ShardedOpId> = self.by_local.values().copied().collect();
        globals
            .iter()
            .flat_map(|g| self.tickets[g].unanswered_sends(*g))
            .collect()
    }
}
