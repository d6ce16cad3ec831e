//! A simulated **sharded** ESDS deployment: `S` independent replica
//! groups, each an unmodified [`SimSystem`], behind one
//! [`ShardCoordinator`] — with **live rebalancing** by slot migration.
//!
//! Routing, cross-shard `prev`, scatter-gather with its barrier-strict
//! mode, and frozen-slot deferral are the coordinator's (see its docs);
//! this module is its virtual-time **driver**. It supplies
//!
//! * `submit`: [`ShardedSimSystem::submit_at`] registers the operation
//!   at once and *holds* it in the coordinator until its scheduled
//!   instant, so a migration that freezes its slot in the meantime
//!   captures it like any live submission;
//! * `on_answer`: between slices of virtual time, every outstanding
//!   placement is checked against its shard's front end;
//! * `on_stability`: a probe is answered from the shard's own replicas —
//!   the operations the group has answered, and which of them are stable
//!   everywhere — at most once per shard per pump, so an uncovered
//!   barrier waits for virtual time to pass instead of spinning;
//! * `freeze` / `flip`, around the data plane of a migration, below.
//!
//! `Send` effects become [`SimSystem::submit_at`] calls; the shard's own
//! front end must mint exactly the identifier the coordinator did.
//!
//! ## Slot migration (rebalancing)
//!
//! [`ShardedSimSystem::begin_migration`] starts executing a
//! [`MigrationPlan`] (add a shard, drain a shard, or any custom move
//! set). The handoff runs as a four-phase state machine, entirely inside
//! virtual time, so it is observable under partitions, crashes, and load:
//!
//! 1. **Freeze** — new submissions touching a migrating slot stay pending
//!    in the coordinator (deferred, not rejected); everything already
//!    inside the source group keeps running.
//! 2. **Replay** — once every already-submitted operation of the
//!    migrating slots is answered *and stable everywhere* in its source
//!    group, each slot's **stable prefix** (its operations in final,
//!    minimum-label order — see [`SimSystem::stable_prefix`]) is
//!    resubmitted onto the receiving group by an internal migration
//!    client, chained with `prev` so the receiving group reproduces the
//!    exact serialization the source group stabilized. The stable prefix
//!    is the natural unit of transfer: it is the largest part of the
//!    history whose order can never change, and the smallest that every
//!    future response must reflect.
//! 3. **Flip** — the routing table version is bumped; from this instant
//!    the moved slots route to their new owner.
//! 4. **Drain** — the frozen operations are released through the normal
//!    path; each carries a `prev` anchor on the last replayed operation
//!    of its slot, so the receiving group's protocol orders it (and
//!    everything after it) behind the replayed prefix.
//!
//! If a source replica is partitioned or crashed, phase 2's stability
//! gate cannot pass and the migration simply waits — frozen submissions
//! stay queued and are answered after recovery, never lost.
//!
//! Shards advance in lockstep: [`ShardedSimSystem::run_until`] drives
//! every per-shard event queue to the same virtual instant, pumping the
//! coordinator and advancing any active migration between slices.

use std::collections::{BTreeMap, BTreeSet};

use esds_core::{
    ClientId, Effect, KeyedDataType, MigrationPlan, OpId, RoutingTable, ShardCoordinator,
    ShardRouter, ShardedOpId, HOME_SLOT,
};
use esds_sim::{derive_seed, SimDuration, SimTime};

use crate::system::{SimSystem, SystemConfig};

/// Configuration of a sharded simulated deployment.
#[derive(Clone, Debug)]
pub struct ShardedSystemConfig {
    /// Number of independent replica groups.
    pub n_shards: usize,
    /// Per-shard configuration template. Each shard derives its own
    /// channel/workload seed from `shard.seed` and its shard index, so
    /// shards are deterministic but not identical. Shards added later by
    /// a migration are built from the same template.
    pub shard: SystemConfig,
}

impl ShardedSystemConfig {
    /// A sharded deployment of `n_shards` groups built from one template.
    pub fn new(n_shards: usize, shard: SystemConfig) -> Self {
        ShardedSystemConfig { n_shards, shard }
    }
}

/// A complete sharded simulated deployment: `S` independent
/// [`SimSystem`]s multiplexed behind one submit/response API, with live
/// slot rebalancing.
///
/// Clients exist in every shard (their per-shard front ends are created
/// together, so one [`ClientId`] is valid everywhere); each submission is
/// routed to the shard owning its operator's key and identified globally
/// by a [`ShardedOpId`].
///
/// # Examples
///
/// ```
/// use esds_harness::{ShardedSimSystem, ShardedSystemConfig, SystemConfig};
/// use esds_datatypes::{KvOp, KvStore, KvValue};
///
/// let cfg = ShardedSystemConfig::new(4, SystemConfig::new(3).with_seed(7));
/// let mut sys = ShardedSimSystem::new(KvStore, cfg);
/// let c = sys.add_client(0);
/// let put = sys.submit(c, KvOp::put("user:1", "ada"), &[], false);
/// // The read is constrained after the put; if the two keys hash to
/// // different shards, the router waits for the put's response first.
/// let get = sys.submit(c, KvOp::get("user:1"), &[put], false);
/// sys.run_until_quiescent();
/// assert_eq!(sys.response(get), Some(&KvValue::Value(Some("ada".into()))));
/// ```
pub struct ShardedSimSystem<T: KeyedDataType + Clone> {
    dt: T,
    config: ShardedSystemConfig,
    coord: ShardCoordinator<T>,
    shards: Vec<SimSystem<T>>,
    /// The instant each operation was requested for.
    requested_at: BTreeMap<ShardedOpId, SimTime>,
    /// Submissions whose instant has not arrived, held in the coordinator.
    scheduled: BTreeSet<(SimTime, ShardedOpId)>,
    /// Stability probes left for the next pump to answer.
    probes: BTreeSet<u32>,
    /// Relay hints of every client, in creation order — replayed into
    /// shards spawned later so per-shard [`ClientId`]s stay aligned.
    client_hints: Vec<u32>,
    /// The active migration, if any (at most one at a time).
    migration: Option<MigrationPlan>,
    /// Internal client used to replay stable prefixes during handoffs.
    migration_client: Option<ClientId>,
}

impl<T: KeyedDataType + Clone> ShardedSimSystem<T> {
    /// Builds `config.n_shards` independent replica groups and a
    /// coordinator over them.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or the per-shard template is invalid
    /// (see [`SimSystem::new`]).
    pub fn new(dt: T, config: ShardedSystemConfig) -> Self {
        assert!(config.n_shards > 0, "need at least one shard");
        let shards = (0..config.n_shards)
            .map(|s| Self::build_shard(&dt, &config.shard, s))
            .collect();
        ShardedSimSystem {
            coord: ShardCoordinator::new(dt.clone(), RoutingTable::uniform(config.n_shards as u32)),
            dt,
            shards,
            requested_at: BTreeMap::new(),
            scheduled: BTreeSet::new(),
            probes: BTreeSet::new(),
            client_hints: Vec::new(),
            migration: None,
            migration_client: None,
            config,
        }
    }

    fn build_shard(dt: &T, template: &SystemConfig, index: usize) -> SimSystem<T> {
        let mut cfg = template.clone();
        cfg.seed = derive_seed(template.seed, 0x5A4D ^ index as u64);
        SimSystem::new(dt.clone(), cfg)
    }

    /// The router (key → slot → shard map), at its current version.
    pub fn router(&self) -> ShardRouter {
        ShardRouter::from_table(self.coord.table().clone())
    }

    /// The configuration (per-shard template; new shards clone it).
    pub fn config(&self) -> &ShardedSystemConfig {
        &self.config
    }

    /// The routing-table version: how many migrations have completed.
    pub fn table_version(&self) -> u64 {
        self.coord.table().version()
    }

    /// Number of shards (including drained ones, which own no slots).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard systems, for inspection (stats, states, orders).
    pub fn shards(&self) -> &[SimSystem<T>] {
        &self.shards
    }

    /// Mutable access to one shard's system — for scheduling
    /// [`crate::FaultEvent`]s against a single group in fault/chaos
    /// scenarios. Submit operations only through the sharded API, never
    /// directly through this handle, or per-shard identifiers will drift
    /// from the ones the coordinator mints.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_mut(&mut self, shard: usize) -> &mut SimSystem<T> {
        &mut self.shards[shard]
    }

    /// Current virtual time (shards run in lockstep; this is the frontier).
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.now())
            .max()
            .expect("at least one shard")
    }

    /// Adds a client to **every** shard, returning its (shared) identity.
    pub fn add_client(&mut self, hint: u32) -> ClientId {
        let mut ids = self.shards.iter_mut().map(|s| s.add_client(hint));
        let c = ids.next().expect("at least one shard");
        assert!(
            ids.all(|i| i == c),
            "per-shard client ids diverged; add clients only through ShardedSimSystem"
        );
        self.client_hints.push(hint);
        c
    }

    /// Submits an operation *now* (see [`ShardedSimSystem::submit_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `client` is unknown or `prev` names an identifier never
    /// returned by this system (client well-formedness, paper §4).
    pub fn submit(
        &mut self,
        client: ClientId,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> ShardedOpId {
        self.submit_at(self.now(), client, op, prev, strict)
    }

    /// Submits an operation at a future virtual time (the open-loop
    /// workload driver, mirroring [`SimSystem::submit_at`]). The global
    /// identifier is assigned immediately; the request is held in the
    /// coordinator until `at`, and then until its slot is not frozen and
    /// every foreign-shard predecessor is answered.
    ///
    /// # Panics
    ///
    /// Panics if `client` is unknown or `prev` names an identifier never
    /// returned by this system.
    pub fn submit_at(
        &mut self,
        at: SimTime,
        client: ClientId,
        op: T::Operator,
        prev: &[ShardedOpId],
        strict: bool,
    ) -> ShardedOpId {
        assert!(
            (client.0 as usize) < self.client_hints.len(),
            "unknown client; use add_client"
        );
        let gid = self.coord.submit(client, op, prev, strict);
        self.requested_at.insert(gid, at);
        if at > self.now() {
            self.coord.hold(gid);
            self.scheduled.insert((at, gid));
        }
        self.pump();
        gid
    }

    /// Feeds the coordinator what the shards have done since the last
    /// pump — scheduled instants reached, answers delivered, stability of
    /// probed frontiers — and executes its effects, to fixpoint.
    fn pump(&mut self) {
        let now = self.now();
        while let Some((at, gid)) = self.scheduled.first().copied() {
            if at > now {
                break;
            }
            self.scheduled.remove(&(at, gid));
            self.coord.unhold(gid);
        }
        let mut reported = BTreeSet::new();
        for shard in std::mem::take(&mut self.probes) {
            reported.insert(shard);
            self.report_stability(shard);
        }
        loop {
            let answered: Vec<(u32, OpId, T::Value)> = self
                .coord
                .outstanding()
                .filter_map(|(s, l)| Some((s, l, self.shards[s as usize].response(l)?.clone())))
                .collect();
            for (s, l, v) in answered {
                self.coord.on_answer(s, l, v, None);
            }
            let effects = self.coord.poll();
            if effects.is_empty() {
                return;
            }
            for e in effects {
                match e {
                    Effect::Send {
                        shard,
                        global,
                        desc,
                        ..
                    } => {
                        let target = &mut self.shards[shard as usize];
                        let at = self.requested_at[&global].max(target.now());
                        let prev: Vec<OpId> = desc.prev.into_iter().collect();
                        let local =
                            target.submit_at(at, desc.id.client(), desc.op, &prev, desc.strict);
                        assert_eq!(
                            local, desc.id,
                            "shard {shard} was submitted to behind the coordinator's back"
                        );
                    }
                    Effect::ProbeStability { shard } => {
                        if reported.insert(shard) {
                            self.report_stability(shard);
                        } else {
                            self.probes.insert(shard);
                        }
                    }
                    Effect::Answered { .. } => {}
                }
            }
        }
    }

    /// Answers a stability probe: every operation some replica of `shard`
    /// has responded to, and which of those are stable everywhere.
    fn report_stability(&mut self, shard: u32) {
        let sys = &self.shards[shard as usize];
        let answered: Vec<OpId> = sys
            .requested()
            .keys()
            .filter(|id| sys.response(**id).is_some())
            .copied()
            .collect();
        let stable = answered
            .iter()
            .filter(|id| sys.op_is_stable_everywhere(**id))
            .copied()
            .collect();
        self.coord.on_stability(shard, answered, &stable);
    }

    // ------------------------------------------------------------------
    // Slot migration
    // ------------------------------------------------------------------

    /// Starts executing a [`MigrationPlan`] (see the module docs' state
    /// machine). Any destination shards beyond the current count are
    /// spawned from the configuration template, with every existing
    /// client re-created so identities stay aligned. Returns immediately;
    /// the handoff advances as virtual time runs and completes once the
    /// migrating slots' history is stable — observe progress with
    /// [`ShardedSimSystem::migration_active`] and
    /// [`ShardedSimSystem::table_version`].
    ///
    /// # Panics
    ///
    /// Panics if a migration is already active or the plan was computed
    /// against a different table version.
    pub fn begin_migration(&mut self, plan: MigrationPlan) {
        assert!(
            self.migration.is_none(),
            "a migration is already in progress"
        );
        assert_eq!(
            plan.from_version(),
            self.table_version(),
            "migration plan is stale"
        );
        while (self.shards.len() as u32) < plan.n_shards_after() {
            let index = self.shards.len();
            let mut sys = Self::build_shard(&self.dt, &self.config.shard, index);
            for (i, hint) in self.client_hints.iter().enumerate() {
                let c = sys.add_client(*hint);
                assert_eq!(c, ClientId(i as u32), "client ids must align across shards");
            }
            self.shards.push(sys);
        }
        if self.migration_client.is_none() {
            self.migration_client = Some(self.add_client(0));
        }
        self.coord.freeze(plan.slots());
        self.migration = Some(plan);
        // A quiescent system can hand off immediately.
        self.try_complete_migration();
    }

    /// Convenience: plan and start an add-shard migration (the new
    /// group takes ~`1/(S+1)` of the slots). Returns the new shard's id.
    pub fn begin_add_shard(&mut self) -> u32 {
        let plan = MigrationPlan::add_shard(self.coord.table());
        let new = self.coord.table().n_shards();
        self.begin_migration(plan);
        new
    }

    /// Convenience: plan and start draining `shard` (its slots spread
    /// over the remaining shards; the group itself stays alive to finish
    /// answering what it already accepted).
    pub fn begin_drain_shard(&mut self, shard: u32) {
        let plan = MigrationPlan::drain_shard(self.coord.table(), shard);
        self.begin_migration(plan);
    }

    /// Whether a migration is still in progress (slots frozen, handoff
    /// pending).
    pub fn migration_active(&self) -> bool {
        self.migration.is_some()
    }

    /// A group's operations on `slot`, restricted to its stable prefix,
    /// in final minimum-label order — the slot's share of the group's
    /// transferable history.
    fn slot_timeline(&self, shard: u32, slot: u16) -> Vec<OpId> {
        let sys = &self.shards[shard as usize];
        sys.stable_prefix()
            .expect("caller checks liveness")
            .into_iter()
            .filter(|id| self.coord.slot_of(&sys.requested()[id].op) == slot)
            .collect()
    }

    /// Advances the active migration if its stability gate is met:
    /// replays each migrating slot's stable prefix onto its destination,
    /// flips the routing table, and drains the frozen queue. No-op while
    /// any operation of a migrating slot is unanswered or unstable in
    /// its group, or while any group involved in a move has a crashed
    /// replica (e.g. during a partition or outage — the migration simply
    /// waits), or when no migration is active.
    fn try_complete_migration(&mut self) {
        let Some(plan) = &self.migration else { return };
        // Phase 2 gate, part 1: every group a move touches — source or
        // destination — must have all replicas alive, so both sides'
        // stability knowledge is complete.
        let involved: BTreeSet<u32> = plan
            .moves()
            .iter()
            .flat_map(|mv| [mv.from, mv.to])
            .collect();
        for shard in &involved {
            if !self.shards[*shard as usize].all_replicas_alive() {
                return;
            }
        }
        // Phase 2 gate, part 2: every operation *any* involved group has
        // received on a migrating slot — client submissions and earlier
        // handoffs' replays alike — must be answered and stable
        // everywhere in its group, so the slot's serialization is final
        // and fully transferable. Checked against each group's own
        // request log, not the coordinator: a back-to-back migration of a
        // just-moved slot must wait for the previous handoff's replayed
        // prefix to stabilize on the group it is now moving out of.
        for shard in &involved {
            let sys = &self.shards[*shard as usize];
            for (id, desc) in sys.requested() {
                if self.coord.frozen().contains(&self.coord.slot_of(&desc.op))
                    && (sys.response(*id).is_none() || !sys.op_is_stable_everywhere(*id))
                {
                    return;
                }
            }
        }
        let plan = self.migration.take().expect("checked above");
        let mc = self.migration_client.expect("set at begin_migration");
        // Phase 2: replay each slot's stable prefix, in its final
        // minimum-label order, onto the receiving group. `prev` chains
        // preserve the order; the last link becomes the slot's anchor.
        //
        // A destination that held the slot *earlier* (a drain returning
        // it to a former owner) already has a frozen prefix of the
        // slot's timeline in its own history: when the slot left it, the
        // current owner started from a replay of exactly those
        // operations, in the same order, and the former owner received
        // nothing on the slot since. Only the timeline's *suffix* beyond
        // that shared prefix is replayed — re-applying the shared part
        // would double-apply non-idempotent operators (a bank deposit
        // counted twice).
        let mut anchors = Vec::new();
        for mv in plan.moves() {
            let src_timeline = self.slot_timeline(mv.from, mv.slot);
            let already_held = self.slot_timeline(mv.to, mv.slot);
            assert!(
                already_held.len() <= src_timeline.len(),
                "destination shard {} holds more of slot {} ({} ops) than the source timeline \
                 ({} ops); handoff bookkeeping corrupted",
                mv.to,
                mv.slot,
                already_held.len(),
                src_timeline.len()
            );
            let suffix: Vec<T::Operator> = src_timeline[already_held.len()..]
                .iter()
                .map(|id| self.shards[mv.from as usize].requested()[id].op.clone())
                .collect();
            // Order the replayed suffix — and everything drained after —
            // behind the destination's existing share of the timeline.
            let mut anchor = already_held.last().copied();
            for op in suffix {
                let prev: Vec<OpId> = anchor.into_iter().collect();
                let dest = &mut self.shards[mv.to as usize];
                anchor = Some(dest.submit(mc, op, &prev, false));
            }
            anchors.extend(anchor.map(|a| ((mv.to, mv.slot), a)));
        }
        // Phase 3: flip the table; phase 4: drain the frozen queue.
        self.coord.flip(&plan, anchors);
        self.pump();
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Runs every shard to virtual time `t` in lockstep (slices of the
    /// gossip interval, shortened so scheduled submissions release on
    /// time), pumping the coordinator and advancing any active migration
    /// between slices.
    pub fn run_until(&mut self, t: SimTime) {
        let slice = self.config.shard.gossip_interval;
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let mut target = (now + slice).min(t);
            if let Some((next_at, _)) = self.scheduled.first() {
                target = target.min(*next_at);
            }
            for s in &mut self.shards {
                s.run_until(target);
            }
            self.pump();
            self.try_complete_migration();
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Releases any deferred cross-shard submissions earlier steps
    /// unblocked, advances any active migration, then runs **one** event
    /// of shard `shard` and returns its report. `None` when that shard's
    /// queue is empty. This is the fine-grained stepping mode the
    /// per-shard [`crate::ConformanceObserver`]s need: each shard is an
    /// independent ESDS instance, so observing every shard's steps
    /// against its own `ESDS-II` automaton is exactly the sharded
    /// conformance statement — and it holds *through* a slot handoff,
    /// because replayed and drained operations are ordinary requests of
    /// the receiving shard.
    ///
    /// The pump runs **before** the step, not after: a released
    /// operation (and in particular a scattered whole-object query,
    /// whose sub-operations land on *every* involved shard at once —
    /// including `shard` itself) must appear in the next report the
    /// observer sees for its shard, never in the gap between a report
    /// and the post-step view it is checked against.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn step_shard(&mut self, shard: usize) -> Option<crate::system::TimedStep<T>> {
        self.pump();
        self.try_complete_migration();
        self.shards[shard].step_one()
    }

    /// A live borrow view of shard `shard` for invariant/conformance
    /// checks (see [`SimSystem::view`]). `None` if a replica of that
    /// shard is crashed.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_view(&self, shard: usize) -> Option<esds_alg::SystemView<'_, T>> {
        self.shards[shard].view()
    }

    /// Whether every submission has been released to its shard, answered,
    /// and stabilized within its group, and no migration is pending.
    pub fn is_converged(&self) -> bool {
        self.migration.is_none()
            && self.coord.pending().next().is_none()
            && self.coord.gathers_in_flight().is_empty()
            && self.shards.iter().all(|s| s.is_converged())
    }

    /// Runs until converged or until `max` virtual time passes.
    ///
    /// # Errors
    ///
    /// Returns a description of what is still outstanding on timeout.
    pub fn run_until_converged(&mut self, max: SimTime) -> Result<SimTime, String> {
        while !self.is_converged() {
            if self.now() >= max {
                let mut parts: Vec<String> = Vec::new();
                if self.migration.is_some() {
                    parts.push(format!(
                        "migration of slots {:?} not handed off",
                        self.coord.frozen()
                    ));
                }
                let held: Vec<String> = self.coord.pending().map(|g| g.to_string()).collect();
                if !held.is_empty() {
                    parts.push(format!("{} deferred {held:?}", held.len()));
                }
                let gathers = self.coord.gathers_in_flight();
                if !gathers.is_empty() {
                    let held: Vec<String> = gathers.iter().map(|g| g.to_string()).collect();
                    parts.push(format!("{} gathers in flight {held:?}", held.len()));
                }
                for (i, s) in self.shards.iter().enumerate() {
                    if !s.is_converged() {
                        let unanswered: Vec<String> = s
                            .op_times()
                            .iter()
                            .filter(|(_, t)| t.responded.is_none())
                            .map(|(id, _)| id.to_string())
                            .collect();
                        parts.push(format!("shard {i} unconverged (unanswered {unanswered:?})"));
                    }
                }
                return Err(format!("not converged by {max}: {}", parts.join("; ")));
            }
            let t = self.now() + self.config.shard.gossip_interval;
            self.run_until(t.min(max));
        }
        Ok(self.now())
    }

    /// Convenience wrapper: converge within a generous horizon.
    ///
    /// # Panics
    ///
    /// Panics if convergence is not reached (deterministic fault-free
    /// deployments always converge; prefer
    /// [`ShardedSimSystem::run_until_converged`] under faults).
    pub fn run_until_quiescent(&mut self) -> SimTime {
        let budget = self.config.shard.quiescence_budget(self.now());
        match self.run_until_converged(budget) {
            Ok(t) => t,
            Err(e) => panic!("run_until_quiescent: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Results & inspection
    // ------------------------------------------------------------------

    /// Where `id` was routed: its shard and, once released, its local
    /// identifier within that shard. For pending operations the shard is
    /// the *current* owner of the operation's slot (a pending operation
    /// follows migrations until it is released). Gathered queries have
    /// no single placement — `None` here; see
    /// [`ShardedSimSystem::gather_detail`].
    pub fn placement(&self, id: ShardedOpId) -> Option<(u32, Option<OpId>)> {
        self.coord.placement(id)
    }

    /// A gathered query's per-shard sub-operations and, in barrier-strict
    /// mode, the answered-frontier snapshot its barrier waited out (empty
    /// in eventual mode) — the raw material of an `esds_spec::ShardBarrier`
    /// cut check. `None` until the query scatters, and for single-key
    /// operations.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(&BTreeMap<u32, OpId>, &BTreeMap<u32, Vec<OpId>>)> {
        self.coord.gather_detail(id)
    }

    /// The response delivered for `id`, if any. For a gathered query this
    /// is the merged whole-object answer, available once every involved
    /// shard has answered its sub-operation.
    pub fn response(&self, id: ShardedOpId) -> Option<&T::Value> {
        match self.coord.placement(id) {
            Some((shard, local)) => self.shards[shard as usize].response(local?),
            None => self.coord.value_of(id),
        }
    }

    /// Total operations answered across all shards (including internal
    /// stable-prefix replays, which are requests of the receiving group).
    pub fn completed_count(&self) -> usize {
        self.shards.iter().map(|s| s.completed_count()).sum()
    }

    /// Total client-submitted operations answered (excluding internal
    /// stable-prefix replays) — the numerator rebalancing experiments
    /// should use, so handoff traffic doesn't inflate throughput.
    pub fn completed_client_ops(&self) -> usize {
        self.coord
            .ids()
            .filter(|id| self.response(*id).is_some())
            .count()
    }

    /// The latest response-delivery instant across all shards (the
    /// completion time a throughput measurement should divide by).
    pub fn latest_response(&self) -> SimTime {
        self.shards
            .iter()
            .flat_map(|s| s.op_times().values())
            .filter_map(|t| t.responded)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The submission/response timing of `id`, if released and known:
    /// `(submitted, responded)`. For a gathered query, `submitted` is
    /// the instant the client requested it (barrier waiting counts
    /// toward latency — it is part of what the client pays) and
    /// `responded` the instant the *last* sub-operation answered.
    pub fn op_timing(&self, id: ShardedOpId) -> Option<(SimTime, Option<SimTime>)> {
        let responded = |shard: u32, local: &OpId| {
            self.shards[shard as usize]
                .op_times()
                .get(local)
                .map(|t| (t.submitted, t.responded))
        };
        if let Some((shard, local)) = self.coord.placement(id) {
            return responded(shard, &local?);
        }
        let (subs, _) = self.coord.gather_detail(id)?;
        let last = subs
            .iter()
            .map(|(s, l)| responded(*s, l).and_then(|(_, r)| r))
            .collect::<Option<Vec<_>>>()
            .and_then(|ts| ts.into_iter().max());
        Some((self.requested_at[&id], last))
    }

    /// Per-shard count of operations routed there (load-balance metric).
    /// Pending operations count toward their slot's current owner; a
    /// gathered query counts once per involved shard (it really does
    /// occupy each of them), and toward the home slot's owner while it
    /// waits at its barrier.
    pub fn shard_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.shards.len()];
        for id in self.coord.ids() {
            match (self.coord.placement(id), self.coord.gather_detail(id)) {
                (Some((shard, _)), _) => loads[shard as usize] += 1,
                (None, Some((subs, _))) => subs.keys().for_each(|s| loads[*s as usize] += 1),
                (None, None) => loads[self.coord.table().shard_of_slot(HOME_SLOT) as usize] += 1,
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{Bank, BankOp, BankValue, KvOp, KvStore, KvValue};
    use esds_spec::check_converged;

    fn kv_sys(n_shards: usize, seed: u64) -> ShardedSimSystem<KvStore> {
        ShardedSimSystem::new(
            KvStore,
            ShardedSystemConfig::new(n_shards, SystemConfig::new(3).with_seed(seed)),
        )
    }

    #[test]
    fn routes_by_key_and_answers() {
        let mut sys = kv_sys(4, 1);
        let c = sys.add_client(0);
        let mut ids = Vec::new();
        for i in 0..32 {
            ids.push(sys.submit(c, KvOp::put(format!("k{i}"), format!("v{i}")), &[], false));
        }
        sys.run_until_quiescent();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(sys.response(*id), Some(&KvValue::Ack), "op {i}");
        }
        let loads = sys.shard_loads();
        assert_eq!(loads.iter().sum::<usize>(), 32);
        assert!(
            loads.iter().all(|l| *l > 0),
            "32 keys must spread over 4 shards: {loads:?}"
        );
    }

    #[test]
    fn same_key_same_shard_preserves_order_semantics() {
        let mut sys = kv_sys(8, 2);
        let c = sys.add_client(0);
        let put = sys.submit(c, KvOp::put("x", "1"), &[], false);
        let overwrite = sys.submit(c, KvOp::put("x", "2"), &[put], false);
        let get = sys.submit(c, KvOp::get("x"), &[overwrite], false);
        sys.run_until_quiescent();
        assert_eq!(sys.response(get), Some(&KvValue::Value(Some("2".into()))));
    }

    #[test]
    fn cross_shard_prev_defers_until_foreign_response() {
        let mut sys = kv_sys(4, 3);
        let c = sys.add_client(0);
        // Find two keys on different shards.
        let router = sys.router();
        let (ka, kb) = {
            let a = "a".to_string();
            let b = (0..100)
                .map(|i| format!("b{i}"))
                .find(|k| router.shard_of_key(k) != router.shard_of_key(&a))
                .expect("some key lands elsewhere");
            (a, b)
        };
        let wa = sys.submit(c, KvOp::put(&ka, "1"), &[], false);
        let wb = sys.submit(c, KvOp::put(&kb, "2"), &[wa], false);
        // wb is deferred until wa is answered.
        assert_eq!(sys.placement(wb), Some((router.shard_of_key(&kb), None)));
        sys.run_until_quiescent();
        let (_, local) = sys.placement(wb).expect("placed");
        assert!(local.is_some(), "deferred op must eventually release");
        assert_eq!(sys.response(wb), Some(&KvValue::Ack));
        // The dependent's release happened at-or-after the foreign response.
        assert_eq!(sys.response(wa), Some(&KvValue::Ack));
    }

    #[test]
    fn transitive_prev_survives_foreign_hop() {
        use esds_alg::RelayPolicy;
        // Chain A (shard s) ← B (foreign shard) ← C (shard s). Dropping
        // B's edge naively would also drop C's transitive ordering after
        // A. Slow gossip plus a round-robin relay places C's request on a
        // replica of s that has NOT seen A yet — only the inherited prev
        // constraint makes that replica defer C until gossip delivers A.
        let shard_cfg = SystemConfig::new(3)
            .with_seed(9)
            .with_gossip_interval(SimDuration::from_millis(500))
            .with_relay(RelayPolicy::RoundRobin);
        let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(4, shard_cfg));
        let c = sys.add_client(0);
        let router = sys.router();
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| router.shard_of_key(k) != router.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let a = sys.submit(c, KvOp::put(&ka, "1"), &[], false);
        let b = sys.submit(c, KvOp::put(&kb, "2"), &[a], false);
        let read = sys.submit(c, KvOp::get(&ka), &[b], false);
        // Fine-grained slices so B and C release long before the first
        // gossip round (t = 500 ms) can propagate A within shard s.
        for _ in 0..10 {
            sys.run_for(SimDuration::from_millis(15));
        }
        sys.run_until_quiescent();
        assert_eq!(
            sys.response(read),
            Some(&KvValue::Value(Some("1".into()))),
            "a read ordered after the write through a foreign hop must see it"
        );
    }

    #[test]
    fn chained_cross_shard_deps_release_in_order() {
        let mut sys = kv_sys(2, 4);
        let c = sys.add_client(0);
        let mut prev: Vec<ShardedOpId> = Vec::new();
        let mut ids = Vec::new();
        for i in 0..10 {
            let id = sys.submit(c, KvOp::put(format!("k{i}"), format!("{i}")), &prev, false);
            prev = vec![id];
            ids.push(id);
        }
        sys.run_until_quiescent();
        assert_eq!(sys.completed_count(), 10);
        for id in ids {
            assert_eq!(sys.response(id), Some(&KvValue::Ack));
        }
    }

    #[test]
    fn strict_ops_stabilize_within_their_shard() {
        let mut sys = kv_sys(4, 5);
        let c = sys.add_client(0);
        let put = sys.submit(c, KvOp::put("k", "v"), &[], true);
        sys.run_until_quiescent();
        assert_eq!(sys.response(put), Some(&KvValue::Ack));
        // Every shard's replica group individually converged.
        for s in sys.shards() {
            assert!(check_converged(&s.local_orders(), &s.replica_states()).is_ok());
        }
    }

    #[test]
    fn whole_object_query_gathers_union_across_shards() {
        // Regression pin for the PR 2–5 bug: `Keys` used to route to the
        // HOME_SLOT owner and return only that shard's slice. Reverting
        // scatter-gather (keyless → home shard) makes this fail: 32 keys
        // spread over 4 shards, and the home shard holds only ~a quarter
        // of them.
        let mut sys = kv_sys(4, 6);
        let c = sys.add_client(0);
        let mut expect: Vec<String> = Vec::new();
        for i in 0..32 {
            let k = format!("k{i}");
            sys.submit(c, KvOp::put(&k, "v"), &[], false);
            expect.push(k);
        }
        expect.sort();
        let keys = sys.submit(c, KvOp::Keys, &[], false);
        sys.run_until_quiescent();
        let loads = sys.shard_loads();
        assert!(
            loads.iter().all(|l| *l > 0),
            "precondition: every shard must hold some keys: {loads:?}"
        );
        let (subs, frontier) = sys.gather_detail(keys).expect("scattered");
        assert_eq!(subs.len(), 4, "one sub-operation per involved shard");
        assert!(frontier.is_empty(), "eventual gather takes no barrier");
        assert_eq!(
            sys.response(keys),
            Some(&KvValue::Keys(expect)),
            "a whole-object query must return the union of every shard's slice"
        );
    }

    #[test]
    fn barrier_strict_keys_is_exact_and_cut_checks() {
        use esds_spec::{check_barrier_cut, ShardBarrier};
        let mut sys = kv_sys(4, 21);
        let c = sys.add_client(0);
        let mut expect: Vec<String> = Vec::new();
        for i in 0..24 {
            let k = format!("k{i}");
            sys.submit(c, KvOp::put(&k, "v"), &[], i % 5 == 0);
            expect.push(k);
        }
        expect.sort();
        // Everything answered before the query is requested: barrier
        // strictness must make the answer exactly the full key set.
        sys.run_until_quiescent();
        let keys = sys.submit(c, KvOp::Keys, &[], true);
        sys.run_until_quiescent();
        assert_eq!(sys.response(keys), Some(&KvValue::Keys(expect)));
        let (subs, frontier) = sys.gather_detail(keys).expect("scattered");
        assert_eq!(subs.len(), 4);
        assert_eq!(frontier.len(), 4, "barrier snapshots every involved shard");
        assert!(
            frontier.values().any(|f| !f.is_empty()),
            "an answered workload must leave a nonempty frontier somewhere"
        );
        // The conformance predicate: each sub-op after its shard's whole
        // frontier in that shard's eventual order.
        for (shard, f) in frontier {
            let b = ShardBarrier {
                shard: *shard,
                frontier: f.clone(),
                sub: subs[shard],
            };
            let order = sys.shards()[*shard as usize].minlabel_order();
            assert_eq!(check_barrier_cut(&b, &order), vec![], "shard {shard}");
        }
    }

    #[test]
    fn gather_defers_while_migration_active() {
        // The keyless/flip race (satellite of ISSUE 8): a whole-object
        // query must never race a routing-table flip — it defers until
        // the migration completes, then gathers over the *new* shard
        // set, seeing every migrated key exactly once.
        let mut sys = kv_sys(2, 23);
        let c = sys.add_client(0);
        let mut expect: Vec<String> = Vec::new();
        for i in 0..20 {
            let k = format!("k{i}");
            sys.submit(c, KvOp::put(&k, "v"), &[], false);
            expect.push(k);
        }
        expect.sort();
        sys.run_for(SimDuration::from_millis(40));
        sys.begin_add_shard();
        assert!(sys.migration_active());
        let keys = sys.submit(c, KvOp::Keys, &[], true);
        assert!(
            sys.gather_detail(keys).is_none(),
            "a gather must not scatter mid-migration"
        );
        sys.run_until_quiescent();
        assert_eq!(sys.table_version(), 1);
        let (subs, _) = sys.gather_detail(keys).expect("scattered after the flip");
        assert_eq!(
            subs.len(),
            3,
            "the deferred gather must cover the post-flip shard set"
        );
        assert_eq!(sys.response(keys), Some(&KvValue::Keys(expect)));
    }

    #[test]
    fn gather_participates_in_prev_both_directions() {
        let mut sys = kv_sys(4, 25);
        let c = sys.add_client(0);
        // Writes on (at least) two different shards, unanswered when the
        // gather is requested, ordered before it via prev.
        let a = sys.submit(c, KvOp::put("a", "1"), &[], false);
        let b = sys.submit(c, KvOp::put("b0", "2"), &[], false);
        let keys = sys.submit(c, KvOp::Keys, &[a, b], false);
        // And a dependent ordered after the gather.
        let after = sys.submit(c, KvOp::put("c", "3"), &[keys], false);
        sys.run_until_quiescent();
        let KvValue::Keys(ks) = sys.response(keys).expect("answered") else {
            panic!("wrong value kind");
        };
        assert!(
            ks.contains(&"a".to_string()),
            "prev write a missing: {ks:?}"
        );
        assert!(
            ks.contains(&"b0".to_string()),
            "prev write b missing: {ks:?}"
        );
        assert_eq!(sys.response(after), Some(&KvValue::Ack));
    }

    #[test]
    fn ungatherable_keyless_ops_still_route_home() {
        use esds_core::SerialDataType;
        // A keyless operator without a merge keeps the legacy home-slot
        // routing (the sim's document-and-route analog of the wire
        // layer's typed rejection).
        #[derive(Clone)]
        struct NoMerge;
        #[derive(Clone, PartialEq, Debug)]
        enum NmOp {
            Touch(String),
            Whole,
        }
        impl SerialDataType for NoMerge {
            type State = u64;
            type Operator = NmOp;
            type Value = u64;
            fn initial_state(&self) -> u64 {
                0
            }
            fn apply(&self, s: &u64, _op: &NmOp) -> (u64, u64) {
                (s + 1, s + 1)
            }
        }
        impl esds_core::KeyedDataType for NoMerge {
            fn shard_key<'a>(&self, op: &'a NmOp) -> Option<&'a str> {
                match op {
                    NmOp::Touch(k) => Some(k),
                    NmOp::Whole => None,
                }
            }
        }
        let cfg = ShardedSystemConfig::new(4, SystemConfig::new(2).with_seed(27));
        let mut sys = ShardedSimSystem::new(NoMerge, cfg);
        let c = sys.add_client(0);
        let t = sys.submit(c, NmOp::Touch("x".into()), &[], false);
        let w = sys.submit(c, NmOp::Whole, &[t], false);
        assert_eq!(
            sys.placement(t).map(|(s, _)| s),
            Some(sys.router().shard_of_key("x"))
        );
        assert_eq!(
            sys.placement(w).map(|(s, _)| s),
            Some(sys.router().table().shard_of_slot(esds_core::HOME_SLOT))
        );
        sys.run_until_quiescent();
        assert!(sys.gather_detail(w).is_none());
        assert!(sys.response(w).is_some());
    }

    #[test]
    fn single_key_type_occupies_one_shard() {
        let cfg = ShardedSystemConfig::new(4, SystemConfig::new(2).with_seed(7));
        let mut sys = ShardedSimSystem::new(Bank, cfg);
        let c = sys.add_client(0);
        let d = sys.submit(c, BankOp::Deposit(100), &[], false);
        let w = sys.submit(c, BankOp::Withdraw(40), &[d], true);
        let b = sys.submit(c, BankOp::Balance, &[w], false);
        sys.run_until_quiescent();
        assert_eq!(sys.response(w), Some(&BankValue::Withdrawn(true)));
        assert_eq!(sys.response(b), Some(&BankValue::Balance(60)));
        let loads = sys.shard_loads();
        assert_eq!(
            loads.iter().filter(|l| **l > 0).count(),
            1,
            "an unkeyed-state bank never splits: {loads:?}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u64| {
            let mut sys = kv_sys(3, seed);
            let c = sys.add_client(0);
            let ids: Vec<_> = (0..12)
                .map(|i| sys.submit(c, KvOp::put(format!("k{i}"), "v"), &[], i % 4 == 0))
                .collect();
            sys.run_until_quiescent();
            (sys.now(), ids.len(), sys.completed_count())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "never submitted")]
    fn unknown_prev_rejected() {
        let mut sys = kv_sys(2, 8);
        let c = sys.add_client(0);
        let ghost = ShardedOpId::new(c, 99);
        let _ = sys.submit(c, KvOp::put("k", "v"), &[ghost], false);
    }

    #[test]
    fn submit_at_schedules_release() {
        let mut sys = kv_sys(2, 9);
        let c = sys.add_client(0);
        let at = SimTime::from_millis(120);
        let id = sys.submit_at(at, c, KvOp::put("k", "v"), &[], false);
        // Held in the routing layer until `at`.
        assert_eq!(sys.placement(id).map(|(_, l)| l), Some(None));
        sys.run_until(SimTime::from_millis(100));
        assert_eq!(sys.placement(id).map(|(_, l)| l), Some(None));
        sys.run_until_quiescent();
        let (submitted, responded) = sys.op_timing(id).expect("released");
        assert_eq!(submitted, at, "request must enter the network at `at`");
        assert!(responded.is_some());
        assert_eq!(sys.response(id), Some(&KvValue::Ack));
    }

    // ------------------------------------------------------------------
    // Slot migration
    // ------------------------------------------------------------------

    /// Keys of `sys`'s key universe that live on migrating vs staying
    /// slots under the current table.
    fn keys_by_slot_move(
        sys: &ShardedSimSystem<KvStore>,
        plan_slots: &BTreeSet<u16>,
        n: usize,
    ) -> (Vec<String>, Vec<String>) {
        let router = sys.router();
        let mut moving = Vec::new();
        let mut staying = Vec::new();
        for i in 0..n {
            let k = format!("k{i}");
            if plan_slots.contains(&router.slot_of_key(&k)) {
                moving.push(k);
            } else {
                staying.push(k);
            }
        }
        (moving, staying)
    }

    #[test]
    fn add_shard_hands_off_state_and_serves_reads() {
        let mut sys = kv_sys(2, 11);
        let c = sys.add_client(0);
        // Populate 40 keys, some strict.
        let mut writes = Vec::new();
        for i in 0..40 {
            writes.push(sys.submit(
                c,
                KvOp::put(format!("k{i}"), format!("v{i}")),
                &[],
                i % 7 == 0,
            ));
        }
        sys.run_for(SimDuration::from_millis(50));
        // Begin the migration mid-flight; submissions keep coming.
        let plan = MigrationPlan::add_shard(sys.router().table());
        let plan_slots = plan.slots();
        sys.begin_migration(plan);
        assert!(sys.migration_active());
        let (moving, _) = keys_by_slot_move(&sys, &plan_slots, 40);
        assert!(!moving.is_empty(), "some key must migrate");
        // Reads of migrating keys submitted during the freeze are queued,
        // not rejected, and answered by the NEW owner after the flip.
        let mut frozen_reads = Vec::new();
        for k in &moving {
            frozen_reads.push((k.clone(), sys.submit(c, KvOp::get(k), &[], false)));
        }
        sys.run_until_quiescent();
        assert!(!sys.migration_active());
        assert_eq!(sys.table_version(), 1);
        assert_eq!(sys.n_shards(), 3);
        for w in writes {
            assert_eq!(sys.response(w), Some(&KvValue::Ack));
        }
        let router = sys.router();
        for (k, id) in frozen_reads {
            let i: usize = k[1..].parse().unwrap();
            assert_eq!(
                sys.response(id),
                Some(&KvValue::Value(Some(format!("v{i}")))),
                "read of migrated key {k} lost the handed-off state"
            );
            let (shard, local) = sys.placement(id).expect("placed");
            assert!(local.is_some());
            assert_eq!(shard, 2, "migrated key {k} must be served by the new shard");
            assert_eq!(router.shard_of_key(&k), 2);
        }
        // And post-migration writes/reads on migrated keys work end-to-end.
        let k = &moving[0];
        let w2 = sys.submit(c, KvOp::put(k, "fresh"), &[], false);
        let r2 = sys.submit(c, KvOp::get(k), &[w2], false);
        sys.run_until_quiescent();
        assert_eq!(
            sys.response(r2),
            Some(&KvValue::Value(Some("fresh".into())))
        );
    }

    #[test]
    fn drain_shard_relocates_its_keyspace() {
        let mut sys = kv_sys(3, 13);
        let c = sys.add_client(0);
        for i in 0..30 {
            sys.submit(c, KvOp::put(format!("k{i}"), format!("v{i}")), &[], false);
        }
        sys.run_for(SimDuration::from_millis(60));
        sys.begin_drain_shard(1);
        sys.run_until_quiescent();
        assert!(!sys.migration_active());
        let router = sys.router();
        assert!(
            router.table().slots_of(1).is_empty(),
            "shard 1 still owns slots"
        );
        // Every key is still readable, none is routed to the drained shard.
        let mut reads = Vec::new();
        for i in 0..30 {
            reads.push((i, sys.submit(c, KvOp::get(format!("k{i}")), &[], false)));
        }
        sys.run_until_quiescent();
        for (i, id) in reads {
            let (shard, _) = sys.placement(id).expect("placed");
            assert_ne!(shard, 1, "k{i} still routed to the drained shard");
            assert_eq!(
                sys.response(id),
                Some(&KvValue::Value(Some(format!("v{i}")))),
                "k{i} lost during drain"
            );
        }
    }

    #[test]
    fn migration_waits_for_partitioned_source_replica() {
        use crate::system::FaultEvent;
        use esds_core::ReplicaId;
        let shard_cfg = SystemConfig::new(3)
            .with_seed(17)
            .with_retry(SimDuration::from_millis(40));
        let mut sys = ShardedSimSystem::new(KvStore, ShardedSystemConfig::new(2, shard_cfg));
        let c = sys.add_client(0);
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(sys.submit(c, KvOp::put(format!("k{i}"), "v"), &[], false));
        }
        sys.run_for(SimDuration::from_millis(30));
        // Isolate a replica of shard 0: its slots cannot stabilize, so a
        // migration touching them must hold.
        let t = sys.now();
        sys.shard_mut(0).schedule_fault(
            t + SimDuration::from_millis(1),
            FaultEvent::Isolate(ReplicaId(2)),
        );
        sys.shard_mut(0).schedule_fault(
            t + SimDuration::from_millis(400),
            FaultEvent::Reconnect(ReplicaId(2)),
        );
        sys.run_for(SimDuration::from_millis(20));
        sys.begin_add_shard();
        // While the partition lasts, the migration must not complete
        // (shard 0's ops cannot become stable everywhere).
        sys.run_until(t + SimDuration::from_millis(300));
        assert!(
            sys.migration_active(),
            "handoff must wait out the partition"
        );
        // After reconnection it completes and everything is answered.
        sys.run_until_quiescent();
        assert!(!sys.migration_active());
        for id in ids {
            assert_eq!(sys.response(id), Some(&KvValue::Ack));
        }
    }

    #[test]
    fn back_to_back_migrations_wait_for_replayed_prefix() {
        // Regression (found in review): the stability gate used to scan
        // only the client ticket map, so a second migration moving a
        // just-moved slot could replay from the new owner *before* the
        // previous handoff's replayed prefix had been processed there —
        // silently dropping the slot's state. The gate must consult the
        // source group's own request log, which includes replays.
        let mut sys = kv_sys(2, 29);
        let c = sys.add_client(0);
        for i in 0..24 {
            sys.submit(c, KvOp::put(format!("k{i}"), format!("v{i}")), &[], false);
        }
        sys.run_until_quiescent();
        // First handoff: completes synchronously (everything stable),
        // replaying the moved slots onto the brand-new shard 2 — whose
        // replica group has not even processed the requests yet.
        sys.begin_add_shard();
        assert!(!sys.migration_active(), "quiescent handoff is immediate");
        // Immediately drain shard 2, with NO quiescing in between: the
        // gate must hold until shard 2 has answered and stabilized the
        // replayed prefix it is about to pass on.
        sys.begin_drain_shard(2);
        sys.run_until_quiescent();
        assert_eq!(sys.table_version(), 2);
        let mut reads = Vec::new();
        for i in 0..24 {
            reads.push((i, sys.submit(c, KvOp::get(format!("k{i}")), &[], false)));
        }
        sys.run_until_quiescent();
        for (i, id) in reads {
            let (shard, _) = sys.placement(id).expect("placed");
            assert_ne!(shard, 2, "k{i} still routed to the drained shard");
            assert_eq!(
                sys.response(id),
                Some(&KvValue::Value(Some(format!("v{i}")))),
                "k{i} lost in back-to-back handoffs"
            );
        }
    }

    #[test]
    fn drain_back_to_former_owner_does_not_double_apply() {
        // Regression (found in review): a drain can return a slot to a
        // former owner whose group still holds the slot's original
        // history. Replaying the full timeline there would re-apply it —
        // invisible for last-writer-wins kv, but a bank deposit counted
        // twice. Only the timeline suffix beyond the shared prefix may
        // be replayed.
        let cfg = ShardedSystemConfig::new(2, SystemConfig::new(2).with_seed(33));
        let mut sys = ShardedSimSystem::new(Bank, cfg);
        let c = sys.add_client(0);
        let d = sys.submit(c, BankOp::Deposit(50), &[], false);
        sys.run_until_quiescent();
        let (owner, _) = sys.placement(d).expect("placed");
        let other = 1 - owner;
        // Send the bank's slot away, deposit more there, then send it
        // home: the former owner must apply only the new deposit.
        sys.begin_drain_shard(owner);
        sys.run_until_quiescent();
        let d2 = sys.submit(c, BankOp::Deposit(25), &[], false);
        sys.run_until_quiescent();
        assert_eq!(sys.placement(d2).map(|(s, _)| s), Some(other));
        sys.begin_drain_shard(other);
        sys.run_until_quiescent();
        assert_eq!(sys.table_version(), 2);
        let b = sys.submit(c, BankOp::Balance, &[], false);
        sys.run_until_quiescent();
        assert_eq!(sys.placement(b).map(|(s, _)| s), Some(owner));
        assert_eq!(
            sys.response(b),
            Some(&BankValue::Balance(75)),
            "history double-applied on return to the former owner"
        );
    }

    #[test]
    fn migration_waits_for_crashed_replica_in_idle_source() {
        // Regression (found in review): a source group with a crashed
        // replica but *no operations on the migrating slots* used to
        // pass the stability gate vacuously, then panic extracting its
        // stable prefix. The gate must treat liveness of every involved
        // group as part of the handoff precondition and simply wait.
        use crate::system::FaultEvent;
        use esds_core::ReplicaId;
        let cfg = ShardedSystemConfig::new(
            2,
            SystemConfig::new(3)
                .with_seed(37)
                .with_retry(SimDuration::from_millis(40)),
        );
        let mut sys = ShardedSimSystem::new(KvStore, cfg);
        let c = sys.add_client(0);
        // Route all traffic to shard 0's keyspace: shard 1 stays empty.
        let router = sys.router();
        let keys: Vec<String> = (0..200)
            .map(|i| format!("k{i}"))
            .filter(|k| router.shard_of_key(k) == 0)
            .take(6)
            .collect();
        for k in &keys {
            sys.submit(c, KvOp::put(k, "v"), &[], false);
        }
        sys.run_until_quiescent();
        // Crash a replica of the idle shard 1, then start a migration
        // that donates some of shard 1's (empty) slots.
        let t = sys.now();
        sys.shard_mut(1).schedule_fault(
            t + SimDuration::from_millis(1),
            FaultEvent::Crash(ReplicaId(2)),
        );
        sys.run_for(SimDuration::from_millis(10));
        sys.begin_add_shard();
        sys.run_for(SimDuration::from_millis(200));
        assert!(
            sys.migration_active(),
            "handoff must wait out the crashed replica, not panic"
        );
        let recover_at = sys.now() + SimDuration::from_millis(1);
        sys.shard_mut(1)
            .schedule_fault(recover_at, FaultEvent::Recover(ReplicaId(2)));
        sys.run_until_quiescent();
        assert!(!sys.migration_active());
        assert_eq!(sys.table_version(), 1);
        for k in &keys {
            let id = sys.submit(c, KvOp::get(k), &[], false);
            sys.run_until_quiescent();
            assert_eq!(sys.response(id), Some(&KvValue::Value(Some("v".into()))));
        }
    }

    #[test]
    fn sequential_migrations_compound() {
        // Add a shard, then drain the original home shard: slots that
        // migrated once migrate again, replaying the replayed prefix.
        let mut sys = kv_sys(2, 19);
        let c = sys.add_client(0);
        for i in 0..20 {
            sys.submit(c, KvOp::put(format!("k{i}"), format!("v{i}")), &[], false);
        }
        sys.run_for(SimDuration::from_millis(40));
        sys.begin_add_shard();
        sys.run_until_quiescent();
        assert_eq!(sys.table_version(), 1);
        sys.begin_drain_shard(0);
        sys.run_until_quiescent();
        assert_eq!(sys.table_version(), 2);
        let mut reads = Vec::new();
        for i in 0..20 {
            reads.push((i, sys.submit(c, KvOp::get(format!("k{i}")), &[], false)));
        }
        sys.run_until_quiescent();
        for (i, id) in reads {
            let (shard, _) = sys.placement(id).expect("placed");
            assert_ne!(shard, 0);
            assert_eq!(
                sys.response(id),
                Some(&KvValue::Value(Some(format!("v{i}")))),
                "k{i} lost across two migrations"
            );
        }
    }
}
