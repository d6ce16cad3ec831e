//! The threaded **sharded** deployment: one [`RuntimeService`] (replica
//! threads + network thread) per shard, behind a single client handle —
//! with **live rebalancing** by slot migration, the one thing only this
//! runtime does under real concurrency.
//!
//! Routing, cross-shard `prev`, scatter-gather with its barrier-strict
//! mode, and frozen-slot deferral are `esds_core::ShardCoordinator`'s
//! (see its docs); this module is its **driver** for real threads. Every
//! [`ShardedClient`] keeps a coordinator of its own plus one front end
//! and one inspect handle per shard, and keeps its public calls blocking
//! by looping *observe → input → poll → execute* until the operation it
//! was asked about is released (`submit`) or answered
//! (`await_response`): answers are polled off the front ends, stability
//! probes are answered from the shard's replicas (the union of their
//! local orders over-approximates the answered frontier, which only
//! strengthens a barrier; the intersection of what each knows stable
//! everywhere is what the whole group knows), and a blocked `submit`
//! waits on the front end of the predecessor the coordinator names.
//!
//! ## Table versions and in-flight operations
//!
//! The table, the frozen slots and the applied plans are **shared**
//! between the service and every handle. A handle brings its coordinator
//! up to date (`flip` per missed plan, `freeze`), polls it, and registers
//! every released operation against its slot, all under the shared lock.
//! A migration ([`ShardedService::add_shard`]) can therefore never catch
//! an operation "routed with a stale table": it freezes the migrating
//! slots first (operations on them stay pending in their coordinators
//! until the flip), then waits for every registered in-flight operation
//! on those slots to be answered. Operations in flight at freeze time
//! keep their original owner, which still answers them — and because the
//! handoff waits for them *and* for their stability, their effects are
//! part of the stable prefix that is replayed onto the new owner. A
//! gather holds every slot, so a migration and a gather serialize.
//!
//! The handoff is the same four-phase state machine as the simulated
//! layer (freeze → replay stable prefix → flip → drain), with the replay
//! chained by `prev` and its final link submitted **strict**, so the
//! transferred state is stable at every replica of the receiving group
//! before any client request is allowed to route there (which is why the
//! flip passes the coordinators no replay anchors).
//!
//! One liveness requirement follows from client-side response tracking:
//! every submission must eventually be awaited (or another call made on
//! its handle) so the client can observe the response and deregister the
//! operation; a handle that submits to a migrating slot and then goes
//! silent forever holds the migration until its timeout.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use esds_alg::Replica;
use esds_core::{
    Blocker, ClientId, Effect, KeyedDataType, MigrationPlan, OpId, RoutingTable, ShardCoordinator,
    ShardedOpId,
};

use crate::service::{DurableReplica, InspectHandle, RuntimeClient, RuntimeConfig, RuntimeService};

/// How long a submitting client waits out a foreign-shard `prev` (or a
/// frozen slot, or a barrier) before declaring the deployment broken.
const CROSS_SHARD_WAIT: Duration = Duration::from_secs(30);

/// Timeout for a migration's drain, stability and replay phases.
const MIGRATION_TIMEOUT: Duration = Duration::from_secs(30);

/// Routing state shared by the service and every client handle.
struct RouteState {
    table: RoutingTable,
    /// Every plan applied to `table`, index = the version it was computed
    /// against — what a handle's coordinator replays to catch up.
    plans: Vec<MigrationPlan>,
    /// Slots frozen by an in-progress migration.
    frozen: BTreeSet<u16>,
    /// In-flight (released, response not yet observed) operations per
    /// slot. A migration waits for its slots to drain to zero.
    inflight: BTreeMap<u16, u64>,
}

struct RoutingShared {
    state: Mutex<RouteState>,
    cv: Condvar,
}

/// The slots an in-flight registration holds: its own, or (a gather,
/// `None`) all of them.
fn held_slots(slot: Option<u16>, table: &RoutingTable) -> std::ops::Range<u16> {
    match slot {
        Some(s) => s..s + 1,
        None => 0..table.n_slots(),
    }
}

/// Front ends (and inspect handles, for the gather barrier) created for
/// existing client handles when a shard is added, waiting to be picked
/// up: `client id → [(shard, front end, inspect handle)]`.
type Mailbox<T> = Arc<Mutex<BTreeMap<u32, Vec<(u32, RuntimeClient<T>, InspectHandle<T>)>>>>;

/// The running sharded service: `S` independent replica groups, each on
/// its own replica and network threads, behind a shared, versioned
/// routing table.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use esds_datatypes::{KvOp, KvStore, KvValue};
/// use esds_runtime::{RuntimeConfig, ShardedService};
///
/// let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
/// let mut client = svc.client();
/// let put = client.submit(KvOp::put("user:1", "ada"), &[], false);
/// let get = client.submit(KvOp::get("user:1"), &[put], false);
/// let v = client.await_response(get, Duration::from_secs(10));
/// assert_eq!(v, Some(KvValue::Value(Some("ada".into()))));
/// svc.shutdown();
/// ```
pub struct ShardedService<T: KeyedDataType> {
    dt: T,
    config: RuntimeConfig,
    shards: Vec<RuntimeService<T>>,
    routing: Arc<RoutingShared>,
    mailbox: Mailbox<T>,
    /// The identity of every client handle created so far, ascending.
    handles: Vec<ClientId>,
}

impl<T> ShardedService<T>
where
    T: KeyedDataType + Clone + Send + 'static,
    T::Operator: Send + Clone,
    T::Value: Send + Clone,
    T::State: Send,
{
    /// Starts `n_shards` independent replica groups, each configured by
    /// `config`, with the initial uniform routing table (version 0).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or `config.n_replicas` is zero.
    pub fn start(dt: T, n_shards: usize, config: RuntimeConfig) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let shards = (0..n_shards)
            .map(|_| RuntimeService::start(dt.clone(), config.clone()))
            .collect();
        Self::with_shards(dt, config, shards)
    }

    /// Starts a sharded service over **pre-built** replica groups, each
    /// replica paired with its durable backend — the restart-from-disk
    /// entry point: the caller recovers every `(shard, replica)` store
    /// and hands the recovered replicas here, outer index = shard. Each
    /// replica syncs every input before releasing its effects; a persist
    /// failure stops that replica's thread, as if its machine had lost
    /// power. New front ends are numbered above every client identity
    /// brought back from disk. Shards added later by
    /// [`ShardedService::add_shard`] are volatile (no backend); persist
    /// them by restarting the service durably.
    ///
    /// # Panics
    ///
    /// Panics if `shard_replicas` is empty or any group's size differs
    /// from `config.n_replicas`.
    pub fn start_durable(
        dt: T,
        config: RuntimeConfig,
        shard_replicas: Vec<Vec<DurableReplica<T>>>,
    ) -> Self {
        assert!(!shard_replicas.is_empty(), "need at least one shard");
        let shards = shard_replicas
            .into_iter()
            .map(|reps| RuntimeService::start_durable(config.clone(), reps))
            .collect();
        Self::with_shards(dt, config, shards)
    }

    fn with_shards(dt: T, config: RuntimeConfig, mut shards: Vec<RuntimeService<T>>) -> Self {
        // One ClientId per handle, valid in every group — the coordinator
        // mints per-shard identifiers from it. Groups recovered from disk
        // floor their identities independently, so level them.
        let floor = shards
            .iter()
            .map(|s| s.next_client_id())
            .max()
            .expect("at least one shard");
        for s in &mut shards {
            s.skip_client_ids_below(floor);
        }
        ShardedService {
            routing: Arc::new(RoutingShared {
                state: Mutex::new(RouteState {
                    table: RoutingTable::uniform(shards.len() as u32),
                    plans: Vec::new(),
                    frozen: BTreeSet::new(),
                    inflight: BTreeMap::new(),
                }),
                cv: Condvar::new(),
            }),
            mailbox: Arc::new(Mutex::new(BTreeMap::new())),
            handles: Vec::new(),
            dt,
            config,
            shards,
        }
    }

    /// The current routing table (a snapshot — the live table is shared
    /// with every client and advances on migrations).
    pub fn table(&self) -> RoutingTable {
        self.routing
            .state
            .lock()
            .expect("routing lock")
            .table
            .clone()
    }

    /// The current table version (how many migrations have completed).
    pub fn table_version(&self) -> u64 {
        self.table().version()
    }

    /// Number of shards (including drained ones).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Creates a client with a front end in **every** shard, under one
    /// [`ClientId`] (its global identity and, in each group, its local
    /// one).
    pub fn client(&mut self) -> ShardedClient<T> {
        let fes: Vec<RuntimeClient<T>> = self.shards.iter_mut().map(|s| s.client()).collect();
        let inspects: Vec<InspectHandle<T>> =
            self.shards.iter().map(|s| s.inspect_handle()).collect();
        let id = fes[0].client();
        assert!(
            fes.iter().all(|fe| fe.client() == id),
            "per-group client ids diverged; create clients only through ShardedService"
        );
        self.handles.push(id);
        ShardedClient {
            coord: ShardCoordinator::new(self.dt.clone(), self.table()),
            routing: self.routing.clone(),
            mailbox: self.mailbox.clone(),
            id,
            fes,
            inspects,
            unsettled: BTreeMap::new(),
            probes: BTreeSet::new(),
        }
    }

    /// An [`InspectHandle`] onto one shard's replica group — what a
    /// barrier-cut audit needs to obtain the shard's eventual order.
    #[cfg(test)]
    fn inspect_handle(&self, shard: u32) -> InspectHandle<T> {
        self.shards[shard as usize].inspect_handle()
    }

    /// Adds a shard and live-migrates ~`1/(S+1)` of the slots onto it
    /// (freeze → replay stable prefix → flip → drain; see module docs).
    /// Blocks until the handoff completes and returns the new shard's id.
    /// Existing client handles pick up their new front end automatically
    /// on their next call.
    ///
    /// # Panics
    ///
    /// Panics if in-flight operations on the migrating slots are not
    /// settled, or the replayed prefix does not stabilize, within the
    /// migration timeout.
    pub fn add_shard(&mut self) -> u32 {
        let plan = {
            let st = self.routing.state.lock().expect("routing lock");
            assert!(st.frozen.is_empty(), "a migration is already in progress");
            MigrationPlan::add_shard(&st.table)
        };
        let new_idx = self.shards.len() as u32;
        // Start the receiving group and pre-create a front end in it for
        // every existing client handle (picked up lazily via the mailbox),
        // under the handle's own identity.
        let mut svc = RuntimeService::start(self.dt.clone(), self.config.clone());
        {
            let mut mb = self.mailbox.lock().expect("mailbox lock");
            for id in &self.handles {
                svc.skip_client_ids_below(id.0);
                mb.entry(id.0)
                    .or_default()
                    .push((new_idx, svc.client(), svc.inspect_handle()));
            }
        }
        // The migration's own front end for the stable-prefix replay,
        // numbered above every identity the old groups have issued; they
        // skip it, so the next handle is again one id everywhere.
        let next = self.shards[0].next_client_id();
        svc.skip_client_ids_below(next);
        let mut mfe = svc.client();
        for s in &mut self.shards {
            s.skip_client_ids_below(next + 1);
        }
        self.shards.push(svc);

        let slots = plan.slots();
        let deadline = Instant::now() + MIGRATION_TIMEOUT;
        // Phase 1: freeze. Operations on migrating slots now stay pending
        // in their handles' coordinators.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            st.frozen = slots.clone();
        }
        // Wait for registered in-flight operations on those slots to be
        // answered and observed by their clients.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            while slots
                .iter()
                .any(|s| st.inflight.get(s).copied().unwrap_or(0) > 0)
            {
                assert!(
                    Instant::now() < deadline,
                    "migration timed out: in-flight operations on migrating slots were never \
                     settled (every submission must eventually be awaited)"
                );
                let (guard, _) = self
                    .routing
                    .cv
                    .wait_timeout(st, Duration::from_millis(10))
                    .expect("routing lock");
                st = guard;
            }
        }
        // Phase 2 gate: wait until every replica of every source group
        // has the migrating slots' operations stable everywhere — the
        // slots' serialization is then final and fully transferable.
        // Probed with the allocation-light `count_unstable` (the full
        // snapshot is fetched exactly once afterwards, for the replay),
        // so polling does not stall busy replica threads on copying
        // their history.
        let table = self.table();
        let sources: BTreeSet<u32> = plan.moves().iter().map(|m| m.from).collect();
        let make_filter = || -> crate::service::OpFilter<T> {
            let dt = self.dt.clone();
            let table = table.clone();
            let slots = slots.clone();
            Box::new(move |op| slots.contains(&table.slot_of(&dt, op)))
        };
        loop {
            let pending = sources.iter().any(|src| {
                let group = &self.shards[*src as usize];
                (0..group.n_replicas()).any(|r| group.count_unstable(r, make_filter()) > 0)
            });
            if !pending {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "migration timed out waiting for slot stability in the source groups"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Phase 2: replay each slot's stable prefix in its final order,
        // chained with prev; the last link is strict so the transferred
        // state is stable at every replica of the new group before any
        // client request routes there. One full snapshot per *source
        // shard* (not per move — an add-shard plan has ~256/(S+1) moves
        // but at most S sources), taken after the gate passed, so the
        // history is cloned a bounded number of times. The receiving
        // group is brand new and empty, so the whole prefix is the delta
        // (unlike the simulated layer's drain path, nothing can already
        // hold a slice of the slot's timeline here).
        let snapshots: BTreeMap<u32, crate::service::ReplicaSnapshot<T>> = sources
            .iter()
            .map(|src| (*src, self.shards[*src as usize].snapshot(0)))
            .collect();
        for mv in plan.moves() {
            let snap = &snapshots[&mv.from];
            let prefix: Vec<T::Operator> = snap
                .order
                .iter()
                .filter(|id| {
                    snap.stable_everywhere.contains(id)
                        && table.slot_of(&self.dt, &snap.ops[id]) == mv.slot
                })
                .map(|id| snap.ops[id].clone())
                .collect();
            let mut anchor: Option<OpId> = None;
            let n = prefix.len();
            for (i, op) in prefix.into_iter().enumerate() {
                let prev: Vec<OpId> = anchor.into_iter().collect();
                anchor = Some(mfe.submit(op, &prev, i + 1 == n));
            }
            if let Some(a) = anchor {
                assert!(
                    mfe.await_response(a, deadline.saturating_duration_since(Instant::now()))
                        .is_some(),
                    "replayed stable prefix of slot {} did not stabilize on the new shard",
                    mv.slot
                );
            }
        }
        // Phase 3 + 4: flip the table and unfreeze; every handle's next
        // step replays the plan into its coordinator.
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            st.table.apply(&plan);
            st.plans.push(plan);
            st.frozen.clear();
        }
        self.routing.cv.notify_all();
        new_idx
    }

    /// Stops every shard and returns the final replica states per shard
    /// (outer index = shard, inner = replica within the group).
    pub fn shutdown(self) -> Vec<Vec<Replica<T>>> {
        self.shards.into_iter().map(|s| s.shutdown()).collect()
    }

    /// Kills every shard abruptly — the threaded stand-in for `kill -9`
    /// of the whole deployment: no final checkpoint or flush, replica
    /// states discarded, on-disk images left exactly as the last
    /// per-input syncs wrote them, so a later
    /// [`ShardedService::start_durable`] over the same directories
    /// exercises the real recovery path.
    pub fn kill(self) {
        for s in self.shards {
            s.kill();
        }
    }
}

/// A client handle of a [`ShardedService`]: one front end per shard,
/// multiplexed behind global [`ShardedOpId`]s by a coordinator of its
/// own.
///
/// The handle resolves only identifiers it issued itself; `prev` sets may
/// reference any of this client's earlier submissions (the common case —
/// a front end only ever learns identifiers it requested, paper §6.2).
pub struct ShardedClient<T: KeyedDataType> {
    coord: ShardCoordinator<T>,
    routing: Arc<RoutingShared>,
    mailbox: Mailbox<T>,
    id: ClientId,
    fes: Vec<RuntimeClient<T>>,
    /// One inspect handle per shard — stability probes read answered
    /// frontiers and stability through these.
    inspects: Vec<InspectHandle<T>>,
    /// Operations registered in-flight in the shared table, with the slot
    /// they hold there (see [`held_slots`]).
    unsettled: BTreeMap<ShardedOpId, Option<u16>>,
    /// Stability probes the next step answers.
    probes: BTreeSet<u32>,
}

impl<T: KeyedDataType> ShardedClient<T>
where
    T::Operator: Clone,
    T::Value: Clone,
{
    /// The client identity (global and, in every group, local).
    pub fn client(&self) -> ClientId {
        self.id
    }

    /// The routing-table version this handle currently observes.
    pub fn table_version(&self) -> u64 {
        self.routing
            .state
            .lock()
            .expect("routing lock")
            .table
            .version()
    }

    /// Picks up front ends for shards added since this handle last
    /// looked (created by [`ShardedService::add_shard`]).
    fn sync_shards(&mut self) {
        let mut mb = self.mailbox.lock().expect("mailbox lock");
        if let Some(pending) = mb.get_mut(&self.id.0) {
            pending.sort_by_key(|(s, _, _)| *s);
            for (s, fe, ih) in pending.drain(..) {
                assert_eq!(
                    s as usize,
                    self.fes.len(),
                    "shard front ends must arrive in order"
                );
                self.fes.push(fe);
                self.inspects.push(ih);
            }
        }
    }

    /// One driver round: feed the coordinator the answers and stability
    /// reports that have arrived, bring it up to the shared table, poll
    /// it, and execute its effects.
    fn step(&mut self) {
        for fe in &mut self.fes {
            fe.poll_responses();
        }
        let answered: Vec<(u32, OpId, T::Value)> = self
            .coord
            .outstanding()
            .filter_map(|(s, l)| Some((s, l, self.fes[s as usize].value_of(l)?.clone())))
            .collect();
        for (s, l, v) in answered {
            self.coord.on_answer(s, l, v, None);
        }
        for shard in std::mem::take(&mut self.probes) {
            self.report_stability(shard);
        }
        // Under the shared lock the routing decision, the table version
        // it was made under and the in-flight registration are one atomic
        // step: a migration can never observe an operation as "routed but
        // unregistered" (no stale-table submissions, ever). Deregistering
        // here too means a handle blocked in `submit` on a frozen slot
        // still settles what the migration is waiting on.
        let mut sends = Vec::new();
        let mut settled = false;
        {
            let mut st = self.routing.state.lock().expect("routing lock");
            for plan in &st.plans[self.coord.table().version() as usize..] {
                self.coord.flip(plan, []);
            }
            if *self.coord.frozen() != st.frozen {
                self.coord.freeze(st.frozen.clone());
            }
            for e in self.coord.poll() {
                match e {
                    Effect::Send {
                        shard,
                        global,
                        desc,
                        ..
                    } => {
                        if !self.unsettled.contains_key(&global) {
                            let slot = self
                                .coord
                                .gather_detail(global)
                                .is_none()
                                .then(|| self.coord.slot_of(&desc.op));
                            for s in held_slots(slot, self.coord.table()) {
                                *st.inflight.entry(s).or_default() += 1;
                            }
                            self.unsettled.insert(global, slot);
                        }
                        sends.push((shard, desc));
                    }
                    Effect::ProbeStability { shard } => {
                        self.probes.insert(shard);
                    }
                    Effect::Answered { global } => {
                        let slot = self.unsettled.remove(&global).expect("registered at send");
                        for s in held_slots(slot, self.coord.table()) {
                            *st.inflight.get_mut(&s).expect("registered at send") -= 1;
                        }
                        settled = true;
                    }
                }
            }
        }
        if settled {
            self.routing.cv.notify_all();
        }
        // The table may have grown since this handle last synced.
        self.sync_shards();
        for (shard, desc) in sends {
            let prev: Vec<OpId> = desc.prev.into_iter().collect();
            let local = self.fes[shard as usize].submit(desc.op, &prev, desc.strict);
            assert_eq!(
                local, desc.id,
                "shard {shard}'s front end and the coordinator count in lockstep"
            );
        }
    }

    /// Answers a stability probe from `shard`'s replicas (see the module
    /// docs). A replica that no longer answers has shut down under us
    /// and is skipped: nothing is left to wait for there.
    fn report_stability(&mut self, shard: u32) {
        let h = &self.inspects[shard as usize];
        let mut order: BTreeSet<OpId> = BTreeSet::new();
        let mut stable: Option<BTreeSet<OpId>> = None;
        for snap in (0..h.n_replicas()).filter_map(|r| h.snapshot(r)) {
            order.extend(snap.order);
            stable = Some(match stable {
                Some(s) => &s & &snap.stable_everywhere,
                None => snap.stable_everywhere,
            });
        }
        self.coord.on_stability(
            shard,
            order.into_iter().collect(),
            &stable.unwrap_or_default(),
        );
    }

    /// Submits an operation and returns its global id once it has been
    /// handed to its shard (for a whole-object query: scattered to every
    /// involved shard). Blocks — never rejects, never routes stale —
    /// while its slot is frozen by a migration, while a foreign-shard
    /// `prev` entry is unanswered, and while a strict whole-object
    /// query's barrier stabilizes; same-shard `prev` entries ride the
    /// group's own protocol.
    ///
    /// # Panics
    ///
    /// Panics if `prev` names an id this handle did not issue, or if the
    /// operation is still blocked after the 30 s cross-shard timeout
    /// (the deployment is then considered broken — the same situation in
    /// which [`ShardedClient::await_response`] would return `None`).
    pub fn submit(&mut self, op: T::Operator, prev: &[ShardedOpId], strict: bool) -> ShardedOpId {
        self.sync_shards();
        let gid = self.coord.submit(self.id, op, prev, strict);
        let deadline = Instant::now() + CROSS_SHARD_WAIT;
        // A barrier's first probes are answered by the very next step.
        let mut probed = false;
        loop {
            self.step();
            if self.coord.is_released(gid) {
                return gid;
            }
            let blocker = self.coord.blocked_on(gid);
            let remaining = deadline.saturating_duration_since(Instant::now());
            assert!(
                !remaining.is_zero(),
                "{gid} still blocked on {blocker:?} after {:?} (cross-shard predecessor \
                 unanswered, or migration stuck?)",
                CROSS_SHARD_WAIT
            );
            match blocker {
                Some(Blocker::Unanswered { shard, local }) => {
                    self.fes[shard as usize].await_response(local, remaining);
                }
                Some(Blocker::Barrier) if !std::mem::replace(&mut probed, true) => {}
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Waits until `id` is answered or `timeout` elapses (with the
    /// underlying front end's retry behaviour). An operation submitted
    /// before a migration of its slot is still answered by its original
    /// group — the handoff waits for it, so its effect is part of the
    /// transferred stable prefix.
    pub fn await_response(&mut self, id: ShardedOpId, timeout: Duration) -> Option<T::Value> {
        let deadline = Instant::now() + timeout;
        let waits: Vec<(u32, OpId)> = match self.coord.gather_detail(id) {
            Some((subs, _)) => subs.iter().map(|(s, l)| (*s, *l)).collect(),
            None => {
                let (shard, local) = self.coord.placement(id)?;
                vec![(shard, local?)]
            }
        };
        for (s, l) in waits {
            let remaining = deadline.saturating_duration_since(Instant::now());
            self.fes[s as usize].await_response(l, remaining)?;
        }
        self.step();
        self.coord.value_of(id).cloned()
    }

    /// The value previously returned for `id`, if completed. For a
    /// gathered query this is the merged answer, available once the
    /// handle has observed every sub-operation's response (via
    /// [`ShardedClient::await_response`] or any later call).
    pub fn value_of(&self, id: ShardedOpId) -> Option<&T::Value> {
        match self.coord.placement(id) {
            Some((shard, local)) => self.fes[shard as usize].value_of(local?),
            None => self.coord.value_of(id),
        }
    }

    /// The shard `id` was routed to, if issued by this handle. `None`
    /// for a gathered query (it has no single shard — see
    /// [`ShardedClient::gather_detail`]).
    pub fn shard_of(&self, id: ShardedOpId) -> Option<u32> {
        self.coord.placement(id).map(|(s, _)| s)
    }

    /// For a gathered query issued by this handle: its per-shard
    /// sub-operations and, in barrier-strict mode, the per-shard answered
    /// frontier snapshotted at the barrier (empty map = eventual mode).
    /// Pairs each shard's entries into the `esds_spec::ShardBarrier`
    /// shape that `esds_spec::check_barrier_cut` verifies against the
    /// shard's eventual order. `None` for keyed operations.
    #[allow(clippy::type_complexity)]
    pub fn gather_detail(
        &self,
        id: ShardedOpId,
    ) -> Option<(&BTreeMap<u32, OpId>, &BTreeMap<u32, Vec<OpId>>)> {
        self.coord.gather_detail(id)
    }

    /// The shard-local [`OpId`] `id` was submitted under — the identity
    /// the owning group's replicas (and any per-shard audit trail) know
    /// the operation by. `None` if this handle never issued `id`.
    pub fn local_id(&self, id: ShardedOpId) -> Option<OpId> {
        self.coord.placement(id).and_then(|(_, l)| l)
    }

    /// The routing-table version `id` was routed under, if issued by
    /// this handle. An id with `routed_version(id) < table_version()`
    /// was submitted before a later migration; its response remains
    /// valid because migrations wait for in-flight operations before
    /// transferring their slots.
    pub fn routed_version(&self, id: ShardedOpId) -> Option<u64> {
        self.coord.routed_version(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_datatypes::{KvOp, KvStore, KvValue};

    #[test]
    fn sharded_runtime_roundtrip_and_isolation() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push((
                i,
                c.submit(KvOp::put(format!("k{i}"), format!("{i}")), &[], false),
            ));
        }
        for (i, id) in &ids {
            let v = c.await_response(*id, Duration::from_secs(10));
            assert_eq!(v, Some(KvValue::Ack), "put k{i} timed out");
        }
        // Reads see their own shard's writes.
        for (i, _) in &ids {
            let get = c.submit(KvOp::get(format!("k{i}")), &[], false);
            let v = c.await_response(get, Duration::from_secs(10));
            assert_eq!(v, Some(KvValue::Value(Some(format!("{i}")))));
        }
        // Both shards actually received traffic (10 keys over 2 shards).
        let shards: std::collections::BTreeSet<u32> = (0..10)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        svc.shutdown();
    }

    #[test]
    fn cross_shard_prev_waits_for_response() {
        let mut svc = ShardedService::start(KvStore, 4, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        // Two keys on different shards.
        let ka = "a".to_string();
        let kb = (0..100)
            .map(|i| format!("b{i}"))
            .find(|k| table.shard_of_key(k) != table.shard_of_key(&ka))
            .expect("some key lands elsewhere");
        let wa = c.submit(KvOp::put(&ka, "1"), &[], false);
        // Submitting with a cross-shard prev blocks until wa is answered,
        // so by the time submit returns, wa's value is known.
        let wb = c.submit(KvOp::put(&kb, "2"), &[wa], false);
        assert_eq!(c.value_of(wa), Some(&KvValue::Ack));
        assert_ne!(c.shard_of(wa), c.shard_of(wb));
        let v = c.await_response(wb, Duration::from_secs(10));
        assert_eq!(v, Some(KvValue::Ack));
        svc.shutdown();
    }

    #[test]
    fn transitive_prev_through_foreign_hop_is_inherited() {
        // Chain A (shard s) ← B (foreign) ← C (shard s): C must carry
        // A's ordering into the shard even though its only direct prev
        // is foreign. Slow gossip keeps A from propagating on its own.
        let mut cfg = RuntimeConfig::new(2);
        cfg.gossip_interval = Duration::from_secs(5);
        let mut svc = ShardedService::start(KvStore, 4, cfg);
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
        let v = c.await_response(read, Duration::from_secs(10));
        assert_eq!(v, Some(KvValue::Value(Some("1".into()))));
        svc.shutdown();
    }

    #[test]
    fn strict_ops_work_per_shard() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        let put = c.submit(KvOp::put("x", "1"), &[], true);
        let v = c.await_response(put, Duration::from_secs(30));
        assert_eq!(v, Some(KvValue::Ack));
        let get = c.submit(KvOp::get("x"), &[put], true);
        let v = c.await_response(get, Duration::from_secs(30));
        assert_eq!(v, Some(KvValue::Value(Some("1".into()))));
        svc.shutdown();
    }

    #[test]
    fn add_shard_hands_off_state_live() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        assert_eq!(c.table_version(), 0);
        // Populate, then rebalance onto a third group.
        let mut ids = Vec::new();
        for i in 0..16 {
            ids.push(c.submit(KvOp::put(format!("k{i}"), format!("v{i}")), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        let new = svc.add_shard();
        assert_eq!(new, 2);
        assert_eq!(svc.table_version(), 1);
        let table = svc.table();
        assert!(
            !table.slots_of(2).is_empty(),
            "new shard must own slots after the migration"
        );
        // Every key is still readable — including those now owned by the
        // new shard, which must serve the replayed stable prefix.
        let mut migrated = 0;
        for i in 0..16 {
            let k = format!("k{i}");
            let get = c.submit(KvOp::get(&k), &[], false);
            assert_eq!(c.table_version(), 1);
            let v = c.await_response(get, Duration::from_secs(10));
            assert_eq!(
                v,
                Some(KvValue::Value(Some(format!("v{i}")))),
                "{k} lost in the handoff"
            );
            if c.shard_of(get) == Some(2) {
                migrated += 1;
                assert_eq!(c.routed_version(get), Some(1));
            }
        }
        assert!(migrated > 0, "no test key migrated; widen the key set");
        // Pre-migration ids report the version they were routed under.
        assert_eq!(c.routed_version(ids[0]), Some(0));
        svc.shutdown();
    }

    #[test]
    fn whole_object_keys_gathers_union_across_shards() {
        // Regression pin for the wrong-partial-answer bug: before
        // scatter-gather, `Keys` routed to the HOME_SLOT owner and
        // returned only that shard's slice. Reverting to home routing
        // fails the equality below.
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let table = svc.table();
        let mut c = svc.client();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for i in 0..16 {
            let k = format!("k{i}");
            expect.push(k.clone());
            ids.push(c.submit(KvOp::put(&k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        // Both shards own keys, so a home-shard answer would be a strict
        // subset of the union.
        let shards: std::collections::BTreeSet<u32> = (0..16)
            .map(|i| table.shard_of_key(&format!("k{i}")))
            .collect();
        assert_eq!(shards.len(), 2);
        expect.sort();
        let keys = c.submit(KvOp::Keys, &[*ids.last().expect("nonempty")], false);
        assert_eq!(
            c.await_response(keys, Duration::from_secs(10)),
            Some(KvValue::Keys(expect))
        );
        assert_eq!(c.shard_of(keys), None, "a gather has no single shard");
        {
            let (subs, frontier) = c.gather_detail(keys).expect("gathered");
            assert_eq!(subs.len(), 2);
            assert!(frontier.is_empty(), "eventual mode takes no barrier");
        }
        // A dependent of the gather anchors on its same-shard sub-op.
        let dep = c.submit(KvOp::get("k0"), &[keys], false);
        assert_eq!(
            c.await_response(dep, Duration::from_secs(10)),
            Some(KvValue::Value(Some("v".into())))
        );
        svc.shutdown();
    }

    #[test]
    fn barrier_strict_keys_is_exact_and_cut_checks() {
        use esds_spec::{check_barrier_cut, ShardBarrier};
        let mut svc = ShardedService::start(KvStore, 4, RuntimeConfig::new(2));
        let mut c = svc.client();
        let mut expect = Vec::new();
        let mut ids = Vec::new();
        for i in 0..12 {
            let k = format!("k{i}");
            expect.push(k.clone());
            ids.push(c.submit(KvOp::put(&k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        expect.sort();
        let keys = c.submit(KvOp::Keys, &[], true);
        assert_eq!(
            c.await_response(keys, Duration::from_secs(30)),
            Some(KvValue::Keys(expect)),
            "barrier-strict Keys must be exactly the 1-shard union"
        );
        let (subs, frontier) = c.gather_detail(keys).expect("gathered");
        assert_eq!(subs.len(), 4);
        assert_eq!(frontier.len(), 4, "strict mode snapshots every shard");
        // The checkable residue of the barrier: on every shard, the
        // sub-op appears after the whole frontier in the shard's (stable,
        // hence eventual) order.
        for (shard, sub) in subs {
            let h = svc.inspect_handle(*shard);
            let deadline = Instant::now() + Duration::from_secs(30);
            let order = loop {
                let snap = h.snapshot(0).expect("service running");
                if snap.stable_everywhere.contains(sub) {
                    break snap.order;
                }
                assert!(Instant::now() < deadline, "sub-op never stabilized");
                std::thread::sleep(Duration::from_millis(5));
            };
            let b = ShardBarrier {
                shard: *shard,
                frontier: frontier[shard].clone(),
                sub: *sub,
            };
            assert_eq!(check_barrier_cut(&b, &order), vec![]);
        }
        svc.shutdown();
    }

    #[test]
    fn gather_serializes_with_add_shard_and_spans_new_shard() {
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        let mut c = svc.client();
        let mut expect: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let mut ids = Vec::new();
        for k in &expect {
            ids.push(c.submit(KvOp::put(k, "v"), &[], false));
        }
        for id in &ids {
            assert_eq!(
                c.await_response(*id, Duration::from_secs(10)),
                Some(KvValue::Ack)
            );
        }
        expect.sort();
        // A reader thread keeps gathering while the migration runs: every
        // answer must be the full union — never a partial slice from a
        // half-migrated table. Gathers register against every slot (the
        // migration drains them before freezing) and block while any slot
        // is frozen, so the two serialize instead of racing the flip.
        let exp = expect.clone();
        let reader = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let keys = c.submit(KvOp::Keys, &[], false);
                let v = c.await_response(keys, Duration::from_secs(10));
                assert_eq!(v, Some(KvValue::Keys(exp.clone())));
                if c.routed_version(keys) == Some(1) {
                    let (subs, _) = c.gather_detail(keys).expect("gathered");
                    assert_eq!(subs.len(), 3, "post-flip gathers span the new shard");
                    return;
                }
                assert!(
                    Instant::now() < deadline,
                    "never observed a post-flip gather"
                );
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let new = svc.add_shard();
        assert_eq!(new, 2);
        reader.join().expect("reader panicked");
        svc.shutdown();
    }

    #[test]
    fn writer_in_another_thread_survives_add_shard() {
        // A concurrent writer hammers a key that the migration will move;
        // the freeze blocks it (never rejects, never routes stale), and
        // after the flip its writes land on the new owner. The final read
        // must see the last write — nothing lost, nothing duplicated.
        let mut svc = ShardedService::start(KvStore, 2, RuntimeConfig::new(2));
        // Find a key the deterministic add-shard plan will migrate.
        let plan = MigrationPlan::add_shard(&svc.table());
        let table = svc.table();
        let hot = (0..1000)
            .map(|i| format!("hot{i}"))
            .find(|k| plan.slots().contains(&table.slot_of_key(k)))
            .expect("some key migrates");
        let mut writer = svc.client();
        let hot_w = hot.clone();
        let handle = std::thread::spawn(move || {
            let mut last = 0u32;
            for i in 0..200u32 {
                let id = writer.submit(KvOp::put(&hot_w, format!("{i}")), &[], false);
                assert_eq!(
                    writer.await_response(id, Duration::from_secs(10)),
                    Some(KvValue::Ack)
                );
                last = i;
            }
            last
        });
        // Let the writer get going, then migrate under it.
        std::thread::sleep(Duration::from_millis(30));
        let new = svc.add_shard();
        let last = handle.join().expect("writer panicked");
        assert_eq!(last, 199);
        // A fresh client reads the final value from the new owner.
        let mut reader = svc.client();
        let get = reader.submit(KvOp::get(&hot), &[], false);
        assert_eq!(reader.shard_of(get), Some(new));
        assert_eq!(
            reader.await_response(get, Duration::from_secs(10)),
            Some(KvValue::Value(Some("199".into())))
        );
        svc.shutdown();
    }
}
