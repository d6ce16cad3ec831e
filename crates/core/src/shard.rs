//! Keyspace partitioning for sharded deployments.
//!
//! The paper treats one serial data type replicated by one group of
//! replicas. The Section 10 commutativity insight — independent operations
//! can be applied in any order — holds *trivially* at a coarser grain:
//! operations on **disjoint objects** commute and are mutually oblivious,
//! whatever the data type's own algebra says. A service can therefore
//! hash-partition a keyed data type across `S` independent ESDS replica
//! groups ("shards"), each running the unmodified Section 6 algorithm on
//! its slice of the keyspace, and aggregate throughput scales with `S`
//! instead of plateauing at one group's gossip capacity.
//!
//! This module holds the vocabulary that the sharded layers
//! (`esds-harness`'s `ShardedSimSystem`, `esds-wire`'s
//! `ShardedWireService`) and the
//! [`ShardCoordinator`](crate::ShardCoordinator) they drive share:
//!
//! * [`KeyedDataType`] — a serial data type whose operators expose the
//!   partition key they touch;
//! * [`RoutingTable`] — the versioned `key → slot → shard` indirection
//!   that makes rebalancing possible: keys hash onto a fixed set of
//!   [`SLOT_COUNT`] slots, and only the small slot→shard map changes when
//!   shards are added or drained;
//! * [`MigrationPlan`] — the minimal set of slot moves taking one table
//!   to the next version (adding a shard relocates only ~`1/S` of the
//!   keyspace, never rehashing the rest);
//! * [`ShardRouter`] — the stable partitioner mapping keys to shards,
//!   routing through a [`RoutingTable`];
//! * [`ShardedOpId`] — operation identifiers in the *global* namespace of
//!   a sharded service (each shard keeps its own per-group [`OpId`](crate::OpId)s).
//!
//! Cross-shard `prev` constraints are enforced by the coordinator, not
//! here: a dependent operation is held back until every foreign-shard
//! predecessor has been *responded to* by its own group, after which the
//! constraint is vacuous for the state (disjoint objects commute) and the
//! client-observed order is preserved.
//!
//! The *data plane* of a slot migration lives in the deployment layer
//! (`harness::sharded`); this module only defines
//! the plan/table algebra they agree on. The unit of transfer is
//! a slot's **stable prefix**: once every operation of a slot is stable,
//! its effect order is final at every replica of the source group, so
//! replaying that prefix onto the receiving group reproduces exactly the
//! state every future strict or eventually-serialized response must
//! reflect — the paper's checkpoint-from-stable-state idea applied to
//! rebalancing instead of recovery.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::ClientId;
use crate::SerialDataType;

/// A serial data type whose operators name the partition of the object
/// state they touch, making the type shardable across independent replica
/// groups.
///
/// `shard_key` must be **stable** (the same operator always yields the
/// same key) and **complete**: two operators with different keys must be
/// independent in the [`crate::CommutativitySpec`] sense — they commute
/// and neither observes the other. Keys partition the object state; an
/// operator that touches the whole object (e.g. a list-all-keys query)
/// returns `None`. A keyless operator that additionally implements
/// [`KeyedDataType::merge_gathered`] is a **gatherable query**: the
/// sharded layers execute it as one read-only sub-operation per involved
/// shard and merge the partial answers. A keyless operator *without* a
/// merge is un-gatherable and the deployment layers must reject it
/// rather than answer from a single shard's slice.
///
/// # Examples
///
/// ```
/// use esds_core::{KeyedDataType, SerialDataType};
///
/// /// Two named counters, partitionable by name.
/// #[derive(Clone)]
/// struct Pair;
/// #[derive(Clone, PartialEq, Debug)]
/// enum PairOp { IncA, IncB }
/// impl SerialDataType for Pair {
///     type State = (i64, i64);
///     type Operator = PairOp;
///     type Value = i64;
///     fn initial_state(&self) -> (i64, i64) { (0, 0) }
///     fn apply(&self, s: &(i64, i64), op: &PairOp) -> ((i64, i64), i64) {
///         match op {
///             PairOp::IncA => ((s.0 + 1, s.1), s.0 + 1),
///             PairOp::IncB => ((s.0, s.1 + 1), s.1 + 1),
///         }
///     }
/// }
/// impl KeyedDataType for Pair {
///     fn shard_key<'a>(&self, op: &'a PairOp) -> Option<&'a str> {
///         Some(match op { PairOp::IncA => "a", PairOp::IncB => "b" })
///     }
/// }
/// ```
pub trait KeyedDataType: SerialDataType {
    /// The partition key `op` touches, or `None` for a whole-object
    /// operator that cannot be attributed to a single partition.
    fn shard_key<'a>(&self, op: &'a Self::Operator) -> Option<&'a str>;

    /// Merges the per-shard partial answers of a whole-object query into
    /// the answer a single unsharded deployment would have returned, or
    /// `None` if `op` cannot be gathered (the default: a keyless operator
    /// with no merge is rejected by the deployment layers instead of
    /// being mis-answered from one shard's slice).
    ///
    /// A gather supplies one `parts` entry per involved shard, in
    /// ascending shard order; [`KeyedDataType::is_gatherable`] probes
    /// with an empty list, so implementations must answer `Some` for any
    /// number of parts (zero included). A gatherable operator must be a
    /// **read-only query**: the sharded layers may re-scatter it
    /// (retries, NAK re-routes), so executing a sub-operation twice on
    /// the same shard must be observably idempotent — true of any
    /// mutation-free operator.
    fn merge_gathered(&self, op: &Self::Operator, parts: Vec<Self::Value>) -> Option<Self::Value> {
        let _ = (op, parts);
        None
    }

    /// Whether `op` is a whole-object query the sharded layers can
    /// scatter-gather (keyless *and* mergeable). Single-key operators
    /// return `false`: they route to exactly one shard.
    fn is_gatherable(&self, op: &Self::Operator) -> bool {
        self.shard_key(op).is_none() && self.merge_gathered(op, Vec::new()).is_some()
    }
}

/// 64-bit FNV-1a over a byte string — the stable, dependency-free hash
/// the router uses. Stability matters: every front end and every harness
/// must agree on the key→shard map without coordination, across processes
/// and across runs.
pub const fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(PRIME);
        i += 1;
    }
    h
}

/// The fixed number of slots a [`RoutingTable`] partitions the keyspace
/// into. Keys hash onto slots; slots map onto shards. The count never
/// changes over the life of a deployment — rebalancing edits only the
/// slot→shard map — so `256` bounds both the granularity of a migration
/// (a shard owns multiples of 1/256 of the keyspace) and the size of the
/// table every router carries.
pub const SLOT_COUNT: u16 = 256;

/// The slot every keyless (whole-object) operator is attributed to.
/// Keyless operators follow this slot's owner through migrations.
pub const HOME_SLOT: u16 = 0;

/// The shard every keyless (whole-object) operator is routed to **under
/// the initial uniform table** (the owner of [`HOME_SLOT`]). After a
/// migration moves [`HOME_SLOT`], keyless operators follow the table.
pub const HOME_SHARD: u32 = 0;

/// The versioned `slot → shard` map at the heart of rebalancing.
///
/// A key's slot (`FNV-1a(key) mod` [`SLOT_COUNT`]) never changes; which
/// shard *owns* the slot does, one [`MigrationPlan`] at a time. The
/// `version` counts applied plans, so every component of a deployment can
/// tell whether a routing decision was made against the current table.
///
/// # Examples
///
/// ```
/// use esds_core::{MigrationPlan, RoutingTable};
///
/// let mut t = RoutingTable::uniform(2);
/// assert_eq!(t.version(), 0);
/// let owner = t.shard_of_key("user:17");
/// // Adding a shard moves only ~1/3 of the slots; unmoved keys keep
/// // their owner.
/// let plan = MigrationPlan::add_shard(&t);
/// t.apply(&plan);
/// assert_eq!(t.version(), 1);
/// assert_eq!(t.n_shards(), 3);
/// if !plan.slots().contains(&t.slot_of_key("user:17")) {
///     assert_eq!(t.shard_of_key("user:17"), owner);
/// }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutingTable {
    version: u64,
    /// `slots[s]` = shard owning slot `s`.
    slots: Vec<u32>,
    n_shards: u32,
}

impl RoutingTable {
    /// The initial table over `n_shards` shards and [`SLOT_COUNT`] slots:
    /// slot `s` belongs to shard `s mod n_shards`, version 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn uniform(n_shards: u32) -> Self {
        Self::with_slots(n_shards, SLOT_COUNT)
    }

    /// A uniform table with an explicit slot count (tests; production
    /// deployments use [`RoutingTable::uniform`] so every component
    /// agrees on the count).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or exceeds `n_slots` (a shard must
    /// own at least one slot to receive any keys).
    pub fn with_slots(n_shards: u32, n_slots: u16) -> Self {
        assert!(n_shards > 0, "a sharded service needs at least one shard");
        assert!(
            n_shards as u64 <= n_slots as u64,
            "need at least one slot per shard"
        );
        RoutingTable {
            version: 0,
            slots: (0..n_slots).map(|s| s as u32 % n_shards).collect(),
            n_shards,
        }
    }

    /// Reassembles a table from its broadcast form: the version counter,
    /// the shard count, and the raw `slot → shard` map. This is the
    /// wire-decoding constructor — a sharded TCP deployment ships the
    /// authoritative table to stale clients inside a version-mismatch
    /// NAK, and the receiver rebuilds it here. The inverse accessors are
    /// [`RoutingTable::version`], [`RoutingTable::n_shards`], and
    /// [`RoutingTable::slot_owners`].
    ///
    /// # Errors
    ///
    /// Returns a static description of the defect if the map is empty,
    /// oversized (> [`SLOT_COUNT`] entries — no honest table is ever
    /// bigger), or names a shard ≥ `n_shards`.
    pub fn from_parts(version: u64, n_shards: u32, slots: Vec<u32>) -> Result<Self, &'static str> {
        if n_shards == 0 {
            return Err("routing table must address at least one shard");
        }
        if slots.is_empty() || slots.len() > SLOT_COUNT as usize {
            return Err("routing table slot map has an impossible size");
        }
        if slots.iter().any(|s| *s >= n_shards) {
            return Err("routing table slot map names an out-of-range shard");
        }
        Ok(RoutingTable {
            version,
            slots,
            n_shards,
        })
    }

    /// The raw `slot → shard` map (index = slot), the encode-side
    /// counterpart of [`RoutingTable::from_parts`].
    pub fn slot_owners(&self) -> &[u32] {
        &self.slots
    }

    /// How many plans have been applied to this table.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of slots (fixed for the table's life).
    pub fn n_slots(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Number of shards the table addresses (including drained shards,
    /// which simply own zero slots).
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// The slot `key` hashes to — stable across migrations.
    pub fn slot_of_key(&self, key: &str) -> u16 {
        (fnv1a_64(key.as_bytes()) % self.slots.len() as u64) as u16
    }

    /// The shard currently owning `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn shard_of_slot(&self, slot: u16) -> u32 {
        self.slots[slot as usize]
    }

    /// The shard currently owning `key`.
    pub fn shard_of_key(&self, key: &str) -> u32 {
        self.shard_of_slot(self.slot_of_key(key))
    }

    /// The slot an operator is attributed to: its key's slot, or
    /// [`HOME_SLOT`] for keyless operators.
    pub fn slot_of<T: KeyedDataType>(&self, dt: &T, op: &T::Operator) -> u16 {
        match dt.shard_key(op) {
            Some(k) => self.slot_of_key(k),
            None => HOME_SLOT,
        }
    }

    /// The slots currently owned by `shard`, ascending.
    pub fn slots_of(&self, shard: u32) -> Vec<u16> {
        (0..self.slots.len() as u16)
            .filter(|s| self.slots[*s as usize] == shard)
            .collect()
    }

    /// The shards that currently own at least one slot, ascending — the
    /// set a whole-object query must be scattered to. A drained shard
    /// owns nothing a gather could observe, so it is (correctly) absent.
    pub fn involved_shards(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self.slots.iter().copied().collect();
        set.into_iter().collect()
    }

    /// Slots owned per shard (index = shard id).
    pub fn load(&self) -> Vec<usize> {
        let mut load = vec![0usize; self.n_shards as usize];
        for shard in &self.slots {
            load[*shard as usize] += 1;
        }
        load
    }

    /// Applies a migration plan, bumping the version.
    ///
    /// # Panics
    ///
    /// Panics if the plan was computed against a different version, or if
    /// a move's `from` shard does not currently own its slot (both
    /// indicate the caller raced two migrations).
    pub fn apply(&mut self, plan: &MigrationPlan) {
        assert_eq!(
            plan.from_version, self.version,
            "migration plan is stale: computed for table v{}, table is at v{}",
            plan.from_version, self.version
        );
        for mv in &plan.moves {
            assert_eq!(
                self.slots[mv.slot as usize], mv.from,
                "slot {} is owned by shard {}, plan expected {}",
                mv.slot, self.slots[mv.slot as usize], mv.from
            );
            self.slots[mv.slot as usize] = mv.to;
        }
        self.n_shards = self.n_shards.max(plan.n_shards_after);
        self.version += 1;
    }
}

/// One slot changing hands in a [`MigrationPlan`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SlotMove {
    /// The slot being relocated.
    pub slot: u16,
    /// Its current owner.
    pub from: u32,
    /// Its owner after the migration.
    pub to: u32,
}

/// The minimal set of slot moves taking a [`RoutingTable`] from one
/// version to the next.
///
/// Plans are *minimal by construction*: adding a shard moves exactly
/// `⌊slots/(S+1)⌋` slots (≈ `1/(S+1)` of the keyspace — compare the
/// naive `hash mod S` scheme, where growing `S` remaps almost every
/// key), and draining a shard moves exactly the slots it owned. Every
/// key outside the moved slots routes identically before and after
/// (checked by property tests in `crates/core/tests/proptests.rs`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MigrationPlan {
    from_version: u64,
    n_shards_after: u32,
    moves: Vec<SlotMove>,
}

impl MigrationPlan {
    /// A plan adding one shard (id = `table.n_shards()`) and rebalancing
    /// by pulling slots from the currently most-loaded shards, lowest
    /// slot first — deterministic, so every component computes the same
    /// plan from the same table.
    pub fn add_shard(table: &RoutingTable) -> Self {
        let new = table.n_shards();
        let n_after = new + 1;
        let target = table.n_slots() as usize / n_after as usize;
        let mut load = table.load();
        let mut taken: BTreeSet<u16> = BTreeSet::new();
        let mut moves = Vec::with_capacity(target);
        for _ in 0..target {
            // Donor: most-loaded shard, ties to the lowest id.
            let donor = (0..load.len())
                .max_by_key(|s| (load[*s], usize::MAX - *s))
                .expect("at least one shard") as u32;
            let slot = (0..table.n_slots())
                .find(|s| table.shard_of_slot(*s) == donor && !taken.contains(s))
                .expect("donor has an unmoved slot");
            taken.insert(slot);
            load[donor as usize] -= 1;
            moves.push(SlotMove {
                slot,
                from: donor,
                to: new,
            });
        }
        MigrationPlan {
            from_version: table.version(),
            n_shards_after: n_after,
            moves,
        }
    }

    /// A plan draining `shard`: every slot it owns moves to the
    /// currently least-loaded other shard (ties to the lowest id). The
    /// drained shard stays addressable (it may still be answering
    /// operations submitted before the drain) but owns no slots, so it
    /// receives no new traffic once the plan is applied.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or is the only shard.
    pub fn drain_shard(table: &RoutingTable, shard: u32) -> Self {
        assert!(shard < table.n_shards(), "shard {shard} out of range");
        let others: Vec<u32> = (0..table.n_shards()).filter(|s| *s != shard).collect();
        assert!(!others.is_empty(), "cannot drain the only shard");
        let mut load = table.load();
        let mut moves = Vec::new();
        for slot in table.slots_of(shard) {
            let to = *others
                .iter()
                .min_by_key(|s| (load[**s as usize], **s))
                .expect("nonempty");
            load[to as usize] += 1;
            moves.push(SlotMove {
                slot,
                from: shard,
                to,
            });
        }
        MigrationPlan {
            from_version: table.version(),
            n_shards_after: table.n_shards(),
            moves,
        }
    }

    /// The table version this plan was computed against.
    pub fn from_version(&self) -> u64 {
        self.from_version
    }

    /// Number of shards the table addresses after this plan.
    pub fn n_shards_after(&self) -> u32 {
        self.n_shards_after
    }

    /// The slot moves, in execution order.
    pub fn moves(&self) -> &[SlotMove] {
        &self.moves
    }

    /// The set of slots this plan relocates.
    pub fn slots(&self) -> BTreeSet<u16> {
        self.moves.iter().map(|m| m.slot).collect()
    }

    /// Whether the plan moves nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Partitions the keyspace of a [`KeyedDataType`] across independent
/// replica groups through a versioned [`RoutingTable`].
///
/// Routing is pure and deterministic: `slot = FNV-1a(key) mod`
/// [`SLOT_COUNT`], `shard = table[slot]`. Keyless operators are
/// attributed to [`HOME_SLOT`] and follow its owner. Every component of
/// a sharded deployment constructs an equal router from `n_shards` alone
/// (the uniform table) and advances it by applying the same
/// [`MigrationPlan`]s in the same order.
///
/// # Examples
///
/// ```
/// use esds_core::ShardRouter;
///
/// let r = ShardRouter::new(4);
/// assert_eq!(r.n_shards(), 4);
/// assert_eq!(r.shard_of_key("user:17"), r.shard_of_key("user:17"));
/// assert!(r.shard_of_key("user:17") < 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardRouter {
    table: RoutingTable,
}

impl ShardRouter {
    /// A router over `n_shards` shards (ids `0..n_shards`) with the
    /// initial uniform table.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(n_shards: u32) -> Self {
        ShardRouter {
            table: RoutingTable::uniform(n_shards),
        }
    }

    /// A router over an explicit table (e.g. one restored mid-history).
    pub fn from_table(table: RoutingTable) -> Self {
        ShardRouter { table }
    }

    /// The underlying routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The table version (how many migrations have been applied).
    pub fn version(&self) -> u64 {
        self.table.version()
    }

    /// Number of shards (including drained, slotless ones).
    pub fn n_shards(&self) -> u32 {
        self.table.n_shards()
    }

    /// The slot `key` hashes to — stable across migrations.
    pub fn slot_of_key(&self, key: &str) -> u16 {
        self.table.slot_of_key(key)
    }

    /// The shard currently owning `key`.
    pub fn shard_of_key(&self, key: &str) -> u32 {
        self.table.shard_of_key(key)
    }

    /// The slot an operator is attributed to (see
    /// [`RoutingTable::slot_of`]).
    pub fn slot_of<T: KeyedDataType>(&self, dt: &T, op: &T::Operator) -> u16 {
        self.table.slot_of(dt, op)
    }

    /// The shard an operator is routed to: its slot's current owner.
    pub fn route<T: KeyedDataType>(&self, dt: &T, op: &T::Operator) -> u32 {
        self.table.shard_of_slot(self.slot_of(dt, op))
    }

    /// Applies a migration plan to the router's table (see
    /// [`RoutingTable::apply`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale (see [`RoutingTable::apply`]).
    pub fn apply(&mut self, plan: &MigrationPlan) {
        self.table.apply(plan);
    }
}

/// Walks a `prev` DAG and collects the **local frontier** for `shard`:
/// the per-shard identifiers of every same-shard operation reachable from
/// `prev` through foreign-shard hops.
///
/// This is the one subtle rule of cross-shard `prev` enforcement: an
/// answered foreign predecessor's *edge* may be
/// dropped (its response precedes the dependent's request), but the
/// transitive ordering it carried may not — in the chain
/// `A (shard s) ← B (foreign) ← C (shard s)`, `C` must still be ordered
/// after `A` within `s`. The walk therefore **descends through** foreign
/// nodes and **stops at** same-shard nodes, whose own submitted `prev`
/// already carries their same-shard transitive closure.
///
/// `node` resolves one global identifier to `(its shard, its local id,
/// its global prev set)`. Each node is visited at most once.
///
/// # Examples
///
/// ```
/// use esds_core::shard_frontier;
///
/// // A (shard 0, local "a") ← B (shard 1, local "b") ← C's prev.
/// let node = |g: u8| match g {
///     0 => (0, "a", vec![]),
///     1 => (1, "b", vec![0]),
///     _ => unreachable!(),
/// };
/// // C lands on shard 0: inherits A through the foreign hop B.
/// assert_eq!(shard_frontier(&[1], 0, node), vec!["a"]);
/// // C lands on shard 1: B itself is the frontier.
/// assert_eq!(shard_frontier(&[1], 1, node), vec!["b"]);
/// ```
pub fn shard_frontier<Id, L>(
    prev: &[Id],
    shard: u32,
    mut node: impl FnMut(Id) -> (u32, L, Vec<Id>),
) -> Vec<L>
where
    Id: Ord + Copy,
{
    let mut out = Vec::new();
    let mut visited = std::collections::BTreeSet::new();
    let mut stack: Vec<Id> = prev.to_vec();
    while let Some(g) = stack.pop() {
        if !visited.insert(g) {
            continue;
        }
        let (s, local, prevs) = node(g);
        if s == shard {
            out.push(local);
        } else {
            stack.extend(prevs);
        }
    }
    out
}

/// The multi-placement generalization of [`shard_frontier`] for
/// histories that contain **gathered** operations.
///
/// A gathered whole-object query has one sub-operation on *every*
/// involved shard, so a single `(shard, local id)` placement cannot
/// describe it. Here `node` resolves a global identifier to *all* of its
/// placements plus its global prev set; the walk anchors on a node the
/// moment it holds a placement on `shard` (a dependent of a gathered op
/// orders after that shard's own sub-operation — the cross-shard `prev`
/// rule of the scatter-gather design) and descends through nodes with no
/// same-shard placement. Single-placement nodes make this walk coincide
/// exactly with [`shard_frontier`].
///
/// # Examples
///
/// ```
/// use esds_core::gather_frontier;
///
/// // G is a gathered query placed on shards 0 and 1; K (shard 1)
/// // depends on it.
/// let node = |g: u8| match g {
///     0 => (vec![(0u32, "g@0"), (1, "g@1")], vec![]),
///     _ => unreachable!(),
/// };
/// // K lands on shard 1: anchors on G's shard-1 sub-operation.
/// assert_eq!(gather_frontier(&[0], 1, node), vec!["g@1"]);
/// // A dependent on shard 2 sees no same-shard placement and G has no
/// // predecessors: empty frontier.
/// assert_eq!(gather_frontier(&[0], 2, node), Vec::<&str>::new());
/// ```
pub fn gather_frontier<Id, L>(
    prev: &[Id],
    shard: u32,
    mut node: impl FnMut(Id) -> (Vec<(u32, L)>, Vec<Id>),
) -> Vec<L>
where
    Id: Ord + Copy,
{
    let mut out = Vec::new();
    let mut visited = std::collections::BTreeSet::new();
    let mut stack: Vec<Id> = prev.to_vec();
    while let Some(g) = stack.pop() {
        if !visited.insert(g) {
            continue;
        }
        let (placements, prevs) = node(g);
        let mut local = None;
        for (s, l) in placements {
            if s == shard {
                local = Some(l);
                break;
            }
        }
        match local {
            Some(l) => out.push(l),
            None => stack.extend(prevs),
        }
    }
    out
}

/// An operation identifier in the **global** namespace of a sharded
/// service.
///
/// Each shard is an unmodified ESDS instance with its own per-group
/// [`OpId`](crate::OpId) space (per-client sequence numbers restart in every shard), so
/// a global handle is needed to name operations across shards — in `prev`
/// sets spanning shards, and when looking responses up. Like [`OpId`](crate::OpId), the
/// pair (client, global sequence) is unique as long as each client numbers
/// its sharded submissions consecutively, which the sharded layers
/// enforce.
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, ShardedOpId};
/// let g = ShardedOpId::new(ClientId(2), 7);
/// assert_eq!(g.client(), ClientId(2));
/// assert_eq!(g.to_string(), "c2/7");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShardedOpId {
    client: ClientId,
    seq: u64,
}

impl ShardedOpId {
    /// The `seq`-th sharded submission of `client`.
    pub fn new(client: ClientId, seq: u64) -> Self {
        ShardedOpId { client, seq }
    }

    /// The issuing client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The client's global submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl fmt::Display for ShardedOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.client, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = ShardRouter::new(5);
        for k in ["", "a", "k1", "k2", "user:999", "漢字"] {
            let s = r.shard_of_key(k);
            assert!(s < 5);
            assert_eq!(s, r.shard_of_key(k), "routing must be deterministic");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shard_of_key("anything"), 0);
    }

    #[test]
    fn many_keys_spread_over_shards() {
        let r = ShardRouter::new(8);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..256 {
            seen.insert(r.shard_of_key(&format!("k{i}")));
        }
        assert_eq!(seen.len(), 8, "256 keys must hit all 8 shards");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn uniform_table_balances_slots() {
        let t = RoutingTable::uniform(4);
        assert_eq!(t.n_slots(), SLOT_COUNT);
        let load = t.load();
        assert_eq!(load.iter().sum::<usize>(), SLOT_COUNT as usize);
        assert!(load.iter().all(|l| *l == SLOT_COUNT as usize / 4));
        assert_eq!(t.shard_of_slot(HOME_SLOT), HOME_SHARD);
    }

    #[test]
    fn add_shard_moves_one_over_s_plus_one_of_the_slots() {
        for s in 1u32..9 {
            let t = RoutingTable::uniform(s);
            let plan = MigrationPlan::add_shard(&t);
            assert_eq!(plan.moves().len(), SLOT_COUNT as usize / (s + 1) as usize);
            assert!(plan.moves().iter().all(|m| m.to == s));
            let mut t2 = t.clone();
            t2.apply(&plan);
            assert_eq!(t2.n_shards(), s + 1);
            assert_eq!(t2.version(), 1);
            // Post-migration balance: slots per shard within 1 of each other.
            let load = t2.load();
            let (min, max) = (load.iter().min().unwrap(), load.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced after add: {load:?}");
        }
    }

    #[test]
    fn drain_shard_empties_it_and_keeps_balance() {
        let mut t = RoutingTable::uniform(4);
        let plan = MigrationPlan::drain_shard(&t, 2);
        assert_eq!(plan.moves().len(), SLOT_COUNT as usize / 4);
        t.apply(&plan);
        assert_eq!(t.slots_of(2), Vec::<u16>::new());
        assert_eq!(t.n_shards(), 4, "a drained shard stays addressable");
        let load = t.load();
        assert_eq!(load[2], 0);
        let live: Vec<usize> = [0usize, 1, 3].iter().map(|s| load[*s]).collect();
        let (min, max) = (live.iter().min().unwrap(), live.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced after drain: {load:?}");
    }

    #[test]
    fn unmoved_slots_route_identically() {
        let t = RoutingTable::uniform(3);
        let plan = MigrationPlan::add_shard(&t);
        let mut t2 = t.clone();
        t2.apply(&plan);
        let moved = plan.slots();
        for i in 0..500 {
            let k = format!("key:{i}");
            if moved.contains(&t.slot_of_key(&k)) {
                assert_eq!(t2.shard_of_key(&k), 3, "moved keys go to the new shard");
            } else {
                assert_eq!(t.shard_of_key(&k), t2.shard_of_key(&k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_plan_rejected() {
        let mut t = RoutingTable::uniform(2);
        let plan = MigrationPlan::add_shard(&t);
        t.apply(&plan);
        let replay = plan.clone();
        t.apply(&replay); // computed for v0, table now at v1
    }

    #[test]
    fn router_follows_applied_plans() {
        let mut r = ShardRouter::new(2);
        assert_eq!(r.version(), 0);
        let plan = MigrationPlan::add_shard(r.table());
        r.apply(&plan);
        assert_eq!(r.version(), 1);
        assert_eq!(r.n_shards(), 3);
        // Some key must now live on the new shard.
        assert!(
            (0..SLOT_COUNT).any(|s| r.table().shard_of_slot(s) == 2),
            "new shard owns no slots"
        );
    }

    #[test]
    fn frontier_descends_foreign_and_stops_at_local() {
        // Diamond: D's prev = {B, C}; B and C are foreign hops both
        // leading to local A. A must appear exactly once.
        let node = |g: u8| match g {
            0 => (0u32, 'a', vec![]),
            1 => (1, 'b', vec![0]),
            2 => (2, 'c', vec![0]),
            _ => unreachable!(),
        };
        assert_eq!(shard_frontier(&[1, 2], 0, node), vec!['a']);
        // From shard 1's viewpoint: B is local, C is descended through.
        let mut f = shard_frontier(&[1, 2], 1, node);
        f.sort();
        assert_eq!(f, vec!['b']);
        // No predecessors at all: empty frontier.
        assert_eq!(shard_frontier::<u8, char>(&[], 0, node), Vec::<char>::new());
    }

    #[test]
    fn involved_shards_tracks_ownership() {
        let mut t = RoutingTable::uniform(3);
        assert_eq!(t.involved_shards(), vec![0, 1, 2]);
        t.apply(&MigrationPlan::drain_shard(&t, 1));
        assert_eq!(
            t.involved_shards(),
            vec![0, 2],
            "a drained shard owns no slots and must not be scattered to"
        );
        t.apply(&MigrationPlan::add_shard(&t));
        assert_eq!(t.involved_shards(), vec![0, 2, 3]);
    }

    #[test]
    fn gather_frontier_anchors_on_same_shard_placement() {
        // G gathered over shards {0,1}, with a foreign single-placement
        // predecessor P on shard 2; D depends on G.
        let node = |g: u8| match g {
            0 => (vec![(2u32, "p@2")], vec![]),
            1 => (vec![(0, "g@0"), (1, "g@1")], vec![0]),
            _ => unreachable!(),
        };
        // D on shard 0 or 1: the gathered op's own sub-op is the anchor.
        assert_eq!(gather_frontier(&[1], 0, node), vec!["g@0"]);
        assert_eq!(gather_frontier(&[1], 1, node), vec!["g@1"]);
        // D on shard 2: descends through G to reach P.
        assert_eq!(gather_frontier(&[1], 2, node), vec!["p@2"]);
        // D on shard 3: nothing placed there anywhere in the closure.
        assert_eq!(gather_frontier(&[1], 3, node), Vec::<&str>::new());
    }

    #[test]
    fn gather_frontier_coincides_with_shard_frontier_on_single_placements() {
        let single = |g: u8| match g {
            0 => (0u32, 'a', vec![]),
            1 => (1, 'b', vec![0]),
            2 => (2, 'c', vec![0]),
            _ => unreachable!(),
        };
        let multi = |g: u8| {
            let (s, l, p) = single(g);
            (vec![(s, l)], p)
        };
        for shard in 0..4 {
            let mut a = shard_frontier(&[1, 2], shard, single);
            let mut b = gather_frontier(&[1, 2], shard, multi);
            a.sort();
            b.sort();
            assert_eq!(a, b, "shard {shard}");
        }
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut t = RoutingTable::uniform(3);
        t.apply(&MigrationPlan::add_shard(&t));
        let back =
            RoutingTable::from_parts(t.version(), t.n_shards(), t.slot_owners().to_vec()).unwrap();
        assert_eq!(back, t);
        assert!(RoutingTable::from_parts(0, 0, vec![0]).is_err());
        assert!(RoutingTable::from_parts(0, 2, vec![]).is_err());
        assert!(RoutingTable::from_parts(0, 2, vec![0; SLOT_COUNT as usize + 1]).is_err());
        assert!(RoutingTable::from_parts(0, 2, vec![0, 2]).is_err());
    }

    #[test]
    fn sharded_id_display_and_accessors() {
        let g = ShardedOpId::new(ClientId(3), 11);
        assert_eq!(g.client(), ClientId(3));
        assert_eq!(g.seq(), 11);
        assert_eq!(g.to_string(), "c3/11");
        assert!(g < ShardedOpId::new(ClientId(3), 12));
    }
}
