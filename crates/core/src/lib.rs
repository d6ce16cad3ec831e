//! # esds-core
//!
//! Core vocabulary of the *Eventually-Serializable Data Services* paper
//! (Fekete, Gupta, Luchangco, Lynch, Shvartsman; PODC'96 / TCS'99):
//!
//! * [`ClientId`], [`ReplicaId`], [`OpId`] — identities (§6.2);
//! * [`OpDescriptor`], [`csc`] — operation descriptors and client-specified
//!   constraints (§2.3, §4);
//! * [`Digraph`] — relations, strict partial orders, linear extensions
//!   (§2.1);
//! * [`SerialDataType`] — the data-type algebra (Σ, σ₀, V, O, τ) (§2.2) and
//!   [`CommutativitySpec`] (§10.3);
//! * [`outcome`], [`value_along`], [`valset`] — outcomes and value sets of
//!   operation sets under orders (§2.3);
//! * [`Label`], [`LabelSlot`], [`LabelMap`], [`LabelGenerator`] — the
//!   replicas' well-ordered label sets (§6.3);
//! * [`IdSummary`] — watermark + exception summaries of id sets (§10.2);
//! * [`KeyedDataType`], [`ShardRouter`], [`RoutingTable`],
//!   [`MigrationPlan`], [`ShardedOpId`] — keyspace partitioning for
//!   sharded multi-group deployments (the paper's §10 commutativity
//!   insight applied at the partition level), with a versioned
//!   `key → slot → shard` indirection so shards can be added or drained
//!   by migrating slots;
//! * [`ShardCoordinator`] — the sans-IO state machine (routing,
//!   cross-shard `prev`, scatter-gather, version NAKs) the three sharded
//!   deployment stacks drive.
//!
//! Everything here is purely functional/in-memory; the executable
//! specification lives in `esds-spec`, the distributed algorithm in
//! `esds-alg`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coordinator;
mod data_type;
mod error;
mod eval;
mod ids;
mod label;
mod op;
mod order;
mod shard;
mod summary;

pub use coordinator::{Blocker, Effect, OpClass, ShardCoordinator, WholeObjectUnsupported};
pub use data_type::{commutes_at, oblivious_at, CommutativitySpec, SerialDataType};
pub use error::{PreconditionError, WellFormednessError};
pub use eval::{outcome, valset, valset_contains, value_along, values_along};
pub use ids::{ClientId, OpId, ReplicaId};
pub use label::{Label, LabelGenerator, LabelMap, LabelSlot};
pub use op::{csc, OpDescriptor};
pub use order::{total_order_consistent, Digraph};
pub use shard::{
    fnv1a_64, gather_frontier, shard_frontier, KeyedDataType, MigrationPlan, RoutingTable,
    ShardRouter, ShardedOpId, SlotMove, HOME_SHARD, HOME_SLOT, SLOT_COUNT,
};
pub use summary::IdSummary;
