//! # esds — Eventually-Serializable Data Services
//!
//! A complete Rust reproduction of *Eventually-Serializable Data Services*
//! (Fekete, Gupta, Luchangco, Lynch, Shvartsman; PODC 1996 / TCS 220 (1999)
//! 113–156): the formal specification (ESDS-I / ESDS-II), the lazy-replication
//! algorithm that implements it, the Section 10 optimizations, a deterministic
//! discrete-event simulator, a TCP deployment, and the experiment harness
//! that regenerates the paper's evaluation.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names. See `README.md` for a tour and `ARCHITECTURE.md` for the system
//! inventory.
//!
//! ## Quickstart
//!
//! ```rust
//! use esds::harness::{SimSystem, SystemConfig};
//! use esds::datatypes::Counter;
//! use esds::core::OpDescriptor;
//! use esds::datatypes::CounterOp;
//!
//! // A 3-replica service over an integer counter.
//! let config = SystemConfig::new(3).with_seed(7);
//! let mut sys = SimSystem::new(Counter, config);
//! let c = sys.add_client(0);
//!
//! // One strict increment, then a nonstrict read.
//! let inc = sys.submit(c, CounterOp::Increment(5), &[], true);
//! let read = sys.submit(c, CounterOp::Read, &[inc], false);
//! sys.run_until_quiescent();
//!
//! assert!(sys.response(read).is_some());
//! ```
//!
//! ## Sharded quickstart
//!
//! Keyed data types ([`datatypes::KvStore`], [`datatypes::Directory`],
//! [`datatypes::Bank`]) can be hash-partitioned across independent
//! replica groups, one full ESDS instance per shard, so throughput
//! scales with the shard count:
//!
//! ```rust
//! use esds::harness::{ShardedSimSystem, ShardedSystemConfig, SystemConfig};
//! use esds::datatypes::{KvOp, KvStore, KvValue};
//!
//! // 4 shards × 3 replicas: 12 replicas, 4 independent gossip domains.
//! let cfg = ShardedSystemConfig::new(4, SystemConfig::new(3).with_seed(7));
//! let mut sys = ShardedSimSystem::new(KvStore, cfg);
//! let c = sys.add_client(0);
//!
//! // Writes are routed to the shard owning their key; a `prev`
//! // constraint that crosses shards holds the dependent back until the
//! // foreign shard has answered its predecessor.
//! let put = sys.submit(c, KvOp::put("user:1", "ada"), &[], false);
//! let get = sys.submit(c, KvOp::get("user:1"), &[put], false);
//! sys.run_until_quiescent();
//!
//! assert_eq!(sys.response(get), Some(&KvValue::Value(Some("ada".into()))));
//! ```
//!
//! Whole-object queries **scatter-gather**: `Keys` reads state no
//! single shard holds, so the deployment fans one hidden sub-query out
//! to every involved shard and merges the answers. Submitted *strict*,
//! the gather takes a per-shard stability barrier first, and the
//! merged answer is exactly what an unsharded deployment would return:
//!
//! ```rust
//! use esds::harness::{ShardedSimSystem, ShardedSystemConfig, SystemConfig};
//! use esds::datatypes::{KvOp, KvStore, KvValue};
//!
//! // 2 shards × 3 replicas.
//! let cfg = ShardedSystemConfig::new(2, SystemConfig::new(3).with_seed(11));
//! let mut sys = ShardedSimSystem::new(KvStore, cfg);
//! let c = sys.add_client(0);
//!
//! // The writes land on whichever shard owns each key.
//! let a = sys.submit(c, KvOp::put("user:1", "ada"), &[], false);
//! let b = sys.submit(c, KvOp::put("user:2", "lin"), &[], false);
//!
//! // Barrier-strict `Keys`: each involved shard snapshots its answered
//! // frontier, waits until that frontier is stable at every replica,
//! // then runs a strict sub-query — the union is exact, never one
//! // shard's partial slice.
//! let keys = sys.submit(c, KvOp::Keys, &[a, b], true);
//! sys.run_until_quiescent();
//!
//! assert_eq!(
//!     sys.response(keys),
//!     Some(&KvValue::Keys(vec!["user:1".into(), "user:2".into()]))
//! );
//! ```
//!
//! Over real sockets the same deployment is
//! [`wire::ShardedWireService`] (one TCP cluster per shard, with a
//! routing-table-version handshake so reads never route stale). The routing vocabulary ([`core::KeyedDataType`],
//! [`core::ShardRouter`]) lives in `esds-core`. See `ARCHITECTURE.md`
//! for the full crate map and data flow.

pub mod audit;

pub use esds_alg as alg;
pub use esds_core as core;
pub use esds_datatypes as datatypes;
pub use esds_harness as harness;
pub use esds_mc as mc;
pub use esds_obs as obs;
pub use esds_sim as sim;
pub use esds_spec as spec;
pub use esds_store as store;
pub use esds_wire as wire;

/// `VERIFICATION.md`'s Rust blocks compile and run as doctests of this
/// facade (`cargo test --doc -p esds`), so the document's examples
/// cannot drift from the API. Only exists while doctests are
/// collected; `cargo doc` never publishes it.
#[cfg(doctest)]
#[doc = include_str!("../VERIFICATION.md")]
pub struct VerificationDoctests;
