//! # esds-store
//!
//! Durable replica storage for ESDS deployments: a per-replica
//! write-ahead op log plus periodic state snapshots at the stable
//! fence, recovered through the paper's §9.3 crash/incarnation path.
//!
//! * [`Storage`] — the byte-level backend: [`FileStorage`] (real
//!   append-only files) and [`MemStorage`] (deterministic, with an
//!   injectable [`CrashPlan`] crash-point / torn-write fault plane);
//! * [`DurableStore`] — the engine: appends each handler's
//!   [`esds_alg::WalDelta`] as length-prefixed FNV-checksummed records
//!   over the [`esds_wire::Wire`] codec, syncs before the driver
//!   releases effects, and checkpoints by snapshotting the §10.1 memo
//!   prefix and truncating the log to the unstable suffix;
//! * [`Snapshot`] — the memo-image file format;
//! * [`RecoverReport`] — what [`DurableStore::open`] found: snapshot
//!   generation, records replayed, torn tails dropped (with
//!   diagnostics; *corrupt* records are refused, never skipped).
//!
//! The store implements [`esds_alg::Persistence`], so TCP nodes and the
//! simulator drive it the same way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod snapshot;
pub mod storage;
mod wal;

pub use durable::{DurableConfig, DurableStore, RecoverReport, WalStats};
pub use snapshot::Snapshot;
pub use storage::{CrashPlan, FileStorage, MemStorage, Storage, StoreError};
