//! # esds-datatypes
//!
//! Ready-made serial data types (paper §2.2) for the eventually-serializable
//! data service, each with a sound [`esds_core::CommutativitySpec`] so the
//! commutativity-exploiting algorithm variant (paper §10.3) can be used:
//!
//! * [`Register`] — read/write register (writes conflict);
//! * [`Counter`] — increment/double/read (the paper's §10.3 example);
//! * [`Directory`] — name/attribute directory service (the paper's §11.2
//!   motivating application);
//! * [`GSet`] — grow-only set (fully commutative mutations);
//! * [`AppendLog`] — append-only log (no mutations commute);
//! * [`KvStore`] — key-value store (per-key conflicts);
//! * [`Queue`] — FIFO queue (strongly non-commutative);
//! * [`Bank`] — bank account (commuting deposits, admission-controlled
//!   withdrawals — the motivating case for `strict`).
//!
//! Every specification is validated against brute force on random states by
//! property tests in each module.
//!
//! The keyed types — [`KvStore`] (by key), [`Directory`] (by name), and
//! [`Bank`] (one indivisible key) — also implement
//! [`esds_core::KeyedDataType`], so they can be hash-partitioned across
//! independent replica groups by the sharded layers in `esds-harness` and
//! `esds-wire`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bank;
mod counter;
mod directory;
mod gset;
mod kv;
mod log;
mod queue;
mod register;

pub use bank::{Bank, BankOp, BankValue};
pub use counter::{Counter, CounterOp, CounterValue};
pub use directory::{Directory, DirectoryOp, DirectoryState, DirectoryValue};
pub use gset::{GSet, GSetOp, GSetValue};
pub use kv::{KvOp, KvStore, KvValue};
pub use log::{AppendLog, LogOp, LogValue};
pub use queue::{Queue, QueueOp, QueueValue};
pub use register::{Register, RegisterOp, RegisterValue};
