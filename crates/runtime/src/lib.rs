//! # esds-runtime
//!
//! A multithreaded deployment of the ESDS algorithm, kept for the one
//! thing only it does: **live add-shard** under real concurrency
//! ([`ShardedService::add_shard`]), plus the restart-from-disk path
//! ([`ShardedService::start_durable`]). Each shard is a replica group of
//! OS threads — one per replica, driving the same sans-IO
//! [`esds_alg::Node`] as the simulator — and a network thread that
//! injects propagation delay, substituting for the paper's
//! MPI/workstation testbed (see `ARCHITECTURE.md` §2). The TCP
//! deployment (`esds-wire`) is the one with metrics, tracing and a
//! streaming audit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod service;
mod sharded;

pub use service::RuntimeConfig;
pub use sharded::{ShardedClient, ShardedService};
