//! The pluggable persistence hook of a durable replica.
//!
//! The replica automaton is sans-IO; durability is a backend behind it.
//! A durable deployment hands each replica's [`Persistence`] backend to
//! its [`Node`](crate::Node), and the node — not the driver — calls
//! [`Persistence::persist`] after every mutating input (request or
//! gossip) and once per gossip tick that releases envelopes, **before**
//! returning the input's effects. This sync-before-release discipline is
//! the whole soundness argument: any fact another process can have
//! observed about this replica is backed by its durable log, so a crash
//! can only lose knowledge nobody was told about.
//!
//! The backend decides internally when to cut a snapshot and truncate
//! its log; the trait deliberately has a single method so nodes stay
//! policy-free. Errors are strings (not a concrete store error type) to
//! keep `esds-alg` free of storage dependencies; the node treats any
//! error as its death — effects are dropped and every later input is
//! refused, exactly as if the machine had lost power.

use esds_core::SerialDataType;

use crate::replica::Replica;

/// A durable backend for one replica (implemented by `esds-store`).
pub trait Persistence<T: SerialDataType>: Send {
    /// Durably records everything the replica changed since the last
    /// call (drains [`Replica::take_wal_delta`]), syncing before
    /// returning. May also cut a snapshot / compact the log.
    ///
    /// # Errors
    ///
    /// Any storage failure. No effect of the input may be released after
    /// an error — the node treats the replica as crashed.
    fn persist(&mut self, replica: &mut Replica<T>) -> Result<(), String>;
}
