//! # esds-spec
//!
//! Executable specifications and checkers for eventually-serializable data
//! services (paper Sections 4–5):
//!
//! * [`Users`] — the client well-formedness automaton (Fig. 1);
//! * [`EsdsSpec`] — the `ESDS-I` (Fig. 2) and `ESDS-II` (Fig. 3) automata
//!   with precondition-checked actions and the §5.2 invariants;
//! * [`ReferenceService`] — `ESDS-I` + eager serializer = a linearizable
//!   centralized object (the semantic oracle and baseline);
//! * [`TraceChecker`] — black-box validation of Theorems 5.7/5.8 and
//!   Corollary 5.9 over request/response traces with witnesses;
//! * [`StreamingChecker`] — the same theorems as an *online* decision
//!   procedure with `O(unstable window)` memory: operations behind the
//!   stable watermark are retired into a running [`AuditCertificate`]
//!   (count + chain digest) instead of being held forever.
//!
//! # Paper definitions, in paper vocabulary
//!
//! * A **valid serialization** of a descriptor set `X` (paper §3) is a
//!   total order over `X` consistent with the client-specified
//!   constraints `CSC(X)` — the transitive closure of every
//!   descriptor's `prev` set. [`Users::csc`] computes the relation;
//!   `esds_core::total_order_consistent` decides membership.
//! * A service is **eventually serializable** (paper §5) when its trace
//!   is explained by valid serializations two ways: every response by
//!   *some* valid serialization of the operations the replica had
//!   applied (**Theorem 5.7**, checked from witnesses), and every
//!   *strict* response by the single **eventual total order** that all
//!   replicas converge to (**Theorem 5.8**; all responses when every
//!   operation is strict, **Corollary 5.9**).
//! * The checkers consume the *stable watermark* — the solid prefix of
//!   the eventual total order the algorithm certifies via `∩ᵢ stable_r[i]`
//!   — as ground truth for that order; the batch checker receives it
//!   whole, the streaming checker one operation at a time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod automaton;
mod barrier;
mod checker;
mod reference;
mod streaming;
mod users;

pub use automaton::{EsdsSpec, SpecVariant};
pub use barrier::{
    check_barrier_cut, check_barrier_obligation, BarrierObligation, BarrierViolation, ShardBarrier,
};
pub use checker::{check_converged, RecordedResponse, TraceChecker, TraceViolation};
pub use reference::{replay_serial, ReferenceService};
pub use streaming::{
    final_prefix, fold_digest, order_digest, AuditCertificate, AuditConfig, AuditEvent,
    AuditResult, AuditStatus, AuditViolation, StreamingChecker,
};
pub use users::Users;
