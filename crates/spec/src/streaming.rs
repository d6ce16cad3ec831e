//! Streaming (incremental) audit of eventual serializability with
//! **bounded memory**.
//!
//! The batch [`TraceChecker`](crate::TraceChecker) holds the whole trace
//! and checks it post-hoc; fine for tests, unusable for a service meant
//! to run forever. This module turns the same behavioural theorems into
//! an *online decision procedure*: the [`StreamingChecker`] consumes the
//! request/response/stability stream op by op and keeps state only for
//! operations **ahead of the stable watermark**.
//!
//! # Paper vocabulary
//!
//! A *valid serialization* of a set of operation descriptors is a total
//! order consistent with the client-specified constraints `CSC(X)`
//! (paper §3); a service is *eventually serializable* when every strict
//! response is explained by one system-wide total order — the eventual
//! total order, paper Theorem 5.8 — and every response at all is
//! explained by *some* valid serialization (Theorem 5.7). The streaming
//! checker verifies exactly these two statements, incrementally:
//!
//! * **Theorem 5.8 / Corollary 5.9** — [`on_stabilize`] receives the
//!   eventual total order one operation at a time (the system's stable
//!   watermark advancing). Each stabilized operation is applied to a
//!   running state, yielding its *eventual value*; strict responses (all
//!   responses, in [`AuditConfig::check_all`] mode) must match it.
//! * **Theorem 5.7** — [`on_response`] verifies each witnessed response
//!   against the witness (the replica's local label order at response
//!   time), extended CSC-consistently over the *resident window* only.
//!   The witness's stable prefix is not replayed: it is checked against
//!   a running chain digest of the audited eventual order, exploiting
//!   the algorithm's **solid-prefix invariant** (an operation stable at
//!   a replica sits below every tentative operation in its local label
//!   order, so the stable prefix of any honest witness *is* a prefix of
//!   the eventual order).
//!
//! # Watermark retirement
//!
//! An operation is **retired** once it (a) stabilized — took its final
//! place in the eventual order — and (b) was answered. Retirement is
//! strictly in eventual-order position, so the retired set is always the
//! eventual order's prefix `[0, watermark)`. Retiring folds the
//! operation into the running [`AuditCertificate`] (count + chain
//! digest) and drops its descriptor, its constraint-graph node and its
//! bookkeeping: resident memory is `O(unstable window)`, not
//! `O(history)`.
//!
//! A small **grace ring** of the last [`AuditConfig::grace`] retired
//! checkpoints (id, eventual value, state, digest) absorbs the sidecar
//! race where the watermark passes an operation between a replica
//! computing its response and the client feeding it: responses and
//! witnesses reaching back at most `grace` positions behind the
//! watermark are still fully verified; older ones are counted as
//! [`AuditStatus::stale_skipped`] rather than failing the audit. The
//! same classification covers witnesses computed with *older* stability
//! knowledge than the audit's — a replica freshly recovered from a
//! crash may briefly order globally-stable operations after tentative
//! ones while it relearns labels, which bounded memory cannot
//! distinguish from a misordered prefix. Skipped witnesses are visible
//! in the status; the batch [`TraceChecker`](crate::TraceChecker) run
//! in CI remains the complete oracle.
//!
//! # Stream contract
//!
//! Feed [`on_request`] before any event naming the operation; feed
//! [`on_stabilize`] in eventual-order positions (the successive elements
//! of the system's stable prefix); feed each response no later than
//! `grace` retirements after its operation stabilizes. The drivers in
//! `esds-harness` and `esds-wire` maintain this contract mechanically.
//!
//! [`on_request`]: StreamingChecker::on_request
//! [`on_response`]: StreamingChecker::on_response
//! [`on_stabilize`]: StreamingChecker::on_stabilize

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use esds_core::{
    fnv1a_64, total_order_consistent, Digraph, IdSummary, OpDescriptor, OpId, SerialDataType,
};

use crate::checker::TraceViolation;

/// How many resident op ids a counterexample window snapshot carries.
const WINDOW_SNAPSHOT_CAP: usize = 32;

/// Folds one operation id into a running chain digest (FNV-1a over the
/// previous digest and the id). The audit certificate's digest is
/// `fold_digest(fold_digest(..., x₀), x₁) ...` over the eventual order —
/// recomputable by anyone holding the order, without the checker.
pub fn fold_digest(prev: u64, id: OpId) -> u64 {
    let mut bytes = [0u8; 20];
    bytes[..8].copy_from_slice(&prev.to_le_bytes());
    bytes[8..12].copy_from_slice(&id.client().0.to_le_bytes());
    bytes[12..20].copy_from_slice(&id.seq().to_le_bytes());
    fnv1a_64(&bytes)
}

/// The digest of a whole serialization: [`fold_digest`] folded over it
/// from 0. A batch-side helper for comparing against a streaming
/// [`AuditCertificate`].
pub fn order_digest(ids: &[OpId]) -> u64 {
    ids.iter().fold(0, |d, &id| fold_digest(d, id))
}

/// The **position-final prefix** of a label order: `order` truncated just
/// past its last operation `stable_everywhere` accepts (every position up
/// to it is final, tentative operations included). The watermark every
/// audit tap feeds to [`StreamingChecker::on_final_prefix`].
pub fn final_prefix(mut order: Vec<OpId>, stable_everywhere: impl Fn(OpId) -> bool) -> Vec<OpId> {
    let solid = order
        .iter()
        .rposition(|id| stable_everywhere(*id))
        .map_or(0, |i| i + 1);
    order.truncate(solid);
    order
}

/// One event of the audited stream, in the order the service emits them.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditEvent<O, V> {
    /// A client issued an operation descriptor.
    Request(OpDescriptor<O>),
    /// A replica answered an operation.
    Response {
        /// The operation answered.
        id: OpId,
        /// The returned value.
        value: V,
        /// The replica's local label order up to and including `id`, when
        /// witness recording is on.
        witness: Option<Vec<OpId>>,
    },
    /// The system's stable watermark advanced past `id`: the operation
    /// took its final position in the eventual total order.
    Stabilize(OpId),
}

/// Tuning knobs for a [`StreamingChecker`].
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Checkpoints kept after retirement: responses and witnesses may
    /// trail the watermark by up to this many positions and still be
    /// fully verified. Memory cost is one data-type state per slot.
    pub grace: usize,
    /// Check **every** response against the eventual order, not just the
    /// strict ones (Corollary 5.9's all-strict reading). Off by default:
    /// nonstrict responses are only bound by their witnesses.
    pub check_all: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            grace: 64,
            check_all: false,
        }
    }
}

/// A violation found by the streaming audit, carrying the minimal
/// counterexample context: the broken guarantee, the watermark at
/// failure, and a snapshot of the resident (unretired) window.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// Which guarantee broke and how (same vocabulary as the batch
    /// checker's [`TraceViolation`]).
    pub violation: TraceViolation,
    /// Retired-operation count when the violation was detected (the
    /// watermark position).
    pub watermark: u64,
    /// Number of operations resident when the violation was detected.
    pub resident: usize,
    /// Up to `WINDOW_SNAPSHOT_CAP` (32) resident op ids — the
    /// counterexample window the violation lives in.
    pub window: Vec<OpId>,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [watermark {}, {} resident",
            self.violation, self.watermark, self.resident
        )?;
        if !self.window.is_empty() {
            write!(f, ", window {:?}", self.window)?;
        }
        write!(f, "]")
    }
}

impl std::error::Error for AuditViolation {}

/// The running certificate a [`StreamingChecker`] folds retired
/// operations into: how many operations the audited eventual order
/// covers, and the chain digest of their sequence ([`order_digest`] of
/// the serialization). Two green checkers that end with equal
/// certificates audited the *same* serialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditCertificate {
    /// Operations covered by the audited eventual order.
    pub ops: u64,
    /// Chain digest of the eventual order ([`fold_digest`] folded over
    /// it from 0).
    pub digest: u64,
}

impl fmt::Display for AuditCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ops, digest {:016x}", self.ops, self.digest)
    }
}

/// A point-in-time summary of a [`StreamingChecker`] — what a sidecar
/// exposes as its audit status.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStatus {
    /// Requests accepted.
    pub requests: u64,
    /// Responses observed.
    pub responses: u64,
    /// Witnessed responses fully verified (Theorem 5.7).
    pub witnesses_checked: u64,
    /// Responses carrying no witness (Theorem 5.7 not applicable).
    pub witnesses_skipped: u64,
    /// Responses or witnesses whose stable prefix could not be
    /// re-verified in bounded memory: they trailed the watermark by more
    /// than the grace window, or were computed with older stability
    /// knowledge than the audit's (crash recovery).
    pub stale_skipped: u64,
    /// Operations stabilized (length of the audited eventual order).
    pub stabilized: u64,
    /// Operations retired (watermark position; `≤ stabilized`).
    pub retired: u64,
    /// Operations currently resident (requested, not yet retired).
    pub resident: usize,
    /// High-water mark of `resident` — the memory bound actually paid.
    pub peak_resident: usize,
    /// Whether a violation has been found (the checker is latched red).
    pub failed: bool,
}

impl AuditStatus {
    /// Watermark lag: operations requested but not yet retired — the
    /// unstable frontier the checker's memory is proportional to.
    pub fn lag(&self) -> u64 {
        self.requests.saturating_sub(self.retired)
    }
}

impl fmt::Display for AuditStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} req / {} resp / {} stabilized / {} retired; {} witnesses ({} skipped, {} stale); \
             resident {} (peak {}); {}",
            self.requests,
            self.responses,
            self.stabilized,
            self.retired,
            self.witnesses_checked,
            self.witnesses_skipped,
            self.stale_skipped,
            self.resident,
            self.peak_resident,
            if self.failed { "FAILED" } else { "ok" }
        )
    }
}

/// A resident (unretired) operation.
#[derive(Clone, Debug)]
struct WindowOp<T: SerialDataType> {
    desc: OpDescriptor<T::Operator>,
    /// `Some((eventual value, chain digest through this op))` once the
    /// operation stabilized.
    eventual: Option<(T::Value, u64)>,
    answered: bool,
}

/// One retired operation kept in the grace ring.
#[derive(Clone, Debug)]
struct Checkpoint<T: SerialDataType> {
    id: OpId,
    strict: bool,
    /// The operation's eventual value (for late Theorem 5.8 checks).
    value: T::Value,
    /// State after the eventual-order prefix ending at this operation
    /// (the replay base for witnesses whose stable prefix ends here).
    state: T::State,
    /// Chain digest of the eventual-order prefix ending at this
    /// operation.
    digest: u64,
}

/// Incremental checker of eventual serializability with bounded memory.
///
/// The module-level docs in `streaming.rs` give the theory; see [`AuditEvent`] for
/// the stream. Every mutating method returns the first violation found
/// and latches it: once red, the checker stays red and further events
/// are ignored.
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, OpDescriptor, OpId, SerialDataType};
/// use esds_spec::{AuditEvent, StreamingChecker};
///
/// #[derive(Clone, Copy, Debug)]
/// struct Ctr;
/// #[derive(Clone, PartialEq, Eq, Debug)]
/// enum Op { Inc, Read }
/// impl SerialDataType for Ctr {
///     type State = i64;
///     type Operator = Op;
///     type Value = i64;
///     fn initial_state(&self) -> i64 { 0 }
///     fn apply(&self, s: &i64, op: &Op) -> (i64, i64) {
///         match op { Op::Inc => (s + 1, s + 1), Op::Read => (*s, *s) }
///     }
/// }
///
/// let id = |s| OpId::new(ClientId(0), s);
/// let mut chk = StreamingChecker::new(Ctr);
/// chk.on_request(OpDescriptor::new(id(0), Op::Inc).with_strict(true))?;
/// chk.on_request(OpDescriptor::new(id(1), Op::Read))?;
/// // The read answered from a replica that had applied both ops:
/// chk.on_response(id(1), 1, Some(vec![id(0), id(1)]))?;
/// // The watermark advances; the strict inc answers its eventual value.
/// chk.on_stabilize(id(0))?;
/// chk.on_stabilize(id(1))?;
/// chk.on_response(id(0), 1, None)?;
/// let cert = chk.finish()?;
/// assert_eq!(cert.ops, 2);
/// # Ok::<(), esds_spec::AuditViolation>(())
/// ```
#[derive(Clone, Debug)]
pub struct StreamingChecker<T: SerialDataType> {
    dt: T,
    cfg: AuditConfig,
    /// Every id ever requested — `O(clients + reordering exceptions)`.
    seen: IdSummary,
    /// Resident operations: requested, not yet retired.
    window: BTreeMap<OpId, WindowOp<T>>,
    /// Client-specified constraints restricted to the window. Edges from
    /// retired predecessors are discharged at retirement (a retired op
    /// precedes everything resident in any audited extension).
    csc: Digraph<OpId>,
    /// Stabilized-but-unretired ops, in eventual order.
    queue: VecDeque<OpId>,
    /// State after the whole stabilized prefix (the stabilization
    /// frontier) — each newly stabilized op's eventual value comes from
    /// applying it here.
    stab_state: T::State,
    stab_digest: u64,
    stabilized_total: u64,
    /// State and digest at the horizon: the eventual-order prefix ending
    /// just before the grace ring.
    base_state: T::State,
    base_digest: u64,
    /// The last `cfg.grace` retired checkpoints.
    ring: VecDeque<Checkpoint<T>>,
    retired_total: u64,
    /// Responses awaiting their op's stabilization for the Theorem 5.8
    /// value check: `(value, strict)`.
    pending: BTreeMap<OpId, Vec<(T::Value, bool)>>,
    requests: u64,
    responses: u64,
    witnesses_checked: u64,
    witnesses_skipped: u64,
    stale_skipped: u64,
    peak_resident: usize,
    failure: Option<AuditViolation>,
}

impl<T: SerialDataType> StreamingChecker<T> {
    /// Creates a checker with the default [`AuditConfig`].
    pub fn new(dt: T) -> Self {
        Self::with_config(dt, AuditConfig::default())
    }

    /// Creates a checker with an explicit configuration.
    pub fn with_config(dt: T, cfg: AuditConfig) -> Self {
        let s0 = dt.initial_state();
        StreamingChecker {
            dt,
            cfg,
            seen: IdSummary::new(),
            window: BTreeMap::new(),
            csc: Digraph::new(),
            queue: VecDeque::new(),
            stab_state: s0.clone(),
            stab_digest: 0,
            stabilized_total: 0,
            base_state: s0,
            base_digest: 0,
            ring: VecDeque::new(),
            retired_total: 0,
            pending: BTreeMap::new(),
            requests: 0,
            responses: 0,
            witnesses_checked: 0,
            witnesses_skipped: 0,
            stale_skipped: 0,
            peak_resident: 0,
            failure: None,
        }
    }

    /// Feeds one event, dispatching on its kind.
    ///
    /// # Errors
    ///
    /// The first [`AuditViolation`] found; the checker latches it.
    pub fn on_event(&mut self, event: AuditEvent<T::Operator, T::Value>) -> AuditResult {
        match event {
            AuditEvent::Request(desc) => self.on_request(desc),
            AuditEvent::Response { id, value, witness } => self.on_response(id, value, witness),
            AuditEvent::Stabilize(id) => self.on_stabilize(id),
        }
    }

    /// Records a request, enforcing client well-formedness (paper §4):
    /// fresh id, known `prev`.
    ///
    /// # Errors
    ///
    /// Duplicate ids and unknown constraint targets are violations.
    pub fn on_request(&mut self, desc: OpDescriptor<T::Operator>) -> AuditResult {
        self.check_latch()?;
        if self.seen.contains(desc.id) {
            return self.fail(
                "well-formedness §4",
                format!("duplicate request {}", desc.id),
            );
        }
        if let Some(p) = desc.prev.iter().find(|p| !self.seen.contains(**p)) {
            return self.fail(
                "well-formedness §4",
                format!("request {} constrains unknown {p}", desc.id),
            );
        }
        self.seen.insert(desc.id);
        self.csc.add_node(desc.id);
        for &p in &desc.prev {
            // Retired predecessors are discharged: they precede every
            // resident op in any extension the audit will consider.
            if self.window.contains_key(&p) {
                self.csc.add_edge(p, desc.id);
            }
        }
        self.window.insert(
            desc.id,
            WindowOp {
                desc,
                eventual: None,
                answered: false,
            },
        );
        self.requests += 1;
        self.peak_resident = self.peak_resident.max(self.window.len());
        Ok(())
    }

    /// Records that the stable watermark advanced past `id`: the next
    /// position of the eventual total order is `id`. Applies the op at
    /// the stabilization frontier (its *eventual value*), checks its
    /// client-specified constraints, resolves responses held for it, and
    /// retires every answered op at the front of the stabilized queue.
    ///
    /// # Errors
    ///
    /// Unknown or repeated ids, constraint violations, and mismatched
    /// held strict responses are violations.
    pub fn on_stabilize(&mut self, id: OpId) -> AuditResult {
        self.check_latch()?;
        if !self.seen.contains(id) {
            return self.fail(
                "Theorem 5.8",
                format!("eventual order names unrequested {id}"),
            );
        }
        let Some(wop) = self.window.get(&id) else {
            // Retired ⇒ already stabilized.
            return self.fail(
                "Theorem 5.8",
                format!("eventual order repeats an operation ({id})"),
            );
        };
        if wop.eventual.is_some() {
            return self.fail(
                "Theorem 5.8",
                format!("eventual order repeats an operation ({id})"),
            );
        }
        // CSC: every direct predecessor must already hold its eventual
        // position (resident ⇒ stabilized; retired ⇒ trivially before).
        // Direct edges suffice — respecting them pointwise at every
        // stabilization makes the whole order respect the closure.
        if let Some(p) = wop
            .desc
            .prev
            .iter()
            .find(|p| matches!(self.window.get(p), Some(q) if q.eventual.is_none()))
        {
            let p = *p;
            return self.fail(
                "Theorem 5.8",
                format!("eventual order violates client-specified constraints ({p} after {id})"),
            );
        }
        let (next, v) = self.dt.apply(&self.stab_state, &wop.desc.op);
        self.stab_state = next;
        self.stab_digest = fold_digest(self.stab_digest, id);
        self.stabilized_total += 1;
        let digest = self.stab_digest;
        let wop = self.window.get_mut(&id).expect("checked resident above");
        wop.eventual = Some((v.clone(), digest));
        self.queue.push_back(id);
        // Resolve responses that were waiting on this eventual value.
        if let Some(held) = self.pending.remove(&id) {
            for (rv, strict) in held {
                if rv != v {
                    return self.fail(
                        if strict {
                            "Theorem 5.8"
                        } else {
                            "Corollary 5.9"
                        },
                        format!("response for {id} was {rv:?}, eventual order yields {v:?}"),
                    );
                }
            }
        }
        self.try_retire();
        Ok(())
    }

    /// Feeds a polled [`final_prefix`]: its part past what already
    /// stabilized becomes `Stabilize` events. A poll shorter than, or
    /// ordered differently from, the stabilized prefix (a replica fresh
    /// from a crash relearning labels) is skipped; a later one feeds the
    /// missed suffix.
    ///
    /// # Errors
    ///
    /// As [`StreamingChecker::on_stabilize`].
    pub fn on_final_prefix(&mut self, prefix: &[OpId]) -> AuditResult {
        let fed = self.stabilized_total as usize;
        if prefix.len() < fed || order_digest(&prefix[..fed]) != self.stab_digest {
            return Ok(());
        }
        prefix[fed..]
            .iter()
            .try_for_each(|&id| self.on_stabilize(id))
    }

    /// Records a response: the Theorem 5.8 / Corollary 5.9 value check
    /// against the eventual order (immediately if `id` has stabilized,
    /// held as pending otherwise), then the Theorem 5.7 witness check
    /// when a witness is present.
    ///
    /// # Errors
    ///
    /// Value mismatches and inexplicable witnesses are violations.
    pub fn on_response(
        &mut self,
        id: OpId,
        value: T::Value,
        witness: Option<Vec<OpId>>,
    ) -> AuditResult {
        self.check_latch()?;
        self.responses += 1;
        if !self.seen.contains(id) {
            return self.fail("Theorem 5.7", format!("response for unrequested {id}"));
        }
        if let Some(wop) = self.window.get_mut(&id) {
            wop.answered = true;
            let strict = wop.desc.strict;
            let eventual = wop.eventual.as_ref().map(|(v, _)| v.clone());
            if strict || self.cfg.check_all {
                match eventual {
                    Some(v) if v != value => {
                        return self.fail(
                            if strict {
                                "Theorem 5.8"
                            } else {
                                "Corollary 5.9"
                            },
                            format!("response for {id} was {value:?}, eventual order yields {v:?}"),
                        );
                    }
                    Some(_) => {}
                    None => {
                        self.pending
                            .entry(id)
                            .or_default()
                            .push((value.clone(), strict));
                    }
                }
            }
        } else {
            // Already retired: check against the grace ring, if the
            // checkpoint is still resident.
            match self.ring.iter().find(|c| c.id == id) {
                Some(cp) if (cp.strict || self.cfg.check_all) && cp.value != value => {
                    let (v, strict) = (cp.value.clone(), cp.strict);
                    return self.fail(
                        if strict {
                            "Theorem 5.8"
                        } else {
                            "Corollary 5.9"
                        },
                        format!("response for {id} was {value:?}, eventual order yields {v:?}"),
                    );
                }
                Some(_) => {}
                None => self.stale_skipped += 1,
            }
        }
        match witness {
            Some(w) => self.check_witness(id, &value, &w)?,
            None => self.witnesses_skipped += 1,
        }
        self.try_retire();
        Ok(())
    }

    /// Declares the stream over: every requested operation must have
    /// stabilized (the eventual order covers the whole trace — the batch
    /// checker's permutation check). Returns the final certificate.
    ///
    /// # Errors
    ///
    /// A latched violation, or an operation the eventual order never
    /// covered.
    pub fn finish(&self) -> Result<AuditCertificate, AuditViolation> {
        if let Some(v) = &self.failure {
            return Err(v.clone());
        }
        if let Some((id, _)) = self.window.iter().find(|(_, w)| w.eventual.is_none()) {
            return Err(self.make_violation(
                "Theorem 5.8",
                format!(
                    "eventual order covers {} ops, {} were requested ({id} never stabilized)",
                    self.stabilized_total, self.requests
                ),
            ));
        }
        Ok(self.certificate())
    }

    /// The running certificate: operations stabilized so far and the
    /// chain digest of their order. Final and complete once [`finish`]
    /// returns `Ok`.
    ///
    /// [`finish`]: StreamingChecker::finish
    pub fn certificate(&self) -> AuditCertificate {
        AuditCertificate {
            ops: self.stabilized_total,
            digest: self.stab_digest,
        }
    }

    /// The current audit status (counters, watermark, memory bound).
    pub fn status(&self) -> AuditStatus {
        AuditStatus {
            requests: self.requests,
            responses: self.responses,
            witnesses_checked: self.witnesses_checked,
            witnesses_skipped: self.witnesses_skipped,
            stale_skipped: self.stale_skipped,
            stabilized: self.stabilized_total,
            retired: self.retired_total,
            resident: self.window.len(),
            peak_resident: self.peak_resident,
            failed: self.failure.is_some(),
        }
    }

    /// The latched violation, if the audit has failed.
    pub fn violation(&self) -> Option<&AuditViolation> {
        self.failure.as_ref()
    }

    /// Operations currently resident (requested, not retired).
    pub fn resident(&self) -> usize {
        self.window.len()
    }

    // ------------------------------------------------------------------
    // Internals.

    fn check_latch(&self) -> AuditResult {
        match &self.failure {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    fn make_violation(&self, guarantee: &'static str, detail: String) -> AuditViolation {
        AuditViolation {
            violation: TraceViolation { guarantee, detail },
            watermark: self.retired_total,
            resident: self.window.len(),
            window: self
                .window
                .keys()
                .take(WINDOW_SNAPSHOT_CAP)
                .copied()
                .collect(),
        }
    }

    fn fail(&mut self, guarantee: &'static str, detail: String) -> AuditResult {
        let v = self.make_violation(guarantee, detail);
        self.failure = Some(v.clone());
        Err(v)
    }

    fn is_retired(&self, id: OpId) -> bool {
        self.seen.contains(id) && !self.window.contains_key(&id)
    }

    /// Retired prefix length covered by the horizon checkpoint.
    fn horizon(&self) -> u64 {
        self.retired_total - self.ring.len() as u64
    }

    fn digest_at(&self, k: u64) -> u64 {
        if k == self.horizon() {
            self.base_digest
        } else {
            self.ring[(k - self.horizon() - 1) as usize].digest
        }
    }

    fn state_at(&self, k: u64) -> &T::State {
        if k == self.horizon() {
            &self.base_state
        } else {
            &self.ring[(k - self.horizon() - 1) as usize].state
        }
    }

    /// The Theorem 5.7 check for one witnessed response, windowed.
    ///
    /// The witness `w` is split at `k`, the length of its leading run of
    /// retired operations. By the solid-prefix invariant that run must
    /// be exactly the eventual order's prefix `[0, k)` — verified
    /// against the chain digest checkpoint (no replay, no stored
    /// descriptors). The tentative remainder `w[k..]` is extended with
    /// the rest of the resident window in CSC-consistent order and
    /// replayed from the checkpoint state at `k` — exactly the batch
    /// checker's `to(x)` construction, restricted to the window.
    fn check_witness(&mut self, x: OpId, value: &T::Value, w: &[OpId]) -> AuditResult {
        let mut k = 0usize;
        while k < w.len() && self.is_retired(w[k]) {
            k += 1;
        }
        let mut suffix = BTreeSet::new();
        for &wid in &w[k..] {
            if !self.seen.contains(wid) {
                return self.fail("Theorem 5.7", format!("witness of {x} names unknown {wid}"));
            }
            if self.is_retired(wid) {
                // A retired operation after a tentative one: the witness
                // was computed with *older* stability knowledge than the
                // audit's (e.g. by a replica freshly recovered from a
                // crash, still rebuilding label estimates). In bounded
                // memory that is indistinguishable from a misordered
                // prefix, so it is counted and skipped, not failed; the
                // batch `TraceChecker` remains the complete oracle.
                self.stale_skipped += 1;
                return Ok(());
            }
            if !suffix.insert(wid) {
                return self.fail("Theorem 5.7", format!("witness of {x} repeats ids"));
            }
        }
        if (k as u64) < self.horizon() {
            // The witness's stable prefix predates the grace ring; the
            // memory to verify it has been retired. Contract kept ⇒ this
            // only happens for very stale duplicates.
            self.stale_skipped += 1;
            return Ok(());
        }
        let folded = w[..k].iter().fold(0, |d, &id| fold_digest(d, id));
        if folded != self.digest_at(k as u64) {
            // The witness's leading retired run is not the eventual
            // order's prefix. Honest causes exist (a recovering replica
            // reorders not-yet-relearned labels), and replaying such a
            // witness would need state retired long ago — skip, counted.
            self.stale_skipped += 1;
            return Ok(());
        }
        // CSC-consistent extension over the window (Theorem 5.7's to(x)).
        let rest: BTreeSet<OpId> = self
            .window
            .keys()
            .filter(|id| !suffix.contains(id))
            .copied()
            .collect();
        let mut total: Vec<OpId> = w[k..].to_vec();
        total.extend(
            self.csc
                .induced_on(&rest)
                .topo_sort()
                .expect("CSC acyclic for well-formed clients"),
        );
        if !total_order_consistent(&total, &self.csc) {
            return self.fail(
                "Theorem 5.7",
                format!("no CSC-consistent extension of the witness of {x}"),
            );
        }
        // Replay the extension from the checkpoint at k, capturing x's
        // value; a retired x is read off its grace checkpoint instead.
        let mut got: Option<T::Value> = if self.window.contains_key(&x) {
            None
        } else {
            match self.ring.iter().find(|c| c.id == x) {
                Some(cp) => Some(cp.value.clone()),
                None => {
                    self.stale_skipped += 1;
                    return Ok(());
                }
            }
        };
        let mut state = self.state_at(k as u64).clone();
        for wid in total {
            let op = &self.window[&wid].desc.op;
            let (next, v) = self.dt.apply(&state, op);
            state = next;
            if wid == x {
                got = Some(v);
            }
        }
        match got {
            Some(v) if v == *value => {
                self.witnesses_checked += 1;
                Ok(())
            }
            other => self.fail(
                "Theorem 5.7",
                format!("witness of {x} yields {other:?}, response was {value:?}"),
            ),
        }
    }

    /// Retires every answered operation at the front of the stabilized
    /// queue: drops its descriptor and constraint node, pushes its
    /// checkpoint onto the grace ring, and advances the watermark. The
    /// retired set is always the eventual order's prefix, which is what
    /// makes witness-prefix digest checks sound.
    fn try_retire(&mut self) {
        while let Some(&front) = self.queue.front() {
            if !self.window.get(&front).map(|w| w.answered).unwrap_or(false) {
                break;
            }
            self.queue.pop_front();
            let wop = self.window.remove(&front).expect("queued ops are resident");
            let drop: BTreeSet<OpId> = [front].into();
            self.csc.remove_nodes(&drop);
            self.pending.remove(&front);
            let prev_state = self
                .ring
                .back()
                .map(|c| c.state.clone())
                .unwrap_or_else(|| self.base_state.clone());
            let (state, _) = self.dt.apply(&prev_state, &wop.desc.op);
            let (value, digest) = wop.eventual.expect("queued ops are stabilized");
            self.ring.push_back(Checkpoint {
                id: front,
                strict: wop.desc.strict,
                value,
                state,
                digest,
            });
            self.retired_total += 1;
            while self.ring.len() > self.cfg.grace {
                let old = self.ring.pop_front().expect("len checked");
                self.base_state = old.state;
                self.base_digest = old.digest;
            }
        }
    }
}

/// The result of feeding one event: `Ok` or the first (latched)
/// violation.
pub type AuditResult = Result<(), AuditViolation>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceChecker;
    use esds_core::ClientId;

    #[derive(Clone, Copy, Debug)]
    struct Ctr;
    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Op {
        Inc,
        Read,
    }
    impl SerialDataType for Ctr {
        type State = i64;
        type Operator = Op;
        type Value = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn apply(&self, s: &i64, op: &Op) -> (i64, i64) {
            match op {
                Op::Inc => (s + 1, s + 1),
                Op::Read => (*s, *s),
            }
        }
    }

    fn id(s: u64) -> OpId {
        OpId::new(ClientId(0), s)
    }

    #[test]
    fn happy_path_certificate_matches_order_digest() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc).with_strict(true))
            .unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Read)).unwrap();
        chk.on_response(id(1), 1, Some(vec![id(0), id(1)])).unwrap();
        chk.on_stabilize(id(0)).unwrap();
        chk.on_stabilize(id(1)).unwrap();
        chk.on_response(id(0), 1, None).unwrap();
        let cert = chk.finish().unwrap();
        assert_eq!(cert.ops, 2);
        assert_eq!(cert.digest, order_digest(&[id(0), id(1)]));
        let st = chk.status();
        assert_eq!(st.witnesses_checked, 1);
        assert_eq!(st.witnesses_skipped, 1);
        assert_eq!(st.retired, 2, "both answered + stabilized ops retire");
        assert_eq!(st.resident, 0);
        assert!(!st.failed);
    }

    #[test]
    fn well_formedness_rejections() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        let dup = chk.on_request(OpDescriptor::new(id(0), Op::Read));
        assert!(dup.is_err(), "duplicate id must be rejected");
        // Latched: everything after the first violation fails.
        assert!(chk.on_request(OpDescriptor::new(id(1), Op::Read)).is_err());
        assert!(chk.finish().is_err());

        let mut chk = StreamingChecker::new(Ctr);
        let e = chk
            .on_request(OpDescriptor::new(id(0), Op::Read).with_prev([id(7)]))
            .unwrap_err();
        assert!(e.violation.detail.contains("unknown"), "{e}");
    }

    #[test]
    fn strict_value_mismatch_caught_both_orders() {
        // Response after stabilize.
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc).with_strict(true))
            .unwrap();
        chk.on_stabilize(id(0)).unwrap();
        let e = chk.on_response(id(0), 5, None).unwrap_err();
        assert_eq!(e.violation.guarantee, "Theorem 5.8");

        // Response before stabilize (held pending, checked at stabilize).
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc).with_strict(true))
            .unwrap();
        chk.on_response(id(0), 5, None).unwrap();
        let e = chk.on_stabilize(id(0)).unwrap_err();
        assert_eq!(e.violation.guarantee, "Theorem 5.8");
        assert_eq!(e.watermark, 0);
    }

    #[test]
    fn check_all_mode_checks_nonstrict_too() {
        let mut chk = StreamingChecker::with_config(
            Ctr,
            AuditConfig {
                check_all: true,
                ..AuditConfig::default()
            },
        );
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Read)).unwrap();
        chk.on_response(id(1), 0, None).unwrap();
        chk.on_stabilize(id(0)).unwrap();
        // Under eto = [inc, read] the read's eventual value is 1, not 0.
        let e = chk.on_stabilize(id(1)).unwrap_err();
        assert_eq!(e.violation.guarantee, "Corollary 5.9");
    }

    #[test]
    fn lying_witness_caught() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Read)).unwrap();
        let e = chk
            .on_response(id(1), 7, Some(vec![id(0), id(1)]))
            .unwrap_err();
        assert_eq!(e.violation.guarantee, "Theorem 5.7");
        assert!(e.violation.detail.contains("yields"), "{e}");
    }

    #[test]
    fn witness_naming_unknown_id_caught() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Read)).unwrap();
        let e = chk
            .on_response(id(0), 0, Some(vec![id(9), id(0)]))
            .unwrap_err();
        assert!(e.violation.detail.contains("unknown"), "{e}");
    }

    #[test]
    fn witness_violating_csc_caught() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Read).with_prev([id(0)]))
            .unwrap();
        // Witness orders the read before its constraint target.
        let e = chk
            .on_response(id(1), 0, Some(vec![id(1), id(0)]))
            .unwrap_err();
        assert_eq!(e.violation.guarantee, "Theorem 5.7");
        assert!(e.violation.detail.contains("CSC-consistent"), "{e}");
    }

    #[test]
    fn eventual_order_violating_csc_caught() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Read).with_prev([id(0)]))
            .unwrap();
        let e = chk.on_stabilize(id(1)).unwrap_err();
        assert_eq!(e.violation.guarantee, "Theorem 5.8");
        assert!(e.violation.detail.contains("constraints"), "{e}");
    }

    #[test]
    fn eventual_order_repeat_and_unknown_caught() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_stabilize(id(0)).unwrap();
        assert!(chk.on_stabilize(id(0)).is_err(), "repeat");

        let mut chk = StreamingChecker::new(Ctr);
        assert!(chk.on_stabilize(id(3)).is_err(), "unrequested");
    }

    #[test]
    fn finish_requires_full_coverage() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        let e = chk.finish().unwrap_err();
        assert!(e.violation.detail.contains("never stabilized"), "{e}");
    }

    #[test]
    fn retirement_bounds_memory() {
        // Sequential workload: request → respond → stabilize, 10k ops.
        // Resident must track the (tiny) unstable frontier, not history.
        let mut chk = StreamingChecker::with_config(
            Ctr,
            AuditConfig {
                grace: 8,
                check_all: true,
            },
        );
        let n = 10_000u64;
        let mut expect = 0i64;
        let mut order = Vec::new();
        for s in 0..n {
            chk.on_request(OpDescriptor::new(id(s), Op::Inc)).unwrap();
            expect += 1;
            chk.on_response(id(s), expect, None).unwrap();
            chk.on_stabilize(id(s)).unwrap();
            order.push(id(s));
            assert!(chk.resident() <= 2, "resident grew at {s}");
        }
        let cert = chk.finish().unwrap();
        assert_eq!(cert.ops, n);
        assert_eq!(cert.digest, order_digest(&order));
        let st = chk.status();
        assert_eq!(st.retired, n);
        assert!(
            st.peak_resident <= 2,
            "peak resident {} should be O(1) for a sequential stream",
            st.peak_resident
        );
    }

    #[test]
    fn grace_ring_verifies_trailing_witnesses() {
        // Retire a prefix, then verify a witness whose ops are all
        // retired: the digest checkpoint must explain it with no
        // descriptors resident.
        let mut chk = StreamingChecker::with_config(
            Ctr,
            AuditConfig {
                grace: 4,
                check_all: false,
            },
        );
        for s in 0..3u64 {
            chk.on_request(OpDescriptor::new(id(s), Op::Inc)).unwrap();
            chk.on_response(id(s), s as i64 + 1, None).unwrap();
            chk.on_stabilize(id(s)).unwrap();
        }
        assert_eq!(chk.status().retired, 3);
        // A duplicate delivery of op 2's response, witness = the full
        // (now fully retired) prefix.
        chk.on_response(id(2), 3, Some(vec![id(0), id(1), id(2)]))
            .unwrap();
        assert_eq!(chk.status().witnesses_checked, 1);
        assert_eq!(chk.status().stale_skipped, 0);
        // A witness whose retired prefix is misordered relative to the
        // audited eventual order is indistinguishable (in bounded
        // memory) from one computed by a recovering replica with older
        // stability knowledge: it is counted and skipped, never failed.
        chk.on_response(id(2), 3, Some(vec![id(1), id(0), id(2)]))
            .unwrap();
        assert_eq!(chk.status().stale_skipped, 1);
        assert_eq!(chk.status().witnesses_checked, 1);
    }

    #[test]
    fn beyond_grace_is_skipped_not_failed() {
        let mut chk = StreamingChecker::with_config(
            Ctr,
            AuditConfig {
                grace: 2,
                check_all: true,
            },
        );
        for s in 0..10u64 {
            chk.on_request(OpDescriptor::new(id(s), Op::Inc)).unwrap();
            chk.on_response(id(s), s as i64 + 1, None).unwrap();
            chk.on_stabilize(id(s)).unwrap();
        }
        // Op 0 retired long ago; its checkpoint is gone.
        chk.on_response(id(0), 999, None).unwrap();
        assert_eq!(chk.status().stale_skipped, 1);
        assert!(chk.finish().is_ok(), "stale responses don't fail the audit");
    }

    #[test]
    fn unanswered_ops_pin_the_window() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc)).unwrap();
        chk.on_request(OpDescriptor::new(id(1), Op::Inc)).unwrap();
        chk.on_stabilize(id(0)).unwrap();
        chk.on_stabilize(id(1)).unwrap();
        chk.on_response(id(1), 2, None).unwrap();
        // Op 1 is answered and stabilized but op 0 (earlier position)
        // is unanswered: retirement must not pass it.
        assert_eq!(chk.status().retired, 0);
        chk.on_response(id(0), 1, None).unwrap();
        assert_eq!(chk.status().retired, 2);
    }

    #[test]
    fn agrees_with_batch_checker_on_a_small_trace() {
        // Shared trace: three ops, one strict, witnessed responses.
        let descs = vec![
            OpDescriptor::new(id(0), Op::Inc),
            OpDescriptor::new(id(1), Op::Inc).with_prev([id(0)]),
            OpDescriptor::new(id(2), Op::Read).with_strict(true),
        ];
        let eto = vec![id(0), id(1), id(2)];
        let responses: Vec<(OpId, i64, Option<Vec<OpId>>)> = vec![
            (id(0), 1, Some(vec![id(0)])),
            (id(1), 2, Some(vec![id(0), id(1)])),
            (id(2), 2, Some(vec![id(0), id(1), id(2)])),
        ];

        let mut batch = TraceChecker::new(Ctr);
        for d in &descs {
            batch.on_request(d.clone()).unwrap();
        }
        for (i, v, w) in &responses {
            batch.on_response(*i, *v, w.clone());
        }
        assert!(batch.check_eventual_order(&eto, false).is_empty());
        let (viol, _) = batch.check_witnessed_responses();
        assert!(viol.is_empty());

        let mut chk = StreamingChecker::new(Ctr);
        for d in &descs {
            chk.on_request(d.clone()).unwrap();
        }
        for (i, v, w) in &responses {
            chk.on_response(*i, *v, w.clone()).unwrap();
        }
        for x in &eto {
            chk.on_stabilize(*x).unwrap();
        }
        let cert = chk.finish().unwrap();
        assert_eq!(cert.digest, order_digest(&eto));
    }

    #[test]
    fn display_formats() {
        let mut chk = StreamingChecker::new(Ctr);
        chk.on_request(OpDescriptor::new(id(0), Op::Inc).with_strict(true))
            .unwrap();
        chk.on_stabilize(id(0)).unwrap();
        let e = chk.on_response(id(0), 9, None).unwrap_err();
        let s = format!("{e}");
        assert!(s.contains("Theorem 5.8") && s.contains("watermark"), "{s}");
        let c = format!("{}", chk.certificate());
        assert!(c.contains("ops"), "{c}");
        let st = format!("{}", chk.status());
        assert!(st.contains("FAILED"), "{st}");
    }
}
