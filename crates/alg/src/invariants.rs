//! The paper's invariants (Sections 4, 7, 8, 10) as executable checks over
//! a [`SystemView`].
//!
//! These are the proof obligations of the simulation proof (Theorem 8.4)
//! turned into runtime predicates. They do not *prove* the theorems, but
//! they validate this implementation against every stated invariant on
//! arbitrarily many reachable states; the property tests drive them over
//! randomized executions with loss, duplication, and reordering.
//!
//! Scope: the message-content invariants (the parts of 7.3, 7.5, 7.10,
//! 7.17, 7.18 quantifying over in-flight gossip) are stated by the paper
//! for the *full-snapshot* gossip algorithm. Under batched gossip
//! (§10.2 + §10.4) messages are deltas and those parts do not apply
//! verbatim; [`check_all`] detects the configuration and checks only the
//! applicable invariants. Replica-state invariants are checked always.

use std::collections::BTreeSet;
use std::fmt;

use esds_core::{csc, Digraph, LabelSlot, OpId, ReplicaId, SerialDataType};

use crate::global::SystemView;
use crate::replica::GossipStrategy;

/// A failed invariant: which one, and what broke.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation {
    /// Paper identifier, e.g. `"Invariant 7.2"`.
    pub invariant: &'static str,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

fn fail(invariant: &'static str, detail: impl Into<String>) -> InvariantViolation {
    InvariantViolation {
        invariant,
        detail: detail.into(),
    }
}

/// Runs every applicable invariant check; returns all violations found
/// (empty = all invariants hold in this state).
pub fn check_all<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut v = Vec::new();
    v.extend(inv_4_users(view));
    v.extend(inv_7_1(view));
    v.extend(inv_7_2(view));
    v.extend(inv_7_4(view));
    v.extend(inv_7_5(view));
    v.extend(inv_7_6(view));
    v.extend(inv_7_7(view));
    v.extend(inv_7_8(view));
    v.extend(inv_7_10(view));
    v.extend(inv_7_11(view));
    v.extend(inv_7_12(view));
    v.extend(inv_7_13(view));
    v.extend(inv_7_15(view));
    v.extend(inv_7_17(view));
    v.extend(inv_7_19(view));
    v.extend(inv_7_20(view));
    v.extend(inv_7_21(view));
    v.extend(inv_8_1(view));
    v.extend(inv_8_3(view));
    v.extend(inv_10_memo(view));
    if full_gossip_messages(view) {
        v.extend(inv_7_3(view));
        v.extend(inv_7_5_messages(view));
        v.extend(inv_7_10_messages(view));
        v.extend(inv_7_17_messages(view));
        v.extend(inv_7_18(view));
    }
    v
}

/// Whether in-flight messages are full snapshots (the configuration the
/// message-content invariants are stated for).
fn full_gossip_messages<T: SerialDataType>(view: &SystemView<'_, T>) -> bool {
    view.replicas.iter().all(|r| {
        r.config().gossip == GossipStrategy::Full
            && !r.is_recovering()
            // §10.2 compaction removes descriptors retroactively, so an
            // in-flight message can legitimately be "ahead" of rcvd_r.
            && r.stats().compacted == 0
    })
}

/// Invariants 4.1–4.2: requested ids unique (guaranteed by the map key) and
/// `TC(CSC(requested))` a strict partial order.
pub fn inv_4_users<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let g = Digraph::from_pairs(csc(view.requested.values()));
    if !g.is_strict_partial_order() {
        return vec![fail(
            "Invariant 4.2",
            "client-specified constraints contain a cycle",
        )];
    }
    for d in view.requested.values() {
        for p in &d.prev {
            if !view.requested.contains_key(p) {
                return vec![fail(
                    "Invariant 4.x",
                    format!("{} depends on unrequested {p}", d.id),
                )];
            }
        }
    }
    Vec::new()
}

/// Invariant 7.1: `done_r[r] = ∪ᵢ done_r[i]` and `stable_r[r] = ∪ᵢ
/// stable_r[i]`.
pub fn inv_7_1<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        let r = rep.id();
        for i in 0..rep.n() as u32 {
            let i = ReplicaId(i);
            if !rep.done(i).is_subset(rep.done_here()) {
                out.push(fail(
                    "Invariant 7.1",
                    format!("done_{r}[{i}] ⊄ done_{r}[{r}]"),
                ));
            }
            if !rep.stable(i).is_subset(rep.stable_here()) {
                out.push(fail(
                    "Invariant 7.1",
                    format!("stable_{r}[{i}] ⊄ stable_{r}[{r}]"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.2: `stable_r[r] = ∩ᵢ done_r[i]`.
pub fn inv_7_2<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        let r = rep.id();
        let mut inter: Option<BTreeSet<OpId>> = None;
        for i in 0..rep.n() as u32 {
            let d = rep.done(ReplicaId(i));
            inter = Some(match inter {
                None => d.clone(),
                Some(acc) => acc.intersection(d).copied().collect(),
            });
        }
        let inter = inter.unwrap_or_default();
        if &inter != rep.stable_here() {
            out.push(fail(
                "Invariant 7.2",
                format!(
                    "stable_{r}[{r}] has {} ops, ∩ᵢ done_{r}[i] has {}",
                    rep.stable_here().len(),
                    inter.len()
                ),
            ));
        }
    }
    out
}

/// Invariant 7.3 (message part): a gossip message from `r` is no more
/// up-to-date than `r`'s current state, and `S ⊆ D`.
pub fn inv_7_3<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for (_, m) in &view.gossip_in_flight {
        let rep = view.replicas[m.from.0 as usize];
        let r = m.from;
        if !m.rcvd.iter().all(|d| rep.rcvd().contains_key(&d.id)) {
            out.push(fail("Invariant 7.3", format!("R_m ⊄ rcvd_{r}")));
        }
        if !m.done.iter().all(|x| rep.done_here().contains(x)) {
            out.push(fail("Invariant 7.3", format!("D_m ⊄ done_{r}[{r}]")));
        }
        if !m
            .labels
            .iter()
            .all(|(id, l)| rep.labels().get(*id) <= LabelSlot::Fin(*l))
        {
            out.push(fail("Invariant 7.3", format!("L_m < label_{r} somewhere")));
        }
        if !m.stable.iter().all(|x| rep.stable_here().contains(x)) {
            out.push(fail("Invariant 7.3", format!("S_m ⊄ stable_{r}[{r}]")));
        }
        let d: BTreeSet<OpId> = m.done.iter().copied().collect();
        if !m.stable.iter().all(|x| d.contains(x)) {
            out.push(fail("Invariant 7.3", "S_m ⊄ D_m".to_string()));
        }
    }
    out
}

/// Invariant 7.4: `done_r[i] ⊆ done_i[i]` and `stable_r[i] ⊆ stable_i[i]`
/// — third-party knowledge is never ahead of the subject. (Does not hold
/// across a crash that lost `i`'s volatile memory; skip in crash tests.)
pub fn inv_7_4<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        let r = rep.id();
        for other in &view.replicas {
            let i = other.id();
            if !rep.done(i).is_subset(other.done_here()) {
                out.push(fail(
                    "Invariant 7.4",
                    format!("done_{r}[{i}] ⊄ done_{i}[{i}]"),
                ));
            }
            if !rep.stable(i).is_subset(other.stable_here()) {
                out.push(fail(
                    "Invariant 7.4",
                    format!("stable_{r}[{i}] ⊄ stable_{i}[{i}]"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.5 (replica part): `done_r[r].id = {id : label_r(id) < ∞}`.
pub fn inv_7_5<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        let r = rep.id();
        let labeled: BTreeSet<OpId> = rep.labels().iter().map(|(id, _)| id).collect();
        if &labeled != rep.done_here() {
            out.push(fail(
                "Invariant 7.5",
                format!(
                    "labeled ids ({}) ≠ done_{r}[{r}] ({})",
                    labeled.len(),
                    rep.done_here().len()
                ),
            ));
        }
    }
    out
}

/// Invariant 7.5 (message part): `D_m.id = {id : L_m(id) < ∞}`.
pub fn inv_7_5_messages<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for (_, m) in &view.gossip_in_flight {
        let labeled: BTreeSet<OpId> = m.labels.iter().map(|(id, _)| *id).collect();
        let done: BTreeSet<OpId> = m.done.iter().copied().collect();
        if labeled != done {
            out.push(fail("Invariant 7.5", "D_m.id ≠ labeled ids of L_m"));
        }
    }
    out
}

/// Invariant 7.6: everything in the system was requested.
pub fn inv_7_6<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        for id in rep.rcvd().keys() {
            if !view.requested.contains_key(id) {
                out.push(fail(
                    "Invariant 7.6",
                    format!("{id} received but never requested"),
                ));
            }
        }
    }
    for (_, m) in &view.gossip_in_flight {
        for d in &m.rcvd {
            if !view.requested.contains_key(&d.id) {
                out.push(fail(
                    "Invariant 7.6",
                    format!("{} gossiped but never requested", d.id),
                ));
            }
        }
    }
    out
}

/// Invariant 7.7: responded operations are done at some replica.
pub fn inv_7_7<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let ops = view.ops();
    view.responded
        .iter()
        .filter(|id| !ops.contains(id))
        .map(|id| fail("Invariant 7.7", format!("{id} responded but not done")))
        .collect()
}

/// Invariant 7.8: requested operations no longer waiting are done
/// somewhere.
pub fn inv_7_8<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let ops = view.ops();
    view.requested
        .keys()
        .filter(|id| !view.waiting.contains(id) && !ops.contains(id))
        .map(|id| {
            fail(
                "Invariant 7.8",
                format!("{id} neither waiting nor done anywhere"),
            )
        })
        .collect()
}

/// Invariant 7.10 (replica part): client-specified constraints are
/// respected by every replica's labels: `(id, id′) ∈ CSC(ops)` implies
/// `label_r(id) ≤ label_r(id′)`.
pub fn inv_7_10<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let descs = view.op_descriptors();
    for (a, b) in csc(descs.values()) {
        for rep in &view.replicas {
            if rep.labels().get(a) > rep.labels().get(b) {
                out.push(fail(
                    "Invariant 7.10",
                    format!(
                        "label_{}({a}) > label_{}({b}) despite {a} ∈ {b}.prev",
                        rep.id(),
                        rep.id()
                    ),
                ));
            }
        }
    }
    out
}

/// Invariant 7.10 (message part): same, for the label functions carried by
/// in-flight gossip.
pub fn inv_7_10_messages<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let descs = view.op_descriptors();
    let pairs = csc(descs.values());
    for (_, m) in &view.gossip_in_flight {
        let label = |id: OpId| -> LabelSlot {
            m.labels
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, l)| LabelSlot::Fin(*l))
                .unwrap_or(LabelSlot::Inf)
        };
        for (a, b) in &pairs {
            if label(*a) > label(*b) {
                out.push(fail(
                    "Invariant 7.10",
                    format!("L_m({a}) > L_m({b}) despite constraint"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.11: `TC(CSC(ops) ∪ lc_r)` is a strict partial order.
pub fn inv_7_11<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let descs = view.op_descriptors();
    let ops = view.ops();
    for rep in &view.replicas {
        let mut g = view.lc(rep.id(), &ops);
        for (a, b) in csc(descs.values()) {
            g.add_edge(a, b);
        }
        if !g.is_strict_partial_order() {
            out.push(fail(
                "Invariant 7.11",
                format!("TC(CSC(ops) ∪ lc_{}) has a cycle", rep.id()),
            ));
        }
    }
    out
}

/// Invariant 7.12: `TC(CSC(ops) ∪ sc)` is a strict partial order.
pub fn inv_7_12<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let descs = view.op_descriptors();
    let mut g = view.sc();
    for (a, b) in csc(descs.values()) {
        g.add_edge(a, b);
    }
    if g.is_strict_partial_order() {
        Vec::new()
    } else {
        vec![fail("Invariant 7.12", "TC(CSC(ops) ∪ sc) has a cycle")]
    }
}

/// Invariant 7.13: operations bearing a label from 𝓛ᵣ anywhere in the
/// system are done at `r`.
pub fn inv_7_13<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let mut check = |id: OpId, owner: ReplicaId, whence: String| {
        let rep = view.replicas[owner.0 as usize];
        if !rep.done_here().contains(&id) {
            out.push(fail(
                "Invariant 7.13",
                format!("{id} has a label from {owner} ({whence}) but is not done at {owner}"),
            ));
        }
    };
    for rep in &view.replicas {
        for (id, l) in rep.labels().iter() {
            check(id, l.replica, format!("at {}", rep.id()));
        }
    }
    for (_, m) in &view.gossip_in_flight {
        for (id, l) in &m.labels {
            check(*id, l.replica, format!("in gossip from {}", m.from));
        }
    }
    out
}

/// Invariant 7.15: `lc_r` totally orders `done_r[r]` (labels are unique at
/// each replica).
pub fn inv_7_15<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        // LabelMap is injective by construction; totality = every done op
        // labeled, i.e. Invariant 7.5, plus distinctness, which the
        // two-sided map enforces. Re-verify counts anyway.
        let order = rep.local_order();
        if order.len() != rep.done_here().len() {
            out.push(fail(
                "Invariant 7.15",
                format!("local order at {} misses done ops", rep.id()),
            ));
        }
    }
    out
}

/// Invariant 7.17 (replica part): if some replica has label `l ∈ 𝓛ᵣ` for
/// `id`, then `label_r(id) ≤ l` — the label's *generator* always holds the
/// smallest value.
pub fn inv_7_17<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        for (id, l) in rep.labels().iter() {
            let gen = view.replicas[l.replica.0 as usize];
            if gen.labels().get(id) > LabelSlot::Fin(l) {
                out.push(fail(
                    "Invariant 7.17",
                    format!(
                        "{} holds {l} for {id} but generator {} has a larger label",
                        rep.id(),
                        l.replica
                    ),
                ));
            }
        }
    }
    out
}

/// Invariant 7.17 (message part): same for labels in flight.
pub fn inv_7_17_messages<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for (_, m) in &view.gossip_in_flight {
        for (id, l) in &m.labels {
            let gen = view.replicas[l.replica.0 as usize];
            if gen.labels().get(*id) > LabelSlot::Fin(*l) {
                out.push(fail(
                    "Invariant 7.17",
                    format!("gossip holds {l} for {id} but its generator has larger"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.18: if `label_r(id′) = l ∈ 𝓛ᵣ` and `l < label_r(id)`, then
/// anyone who knows `id` is done at `r` holds a label ≤ l for `id′`.
pub fn inv_7_18<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        let r = rep.id();
        for (id_prime, l) in rep.labels().iter() {
            if l.replica != r {
                continue;
            }
            // Candidate ids with larger label at r (or unlabeled = ∞).
            for id in view.requested.keys() {
                if rep.labels().get(*id) <= LabelSlot::Fin(l) {
                    continue;
                }
                for other in &view.replicas {
                    if other.done(r).contains(id)
                        && other.labels().get(id_prime) > LabelSlot::Fin(l)
                    {
                        out.push(fail(
                            "Invariant 7.18",
                            format!(
                                "{} knows {id} done at {r} but label({id_prime}) > {l}",
                                other.id()
                            ),
                        ));
                    }
                }
                for (_, m) in &view.gossip_in_flight {
                    let msg_label = |want: OpId| -> LabelSlot {
                        m.labels
                            .iter()
                            .find(|(i, _)| *i == want)
                            .map(|(_, l)| LabelSlot::Fin(*l))
                            .unwrap_or(LabelSlot::Inf)
                    };
                    let in_d = m.from == r && m.done.contains(id);
                    let in_s = m.stable.contains(id);
                    if (in_d || in_s) && msg_label(id_prime) > LabelSlot::Fin(l) {
                        out.push(fail(
                            "Invariant 7.18",
                            format!("gossip shows {id} done at {r} but L_m({id_prime}) > {l}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Invariant 7.19: a replica with a stable operation holds the system-wide
/// minimum label for every operation at or below it.
pub fn inv_7_19<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let ops = view.ops();
    for rep in &view.replicas {
        let r = rep.id();
        let max_stable = rep.stable_here().iter().map(|x| view.minlabel(*x)).max();
        let Some(max_stable) = max_stable else {
            continue;
        };
        for id in &ops {
            let ml = view.minlabel(*id);
            if ml <= max_stable && rep.labels().get(*id) != ml {
                out.push(fail(
                    "Invariant 7.19",
                    format!("{r} has a stable op above {id} but label_{r}({id}) ≠ minlabel({id})"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.20: operations whose minimum label is universally agreed
/// are ordered into the system constraints.
pub fn inv_7_20<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let ops = view.ops();
    let descs = view.op_descriptors();
    let mut combined = view.sc();
    for (a, b) in csc(descs.values()) {
        combined.add_edge(a, b);
    }
    for id in &ops {
        let ml = view.minlabel(*id);
        let agreed = view.replicas.iter().all(|r| r.labels().get(*id) == ml);
        if !agreed {
            continue;
        }
        for other in &ops {
            if other == id {
                continue;
            }
            if ml < view.minlabel(*other) && !combined.precedes(id, other) {
                out.push(fail(
                    "Invariant 7.20",
                    format!("agreed minlabel({id}) < minlabel({other}) but not in TC(CSC ∪ sc)"),
                ));
            }
        }
    }
    out
}

/// Invariant 7.21: operations stable at *every* replica are ordered in
/// `TC(CSC(ops) ∪ sc)` exactly by their minimum labels.
pub fn inv_7_21<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let ops = view.ops();
    let descs = view.op_descriptors();
    let mut combined = view.sc();
    for (a, b) in csc(descs.values()) {
        combined.add_edge(a, b);
    }
    // ∩_r stable_r[r]
    let mut stable_all: Option<BTreeSet<OpId>> = None;
    for rep in &view.replicas {
        stable_all = Some(match stable_all {
            None => rep.stable_here().clone(),
            Some(acc) => acc.intersection(rep.stable_here()).copied().collect(),
        });
    }
    for id in stable_all.unwrap_or_default() {
        for other in &ops {
            if *other == id {
                continue;
            }
            let forward = combined.precedes(&id, other);
            let by_label = view.minlabel(id) < view.minlabel(*other);
            if forward != by_label {
                out.push(fail(
                    "Invariant 7.21",
                    format!(
                        "stable {id} vs {other}: order-by-constraints {forward} ≠ order-by-minlabel {by_label}"
                    ),
                ));
            }
        }
    }
    out
}

/// Invariant 8.1: `po` is a strict partial order spanning only `ops`.
pub fn inv_8_1<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let po = view.po();
    let ops = view.ops();
    let mut out = Vec::new();
    if !po.is_strict_partial_order() {
        out.push(fail("Invariant 8.1", "po has a cycle"));
    }
    if !po.span().is_subset(&ops) {
        out.push(fail("Invariant 8.1", "span(po) ⊄ ops"));
    }
    out
}

/// Invariant 8.3: for `x` stable at every replica and any done `y`,
/// `x ≺_po y ⟺ minlabel(x) < minlabel(y)`.
pub fn inv_8_3<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let po = view.po();
    let ops = view.ops();
    let mut stable_all: Option<BTreeSet<OpId>> = None;
    for rep in &view.replicas {
        stable_all = Some(match stable_all {
            None => rep.stable_here().clone(),
            Some(acc) => acc.intersection(rep.stable_here()).copied().collect(),
        });
    }
    for x in stable_all.unwrap_or_default() {
        for y in &ops {
            if *y == x {
                continue;
            }
            let forward = po.precedes(&x, y);
            let by_label = view.minlabel(x) < view.minlabel(*y);
            if forward != by_label {
                out.push(fail(
                    "Invariant 8.3",
                    format!("stable {x} vs {y}: po {forward} ≠ minlabel order {by_label}"),
                ));
            }
        }
    }
    out
}

/// Invariants 10.1/10.4: per-replica memoization consistency.
pub fn inv_10_memo<T: SerialDataType>(view: &SystemView<'_, T>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for rep in &view.replicas {
        if let Err(e) = rep.check_memo_consistency() {
            out.push(fail("Invariant 10.1/10.4", format!("at {}: {e}", rep.id())));
        }
    }
    out
}

/// Checks the *monotonicity lemmas* across successive states: the system
/// constraints only grow (Lemma 7.9) and `po` only grows (Lemma 8.2).
///
/// Stateful: feed it every observed state in order. Only valid for
/// full-snapshot gossip (the lemmas are stated for the base algorithm).
#[derive(Default)]
pub struct MonotonicityChecker {
    prev_sc: BTreeSet<(OpId, OpId)>,
    prev_po: BTreeSet<(OpId, OpId)>,
}

impl MonotonicityChecker {
    /// Creates a checker with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the next state; returns violations of Lemma 7.9 / 8.2
    /// relative to the previous observation.
    pub fn observe<T: SerialDataType>(
        &mut self,
        view: &SystemView<'_, T>,
    ) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let sc: BTreeSet<(OpId, OpId)> = view.sc().edges().collect();
        let po: BTreeSet<(OpId, OpId)> = view.po().transitive_closure().edges().collect();
        for pair in &self.prev_sc {
            if !sc.contains(pair) {
                out.push(fail(
                    "Lemma 7.9",
                    format!("sc lost pair {} ≺ {}", pair.0, pair.1),
                ));
            }
        }
        for pair in &self.prev_po {
            if !po.contains(pair) {
                out.push(fail(
                    "Lemma 8.2",
                    format!("po lost pair {} ≺ {}", pair.0, pair.1),
                ));
            }
        }
        self.prev_sc = sc;
        self.prev_po = po;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{Replica, ReplicaConfig};
    use esds_core::{ClientId, OpDescriptor};
    use std::collections::BTreeMap;

    #[derive(Clone, Copy, Debug)]
    struct Ctr;
    #[derive(Clone, PartialEq, Eq, Debug)]
    enum Op {
        Inc,
    }
    impl SerialDataType for Ctr {
        type State = i64;
        type Operator = Op;
        type Value = i64;
        fn initial_state(&self) -> i64 {
            0
        }
        fn apply(&self, s: &i64, _op: &Op) -> (i64, i64) {
            (s + 1, s + 1)
        }
    }

    fn id(c: u32, s: u64) -> OpId {
        OpId::new(ClientId(c), s)
    }

    /// Drives a 3-replica system through a small execution, checking all
    /// invariants after every event.
    #[test]
    fn invariants_hold_throughout_small_execution() {
        let n = 3;
        let mut reps: Vec<Replica<Ctr>> = (0..n)
            .map(|i| Replica::new(Ctr, ReplicaId(i), n as usize, ReplicaConfig::default()))
            .collect();
        let mut requested: BTreeMap<OpId, OpDescriptor<Op>> = BTreeMap::new();
        let mut responded: BTreeSet<OpId> = BTreeSet::new();
        let mut waiting: BTreeSet<OpId> = BTreeSet::new();
        let mut mono = MonotonicityChecker::new();

        let check = |reps: &Vec<Replica<Ctr>>,
                     requested: &BTreeMap<OpId, OpDescriptor<Op>>,
                     responded: &BTreeSet<OpId>,
                     waiting: &BTreeSet<OpId>,
                     mono: &mut MonotonicityChecker| {
            let view = SystemView {
                replicas: reps.iter().collect(),
                gossip_in_flight: Vec::new(),
                requested: requested.clone(),
                waiting: waiting.clone(),
                responded: responded.clone(),
            };
            let violations = check_all(&view);
            assert!(violations.is_empty(), "violations: {violations:?}");
            let mv = mono.observe(&view);
            assert!(mv.is_empty(), "monotonicity: {mv:?}");
        };

        for round in 0..4u64 {
            // Each replica gets one request; the round number doubles as
            // the per-client sequence number.
            for i in 0..n {
                let d = OpDescriptor::new(id(i, round), Op::Inc).with_strict(round % 2 == 0);
                requested.insert(d.id, d.clone());
                waiting.insert(d.id);
                let fx = reps[i as usize].on_request(d);
                for e in fx {
                    responded.insert(e.msg.id);
                    waiting.remove(&e.msg.id);
                }
                check(&reps, &requested, &responded, &waiting, &mut mono);
            }
            // Full gossip exchange.
            for a in 0..n as usize {
                for b in 0..n as usize {
                    if a == b {
                        continue;
                    }
                    let g = reps[a].make_gossip(ReplicaId(b as u32));
                    let fx = reps[b].on_gossip(g);
                    for e in fx {
                        responded.insert(e.msg.id);
                        waiting.remove(&e.msg.id);
                    }
                    check(&reps, &requested, &responded, &waiting, &mut mono);
                }
            }
        }
        // Three more gossip exchanges let the last strict operations
        // stabilize everywhere (Theorem 9.3 allows up to three rounds).
        for _ in 0..3 {
            for a in 0..n as usize {
                for b in 0..n as usize {
                    if a == b {
                        continue;
                    }
                    let g = reps[a].make_gossip(ReplicaId(b as u32));
                    let fx = reps[b].on_gossip(g);
                    for e in fx {
                        responded.insert(e.msg.id);
                        waiting.remove(&e.msg.id);
                    }
                    check(&reps, &requested, &responded, &waiting, &mut mono);
                }
            }
        }
        // Everything eventually answered.
        assert!(waiting.is_empty(), "unanswered: {waiting:?}");
    }

    #[test]
    fn violation_display() {
        let v = fail("Invariant 7.2", "mismatch");
        assert_eq!(v.to_string(), "Invariant 7.2: mismatch");
    }
}
