//! A grow-only set — the archetype of a fully commutative data type, used
//! to exercise the commutativity-exploiting algorithm variant (paper §10.3)
//! on a workload where *all* mutations commute.

use std::collections::BTreeSet;

use esds_core::{CommutativitySpec, SerialDataType};

/// A grow-only set of `u64` elements.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{GSet, GSetOp, GSetValue};
///
/// let dt = GSet;
/// let (s, _) = dt.apply(&dt.initial_state(), &GSetOp::Add(4));
/// assert_eq!(dt.apply(&s, &GSetOp::Contains(4)).1, GSetValue::Bool(true));
/// assert_eq!(dt.apply(&s, &GSetOp::Size).1, GSetValue::Size(1));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct GSet;

/// Operators of [`GSet`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GSetOp {
    /// Insert an element (idempotent; returns [`GSetValue::Ack`]).
    Add(u64),
    /// Membership query.
    Contains(u64),
    /// Cardinality query.
    Size,
}

/// Values reported by [`GSet`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GSetValue {
    /// Acknowledgement of an insertion.
    Ack,
    /// Result of a membership query.
    Bool(bool),
    /// Result of a cardinality query.
    Size(usize),
}

impl SerialDataType for GSet {
    type State = BTreeSet<u64>;
    type Operator = GSetOp;
    type Value = GSetValue;

    fn initial_state(&self) -> BTreeSet<u64> {
        BTreeSet::new()
    }

    fn apply(&self, s: &BTreeSet<u64>, op: &GSetOp) -> (BTreeSet<u64>, GSetValue) {
        match op {
            GSetOp::Add(e) => {
                let mut ns = s.clone();
                ns.insert(*e);
                (ns, GSetValue::Ack)
            }
            GSetOp::Contains(e) => (s.clone(), GSetValue::Bool(s.contains(e))),
            GSetOp::Size => (s.clone(), GSetValue::Size(s.len())),
        }
    }
}

impl CommutativitySpec for GSet {
    fn commutes(&self, _a: &GSetOp, _b: &GSetOp) -> bool {
        // Insertions into a set commute; queries do not change state.
        true
    }

    fn oblivious_to(&self, a: &GSetOp, b: &GSetOp) -> bool {
        match (a, b) {
            (GSetOp::Add(_), _) => true,
            (GSetOp::Contains(_), GSetOp::Contains(_) | GSetOp::Size) => true,
            // Contains(e) is affected only by Add(e).
            (GSetOp::Contains(e), GSetOp::Add(f)) => e != f,
            (GSetOp::Size, GSetOp::Contains(_) | GSetOp::Size) => true,
            // Size sees every insertion (it may or may not be new — state-
            // dependent, so conservatively not oblivious).
            (GSetOp::Size, GSetOp::Add(_)) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    #[test]
    fn adds_are_idempotent() {
        let dt = GSet;
        let (s, _) = dt.apply(&dt.initial_state(), &GSetOp::Add(1));
        let (s, _) = dt.apply(&s, &GSetOp::Add(1));
        assert_eq!(dt.apply(&s, &GSetOp::Size).1, GSetValue::Size(1));
    }

    #[test]
    fn all_mutations_independent() {
        let dt = GSet;
        assert!(dt.independent(&GSetOp::Add(1), &GSetOp::Add(2)));
        assert!(dt.independent(&GSetOp::Add(1), &GSetOp::Add(1)));
        assert!(!dt.independent(&GSetOp::Contains(1), &GSetOp::Add(1)));
        assert!(dt.independent(&GSetOp::Contains(1), &GSetOp::Add(2)));
    }

    fn any_op() -> impl Strategy<Value = GSetOp> {
        prop_oneof![
            (0u64..5).prop_map(GSetOp::Add),
            (0u64..5).prop_map(GSetOp::Contains),
            Just(GSetOp::Size),
        ]
    }

    proptest! {
        #[test]
        fn spec_sound(
            a in any_op(),
            b in any_op(),
            s in proptest::collection::btree_set(0u64..5, 0..4),
        ) {
            let dt = GSet;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b));
            }
        }
    }
}
