//! An integer counter with increment, double, and read — the paper's own
//! example (§10.3): *increment* and *double* do not commute, so clients of
//! the commutativity-exploiting algorithm must order them explicitly.

use esds_core::{CommutativitySpec, SerialDataType};

/// A counter over `i64` starting at `0`.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{Counter, CounterOp, CounterValue};
///
/// let dt = Counter;
/// let (s, _) = dt.apply(&1, &CounterOp::Increment(1));
/// assert_eq!(dt.apply(&s, &CounterOp::Double).0, 4);
/// let (s, _) = dt.apply(&1, &CounterOp::Double);
/// assert_eq!(dt.apply(&s, &CounterOp::Increment(1)).0, 3);
/// // 4 ≠ 3: the paper's divergence example.
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Counter;

/// Operators of [`Counter`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CounterOp {
    /// Add a constant (returns [`CounterValue::Ack`]).
    Increment(i64),
    /// Multiply by two (returns [`CounterValue::Ack`]).
    Double,
    /// Return the current count.
    Read,
}

/// Values reported by [`Counter`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CounterValue {
    /// Acknowledgement of a mutation.
    Ack,
    /// The count observed by a read.
    Count(i64),
}

impl SerialDataType for Counter {
    type State = i64;
    type Operator = CounterOp;
    type Value = CounterValue;

    fn initial_state(&self) -> i64 {
        0
    }

    fn apply(&self, s: &i64, op: &CounterOp) -> (i64, CounterValue) {
        match op {
            CounterOp::Increment(d) => (s.wrapping_add(*d), CounterValue::Ack),
            CounterOp::Double => (s.wrapping_mul(2), CounterValue::Ack),
            CounterOp::Read => (*s, CounterValue::Count(*s)),
        }
    }
}

impl CommutativitySpec for Counter {
    fn commutes(&self, a: &CounterOp, b: &CounterOp) -> bool {
        use CounterOp::*;
        match (a, b) {
            (Read, _) | (_, Read) => true,
            (Increment(_), Increment(_)) => true, // addition commutes
            (Double, Double) => true,             // ×2 commutes with itself
            (Increment(0), Double) | (Double, Increment(0)) => true,
            (Increment(_), Double) | (Double, Increment(_)) => false,
        }
    }

    fn oblivious_to(&self, a: &CounterOp, b: &CounterOp) -> bool {
        use CounterOp::*;
        match (a, b) {
            // Mutations return Ack — state-independent.
            (Increment(_), _) | (Double, _) => true,
            // A read sees state changes unless the other op is a no-op.
            (Read, Read) => true,
            (Read, Increment(0)) => true,
            (Read, Increment(_)) | (Read, Double) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    fn any_op() -> impl Strategy<Value = CounterOp> {
        prop_oneof![
            (-3i64..4).prop_map(CounterOp::Increment),
            Just(CounterOp::Double),
            Just(CounterOp::Read),
        ]
    }

    #[test]
    fn paper_divergence_example() {
        // From state 1: inc;double = 4 but double;inc = 3 (paper §10.3).
        let dt = Counter;
        assert_eq!(
            dt.outcome_of_ops(&1, [&CounterOp::Increment(1), &CounterOp::Double]),
            4
        );
        assert_eq!(
            dt.outcome_of_ops(&1, [&CounterOp::Double, &CounterOp::Increment(1)]),
            3
        );
        assert!(!dt.commutes(&CounterOp::Increment(1), &CounterOp::Double));
    }

    #[test]
    fn increments_commute() {
        let dt = Counter;
        assert!(dt.commutes(&CounterOp::Increment(2), &CounterOp::Increment(-7)));
        assert!(dt.independent(&CounterOp::Increment(2), &CounterOp::Increment(3)));
    }

    #[test]
    fn read_not_independent_of_mutations() {
        let dt = Counter;
        assert!(!dt.independent(&CounterOp::Read, &CounterOp::Increment(1)));
        assert!(dt.independent(&CounterOp::Read, &CounterOp::Read));
    }

    proptest! {
        #[test]
        fn spec_sound(a in any_op(), b in any_op(), state in -10i64..10) {
            let dt = Counter;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &state, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &state, &a, &b));
            }
        }
    }
}
