//! An integer read/write register — the smallest interesting serial data
//! type, and the canonical *non-commuting* one (two writes conflict).

use esds_core::{CommutativitySpec, SerialDataType};

/// A read/write register over `i64` with initial value `0`.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{Register, RegisterOp, RegisterValue};
///
/// let dt = Register;
/// let s0 = dt.initial_state();
/// let (s1, v) = dt.apply(&s0, &RegisterOp::Write(7));
/// assert_eq!(v, RegisterValue::Ack);
/// let (_, v) = dt.apply(&s1, &RegisterOp::Read);
/// assert_eq!(v, RegisterValue::Value(7));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Register;

/// Operators of [`Register`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegisterOp {
    /// Overwrite the register.
    Write(i64),
    /// Return the current value.
    Read,
}

/// Values reported by [`Register`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RegisterValue {
    /// Acknowledgement of a write (state-independent, so writes are
    /// oblivious to everything).
    Ack,
    /// The value observed by a read.
    Value(i64),
}

impl SerialDataType for Register {
    type State = i64;
    type Operator = RegisterOp;
    type Value = RegisterValue;

    fn initial_state(&self) -> i64 {
        0
    }

    fn apply(&self, s: &i64, op: &RegisterOp) -> (i64, RegisterValue) {
        match op {
            RegisterOp::Write(v) => (*v, RegisterValue::Ack),
            RegisterOp::Read => (*s, RegisterValue::Value(*s)),
        }
    }
}

impl CommutativitySpec for Register {
    fn commutes(&self, a: &RegisterOp, b: &RegisterOp) -> bool {
        match (a, b) {
            // Reads never change state.
            (RegisterOp::Read, _) | (_, RegisterOp::Read) => true,
            // Writes commute only when they write the same value.
            (RegisterOp::Write(x), RegisterOp::Write(y)) => x == y,
        }
    }

    fn oblivious_to(&self, a: &RegisterOp, b: &RegisterOp) -> bool {
        match (a, b) {
            // A write acknowledges regardless of state.
            (RegisterOp::Write(_), _) => true,
            // A read is oblivious to another read, but not to a write
            // (unless it happens to write the current value — state-
            // dependent, so we must say no).
            (RegisterOp::Read, RegisterOp::Read) => true,
            (RegisterOp::Read, RegisterOp::Write(_)) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    fn any_op() -> impl Strategy<Value = RegisterOp> {
        prop_oneof![
            (-5i64..5).prop_map(RegisterOp::Write),
            Just(RegisterOp::Read),
        ]
    }

    #[test]
    fn write_then_read() {
        let dt = Register;
        let (s, _) = dt.apply(&dt.initial_state(), &RegisterOp::Write(3));
        assert_eq!(dt.apply(&s, &RegisterOp::Read).1, RegisterValue::Value(3));
    }

    #[test]
    fn conflicting_writes_do_not_commute() {
        let dt = Register;
        assert!(!dt.commutes(&RegisterOp::Write(1), &RegisterOp::Write(2)));
        assert!(dt.commutes(&RegisterOp::Write(1), &RegisterOp::Write(1)));
    }

    proptest! {
        /// Soundness of the spec: whenever the spec says two operators
        /// commute (or are oblivious), brute force agrees on every sampled
        /// state.
        #[test]
        fn spec_sound(a in any_op(), b in any_op(), state in -10i64..10) {
            let dt = Register;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &state, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &state, &a, &b));
            }
            if dt.independent(&a, &b) {
                prop_assert!(commutes_at(&dt, &state, &a, &b));
                prop_assert!(oblivious_at(&dt, &state, &a, &b));
                prop_assert!(oblivious_at(&dt, &state, &b, &a));
            }
        }
    }
}
