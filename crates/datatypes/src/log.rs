//! An append-only log — a data type where *no* two mutations commute
//! (append order is observable), stressing the service's ordering machinery.

use esds_core::{CommutativitySpec, SerialDataType};

/// An append-only log of strings.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{AppendLog, LogOp, LogValue};
///
/// let dt = AppendLog;
/// let (s, _) = dt.apply(&dt.initial_state(), &LogOp::append("a"));
/// let (s, _) = dt.apply(&s, &LogOp::append("b"));
/// assert_eq!(dt.apply(&s, &LogOp::Len).1, LogValue::Len(2));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct AppendLog;

/// Operators of [`AppendLog`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LogOp {
    /// Append an entry (returns [`LogValue::Ack`]).
    Append(String),
    /// Return the number of entries.
    Len,
    /// Return the whole log.
    ReadAll,
}

impl LogOp {
    /// Convenience constructor for [`LogOp::Append`].
    pub fn append(s: impl Into<String>) -> Self {
        LogOp::Append(s.into())
    }
}

/// Values reported by [`AppendLog`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LogValue {
    /// Acknowledgement of an append.
    Ack,
    /// Log length.
    Len(usize),
    /// Full contents.
    Entries(Vec<String>),
}

impl SerialDataType for AppendLog {
    type State = Vec<String>;
    type Operator = LogOp;
    type Value = LogValue;

    fn initial_state(&self) -> Vec<String> {
        Vec::new()
    }

    fn apply(&self, s: &Vec<String>, op: &LogOp) -> (Vec<String>, LogValue) {
        match op {
            LogOp::Append(e) => {
                let mut ns = s.clone();
                ns.push(e.clone());
                (ns, LogValue::Ack)
            }
            LogOp::Len => (s.clone(), LogValue::Len(s.len())),
            LogOp::ReadAll => (s.clone(), LogValue::Entries(s.clone())),
        }
    }
}

impl CommutativitySpec for AppendLog {
    fn commutes(&self, a: &LogOp, b: &LogOp) -> bool {
        match (a, b) {
            // Two appends commute only if they append equal entries.
            (LogOp::Append(x), LogOp::Append(y)) => x == y,
            // Queries do not change state.
            _ => true,
        }
    }

    fn oblivious_to(&self, a: &LogOp, b: &LogOp) -> bool {
        match (a, b) {
            (LogOp::Append(_), _) => true,
            // Queries observe every append.
            (LogOp::Len | LogOp::ReadAll, LogOp::Append(_)) => false,
            (LogOp::Len | LogOp::ReadAll, _) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    #[test]
    fn append_order_matters() {
        let dt = AppendLog;
        let ab = dt.outcome_of_ops(&vec![], [&LogOp::append("a"), &LogOp::append("b")]);
        let ba = dt.outcome_of_ops(&vec![], [&LogOp::append("b"), &LogOp::append("a")]);
        assert_ne!(ab, ba);
        assert!(!dt.commutes(&LogOp::append("a"), &LogOp::append("b")));
    }

    fn any_op() -> impl Strategy<Value = LogOp> {
        prop_oneof![
            prop_oneof![Just("x".to_string()), Just("y".to_string())].prop_map(LogOp::Append),
            Just(LogOp::Len),
            Just(LogOp::ReadAll),
        ]
    }

    proptest! {
        #[test]
        fn spec_sound(
            a in any_op(),
            b in any_op(),
            s in proptest::collection::vec(prop_oneof![Just("p".to_string()), Just("q".to_string())], 0..3),
        ) {
            let dt = AppendLog;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b));
            }
        }
    }
}
