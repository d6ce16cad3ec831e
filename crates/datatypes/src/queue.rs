//! A FIFO queue — a strongly non-commutative serial data type.
//!
//! Queues are the opposite extreme from the paper's directory-service
//! motivation: almost nothing commutes (enqueue order is observable,
//! dequeues compete for the front element), so clients either order
//! operations explicitly via `prev` chains or request `strict` dequeues
//! that wait for stability. The `examples/` and `tests/` use it to
//! exercise the expensive end of the consistency spectrum.

use std::collections::VecDeque;

use esds_core::{CommutativitySpec, SerialDataType};

/// A FIFO queue of `i64` items, initially empty.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{Queue, QueueOp, QueueValue};
///
/// let dt = Queue;
/// let s0 = dt.initial_state();
/// let (s1, _) = dt.apply(&s0, &QueueOp::Enqueue(7));
/// let (s2, v) = dt.apply(&s1, &QueueOp::Dequeue);
/// assert_eq!(v, QueueValue::Item(Some(7)));
/// assert_eq!(dt.apply(&s2, &QueueOp::Dequeue).1, QueueValue::Item(None));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Queue;

/// Operators of [`Queue`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueueOp {
    /// Append an item at the back (returns [`QueueValue::Ack`]).
    Enqueue(i64),
    /// Remove and return the front item (`None` when empty).
    Dequeue,
    /// Return the front item without removing it.
    Peek,
    /// Return the number of queued items.
    Len,
}

/// Values reported by [`Queue`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueueValue {
    /// Acknowledgement of an enqueue.
    Ack,
    /// The item removed or observed (`None` when the queue was empty).
    Item(Option<i64>),
    /// The queue length observed.
    Size(u64),
}

impl SerialDataType for Queue {
    type State = VecDeque<i64>;
    type Operator = QueueOp;
    type Value = QueueValue;

    fn initial_state(&self) -> VecDeque<i64> {
        VecDeque::new()
    }

    fn apply(&self, s: &VecDeque<i64>, op: &QueueOp) -> (VecDeque<i64>, QueueValue) {
        match op {
            QueueOp::Enqueue(x) => {
                let mut t = s.clone();
                t.push_back(*x);
                (t, QueueValue::Ack)
            }
            QueueOp::Dequeue => {
                let mut t = s.clone();
                let item = t.pop_front();
                (t, QueueValue::Item(item))
            }
            QueueOp::Peek => (s.clone(), QueueValue::Item(s.front().copied())),
            QueueOp::Len => (s.clone(), QueueValue::Size(s.len() as u64)),
        }
    }
}

impl CommutativitySpec for Queue {
    fn commutes(&self, a: &QueueOp, b: &QueueOp) -> bool {
        use QueueOp::*;
        match (a, b) {
            // Reads never change state.
            (Peek | Len, _) | (_, Peek | Len) => true,
            // Equal enqueues produce the same queue either way.
            (Enqueue(x), Enqueue(y)) => x == y,
            // Two dequeues remove the same two front items in either order.
            (Dequeue, Dequeue) => true,
            // Enqueue/dequeue conflict on the empty queue.
            (Enqueue(_), Dequeue) | (Dequeue, Enqueue(_)) => false,
        }
    }

    fn oblivious_to(&self, a: &QueueOp, b: &QueueOp) -> bool {
        use QueueOp::*;
        match (a, b) {
            // Enqueue returns Ack regardless of state.
            (Enqueue(_), _) => true,
            // Front-observing operators are blind only to reads.
            (Dequeue | Peek | Len, Peek | Len) => true,
            (Dequeue | Peek | Len, Enqueue(_) | Dequeue) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    fn any_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            (-5i64..6).prop_map(QueueOp::Enqueue),
            Just(QueueOp::Dequeue),
            Just(QueueOp::Peek),
            Just(QueueOp::Len),
        ]
    }

    fn any_state() -> impl Strategy<Value = VecDeque<i64>> {
        proptest::collection::vec_deque(-5i64..6, 0..5)
    }

    #[test]
    fn fifo_order() {
        let dt = Queue;
        let s = dt.outcome_of_ops(
            &dt.initial_state(),
            [
                &QueueOp::Enqueue(1),
                &QueueOp::Enqueue(2),
                &QueueOp::Enqueue(3),
            ],
        );
        let (s, v1) = dt.apply(&s, &QueueOp::Dequeue);
        let (_, v2) = dt.apply(&s, &QueueOp::Dequeue);
        assert_eq!(v1, QueueValue::Item(Some(1)));
        assert_eq!(v2, QueueValue::Item(Some(2)));
    }

    #[test]
    fn dequeue_empty_returns_none() {
        let dt = Queue;
        let (s, v) = dt.apply(&dt.initial_state(), &QueueOp::Dequeue);
        assert_eq!(v, QueueValue::Item(None));
        assert!(s.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let dt = Queue;
        let (s, _) = dt.apply(&dt.initial_state(), &QueueOp::Enqueue(9));
        let (s2, v) = dt.apply(&s, &QueueOp::Peek);
        assert_eq!(v, QueueValue::Item(Some(9)));
        assert_eq!(s2, s);
    }

    #[test]
    fn enqueue_dequeue_conflict_on_empty() {
        // The state-based counterexample behind the spec's `false`.
        let dt = Queue;
        assert!(!commutes_at(
            &dt,
            &VecDeque::new(),
            &QueueOp::Enqueue(1),
            &QueueOp::Dequeue
        ));
        assert!(!dt.commutes(&QueueOp::Enqueue(1), &QueueOp::Dequeue));
    }

    #[test]
    fn dequeues_commute_on_state_not_value() {
        let dt = Queue;
        assert!(dt.commutes(&QueueOp::Dequeue, &QueueOp::Dequeue));
        assert!(!dt.independent(&QueueOp::Dequeue, &QueueOp::Dequeue));
    }

    proptest! {
        /// Soundness: the static spec may only claim what brute force
        /// confirms on every sampled state (Lemmas 10.6/10.7 rely on this).
        #[test]
        fn spec_sound(a in any_op(), b in any_op(), s in any_state()) {
            let dt = Queue;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b));
            }
        }

        #[test]
        fn len_counts_members(items in proptest::collection::vec(-5i64..6, 0..8)) {
            let dt = Queue;
            let ops: Vec<QueueOp> = items.iter().map(|x| QueueOp::Enqueue(*x)).collect();
            let s = dt.outcome_of_ops(&dt.initial_state(), ops.iter());
            let (_, v) = dt.apply(&s, &QueueOp::Len);
            prop_assert_eq!(v, QueueValue::Size(items.len() as u64));
        }
    }
}
