//! A bank account — the classic motivation for mixing strict and
//! nonstrict operations on one object.
//!
//! Deposits commute with each other and return no state-dependent value,
//! so they can be requested nonstrict and applied lazily. A withdrawal's
//! *admission decision* depends on the balance: issuing it `strict` makes
//! the decision final (consistent with the eventual total order, Theorem
//! 5.8), which is exactly the "stronger ordering constraints when
//! causality is insufficient" case of paper §1.2. `examples/bank_atm.rs`
//! drives this type end to end.

use esds_core::{CommutativitySpec, KeyedDataType, SerialDataType};

/// A non-negative account balance (in cents), initially `0`.
///
/// Withdrawals that would overdraw are rejected and leave the state
/// unchanged, so every reachable state is a valid balance.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{Bank, BankOp, BankValue};
///
/// let dt = Bank;
/// let (s, _) = dt.apply(&dt.initial_state(), &BankOp::Deposit(100));
/// let (s, v) = dt.apply(&s, &BankOp::Withdraw(30));
/// assert_eq!(v, BankValue::Withdrawn(true));
/// let (_, v) = dt.apply(&s, &BankOp::Withdraw(1000));
/// assert_eq!(v, BankValue::Withdrawn(false)); // rejected, not overdrawn
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Bank;

/// Operators of [`Bank`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BankOp {
    /// Add to the balance (returns [`BankValue::Ack`]).
    Deposit(u64),
    /// Subtract from the balance if sufficient funds exist; reports whether
    /// the withdrawal was admitted.
    Withdraw(u64),
    /// Return the current balance.
    Balance,
}

/// Values reported by [`Bank`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BankValue {
    /// Acknowledgement of a deposit.
    Ack,
    /// Whether a withdrawal was admitted.
    Withdrawn(bool),
    /// The balance observed.
    Balance(u64),
}

impl SerialDataType for Bank {
    type State = u64;
    type Operator = BankOp;
    type Value = BankValue;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply(&self, s: &u64, op: &BankOp) -> (u64, BankValue) {
        match op {
            BankOp::Deposit(a) => (s.saturating_add(*a), BankValue::Ack),
            BankOp::Withdraw(a) => {
                if s >= a {
                    (s - a, BankValue::Withdrawn(true))
                } else {
                    (*s, BankValue::Withdrawn(false))
                }
            }
            BankOp::Balance => (*s, BankValue::Balance(*s)),
        }
    }
}

impl CommutativitySpec for Bank {
    fn commutes(&self, a: &BankOp, b: &BankOp) -> bool {
        use BankOp::*;
        match (a, b) {
            (Balance, _) | (_, Balance) => true,
            // Addition commutes (saturation is order-independent too).
            (Deposit(_), Deposit(_)) => true,
            // Zero-amount operators are no-ops on the state.
            (Deposit(0), Withdraw(_)) | (Withdraw(_), Deposit(0)) => true,
            (Deposit(_), Withdraw(0)) | (Withdraw(0), Deposit(_)) => true,
            // A deposit can flip a withdrawal's admission decision.
            (Deposit(_), Withdraw(_)) | (Withdraw(_), Deposit(_)) => false,
            // Equal withdrawals: whichever runs first takes the funds; the
            // surviving state is the same in both orders.
            (Withdraw(x), Withdraw(y)) => x == y,
        }
    }

    fn oblivious_to(&self, a: &BankOp, b: &BankOp) -> bool {
        use BankOp::*;
        match (a, b) {
            // Deposits return Ack regardless of state.
            (Deposit(_), _) => true,
            // Withdraw(0) is always admitted.
            (Withdraw(0), _) => true,
            // A withdrawal's admission is blind to reads and no-ops only.
            (Withdraw(_), Balance | Deposit(0) | Withdraw(0)) => true,
            (Withdraw(_), Deposit(_) | Withdraw(_)) => false,
            // A balance read sees any real mutation.
            (Balance, Balance | Deposit(0) | Withdraw(0)) => true,
            (Balance, Deposit(_) | Withdraw(_)) => false,
        }
    }
}

/// A bank account is a single indivisible object — deposits and
/// withdrawals genuinely conflict on the one balance, so the keyspace has
/// exactly one key. Under sharding the whole account hashes to one home
/// group and never splits (the degenerate but correct case: a sharded
/// deployment of `Bank` is a one-account-per-service multi-tenant layout;
/// run one `Bank` service per account for more).
impl KeyedDataType for Bank {
    fn shard_key<'a>(&self, _op: &'a BankOp) -> Option<&'a str> {
        Some("account")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    fn any_op() -> impl Strategy<Value = BankOp> {
        prop_oneof![
            (0u64..5).prop_map(BankOp::Deposit),
            (0u64..5).prop_map(BankOp::Withdraw),
            Just(BankOp::Balance),
        ]
    }

    #[test]
    fn deposit_then_withdraw() {
        let dt = Bank;
        let s = dt.outcome_of_ops(&0, [&BankOp::Deposit(50), &BankOp::Withdraw(20)]);
        assert_eq!(s, 30);
    }

    #[test]
    fn overdraft_rejected_not_applied() {
        let dt = Bank;
        let (s, v) = dt.apply(&10, &BankOp::Withdraw(25));
        assert_eq!(v, BankValue::Withdrawn(false));
        assert_eq!(s, 10);
    }

    #[test]
    fn admission_depends_on_order() {
        // The reorderable-response hazard that motivates strict withdraws:
        // withdraw(30) succeeds after the deposit but fails before it.
        let dt = Bank;
        let (_, v) = dt.apply(
            &dt.outcome_of_ops(&0, [&BankOp::Deposit(50)]),
            &BankOp::Withdraw(30),
        );
        assert_eq!(v, BankValue::Withdrawn(true));
        let (_, v) = dt.apply(&0, &BankOp::Withdraw(30));
        assert_eq!(v, BankValue::Withdrawn(false));
        assert!(!dt.commutes(&BankOp::Deposit(50), &BankOp::Withdraw(30)));
    }

    #[test]
    fn equal_withdrawals_commute_on_state() {
        let dt = Bank;
        assert!(dt.commutes(&BankOp::Withdraw(2), &BankOp::Withdraw(2)));
        // ... but not on values: only one is admitted when funds are short.
        assert!(!dt.independent(&BankOp::Withdraw(2), &BankOp::Withdraw(2)));
        // From 3: w(2);w(3) leaves 1 (second rejected) but w(3);w(2)
        // leaves 0 (first rejected) — unequal withdrawals truly conflict.
        assert!(!commutes_at(
            &dt,
            &3,
            &BankOp::Withdraw(2),
            &BankOp::Withdraw(3)
        ));
    }

    #[test]
    fn deposits_independent() {
        let dt = Bank;
        assert!(dt.independent(&BankOp::Deposit(5), &BankOp::Deposit(9)));
    }

    proptest! {
        /// Soundness of the static spec against brute force on every
        /// sampled state.
        #[test]
        fn spec_sound(a in any_op(), b in any_op(), s in 0u64..10) {
            let dt = Bank;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b));
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b));
            }
        }

        /// Balances never go negative (u64 + rejection make this structural,
        /// but the property documents the data-type contract).
        #[test]
        fn no_overdraft(ops in proptest::collection::vec(any_op(), 0..20)) {
            let dt = Bank;
            let mut s = dt.initial_state();
            for op in &ops {
                let (ns, v) = dt.apply(&s, op);
                if let BankValue::Withdrawn(false) = v {
                    prop_assert_eq!(ns, s, "rejected withdrawal must not change state");
                }
                s = ns;
            }
        }
    }
}
