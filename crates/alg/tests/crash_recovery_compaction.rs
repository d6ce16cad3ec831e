//! Property test: crash/recovery (§9.3) interacting with §10.2 local
//! compaction must never lose the stable-everywhere prefix.
//!
//! Scenario, randomized by proptest: three replicas process a random
//! request/gossip schedule; replicas 0 and 1 compact aggressively after
//! every gossip round while replica 2 never compacts (the deployment rule
//! documented on [`Replica::compact`]: at least one replica keeps the
//! replay material). Replica 0 then crashes losing volatile memory,
//! recovers from its stable-storage stub, and resynchronizes via gossip.
//!
//! The properties checked after recovery:
//!
//! 1. the operations that were stable-everywhere at replica 0 before the
//!    crash reappear in its rebuilt local order **in the same relative
//!    order** (labels are preserved by the stub's minima, so the eventual
//!    total order is unchanged by the crash — §9.3);
//! 2. all replicas converge to the same local order and object state;
//! 3. the recovered replica's memoized values for the pre-crash stable
//!    prefix agree with the uncompacted witness replica's;
//! 4. the §10.1 memo invariants hold everywhere ([`Replica::check_memo_consistency`]).

use esds_alg::{Replica, ReplicaConfig};
use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId, SerialDataType};
use proptest::prelude::*;

/// Minimal counter data type (kept local so the test exercises `esds-alg`
/// alone).
#[derive(Clone, Copy, Debug)]
struct Ctr;
#[derive(Clone, PartialEq, Eq, Debug)]
enum Op {
    Inc(i64),
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
            Op::Inc(d) => (s + d, s + d),
            Op::Read => (*s, *s),
        }
    }
}

const N: usize = 3;

fn gossip_round(reps: &mut [Replica<Ctr>]) {
    for from in 0..N {
        for to in 0..N {
            if from != to {
                let g = reps[from].make_gossip(ReplicaId(to as u32));
                reps[to].on_gossip(g);
            }
        }
    }
}

/// One step of the random schedule: which replica receives the request,
/// what the operator is, and whether a gossip round (followed by
/// compaction at replicas 0 and 1) runs afterwards.
#[derive(Clone, Debug)]
struct Step {
    target: usize,
    amount: i64,
    read: bool,
    gossip_after: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0..N as u32, 1..5i64, 0..4u8, 0..3u8).prop_map(|(t, a, r, g)| Step {
        target: t as usize,
        amount: a,
        read: r == 0,
        gossip_after: g == 0,
    })
}

proptest! {
    #[test]
    fn compacted_crash_recovery_preserves_stable_prefix(
        steps in proptest::collection::vec(step_strategy(), 5..40),
    ) {
        let cfg = ReplicaConfig::default(); // memoize on
        let mut reps: Vec<Replica<Ctr>> = (0..N)
            .map(|i| Replica::new(Ctr, ReplicaId(i as u32), N, cfg))
            .collect();

        // Random request/gossip/compaction schedule.
        for (seq, s) in steps.iter().enumerate() {
            let id = OpId::new(ClientId(s.target as u32), seq as u64);
            let op = if s.read { Op::Read } else { Op::Inc(s.amount) };
            reps[s.target].on_request(OpDescriptor::new(id, op));
            if s.gossip_after {
                gossip_round(&mut reps);
                // Aggressive compaction everywhere except the witness.
                reps[0].compact();
                reps[1].compact();
            }
        }
        // Enough rounds for every operation to become stable everywhere.
        for _ in 0..4 {
            gossip_round(&mut reps);
        }
        reps[0].compact();
        reps[1].compact();

        // Pre-crash facts at the replica about to die.
        let stable_pre: Vec<OpId> = reps[0]
            .local_order()
            .into_iter()
            .filter(|x| reps[0].stable_everywhere().contains(x))
            .collect();
        prop_assert_eq!(
            stable_pre.len(),
            steps.len(),
            "after full gossip rounds everything is stable everywhere"
        );
        let state_pre = reps[0].current_state();

        // Crash replica 0 (volatile memory lost; stub survives), recover,
        // and resynchronize: the recovering replica stays passive until it
        // has heard from every peer.
        let stub = reps[0].clone().crash();
        reps[0] = Replica::restore(Ctr, stub, N, cfg);
        prop_assert!(reps[0].is_recovering());
        for _ in 0..4 {
            gossip_round(&mut reps);
        }
        prop_assert!(!reps[0].is_recovering());

        // (1) The stable-everywhere prefix survives with its order.
        let stable_post: Vec<OpId> = reps[0]
            .local_order()
            .into_iter()
            .filter(|x| stable_pre.contains(x))
            .collect();
        prop_assert_eq!(&stable_post, &stable_pre, "stable prefix lost or reordered");

        // (2) Full convergence: same order, same state, everywhere.
        let order0 = reps[0].local_order();
        for r in &reps[1..] {
            prop_assert_eq!(&r.local_order(), &order0);
            prop_assert_eq!(r.current_state(), state_pre);
        }
        prop_assert_eq!(reps[0].current_state(), state_pre);

        // (3) Memoized (eventual-order) values agree with the witness.
        for x in &stable_pre {
            if let (Some(a), Some(b)) = (reps[0].memo_value(*x), reps[2].memo_value(*x)) {
                prop_assert_eq!(a, b, "memoized value of {} diverged", x);
            }
        }

        // (4) §10.1 invariants hold on every replica after the dust settles.
        for r in &reps {
            prop_assert!(r.check_memo_consistency().is_ok(), "{:?}", r.check_memo_consistency());
        }
    }
}
