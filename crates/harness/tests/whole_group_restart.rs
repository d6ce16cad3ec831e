//! A whole replica group restored from disk must not order a new
//! operation before one that was stable before the crash.
//!
//! Seeded, no wall clock: three durable replicas over [`MemStorage`]
//! (WAL-only or snapshotting, `Full` or `Batched` gossip, per seed) take a
//! chain of increments through one client and a strict read pinned after
//! all of them; then every replica crashes at a seeded point, each is
//! rebuilt from its own survivor image, and — while all three are still
//! in the §9.3 recovery gate — a strict read arrives through a client
//! whose relay is *not* the replica that labelled the writes. That
//! replica holds the writes' labels only in its log suffix, minted by a
//! peer; the read must still land after them. Checked over the joined
//! history:
//!
//! * the post-restart strict read returns what the pre-crash one did;
//! * the pre-crash final prefix is a prefix of the final one, and all
//!   replicas converge on one order (Theorem 8.4);
//! * a streaming audit fed across the crash certifies the whole trace.
//!
//! A failing case prints `ESDS_RESTART_SEED=<seed>`; setting it re-runs
//! exactly that case.

use esds_alg::ReplicaConfig;
use esds_core::{OpId, ReplicaId};
use esds_datatypes::{Counter, CounterOp, CounterValue};
use esds_harness::{AuditDriver, FaultEvent, SimSystem, SystemConfig};
use esds_sim::SimDuration;
use esds_spec::check_converged;
use esds_store::{DurableConfig, DurableStore, MemStorage};
use proptest::prelude::*;

const N: usize = 3;

struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "whole-group restart failed: re-run with ESDS_RESTART_SEED={}",
                self.0
            );
        }
    }
}

/// SplitMix64 over the case seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Steps until `done` holds, feeding every step to the audit.
fn drive(
    sys: &mut SimSystem<Counter>,
    audit: &mut AuditDriver<Counter>,
    what: &str,
    done: impl Fn(&SimSystem<Counter>) -> bool,
) {
    for _ in 0..500_000 {
        if done(sys) {
            return;
        }
        let (_, report) = sys.step_one().expect("gossip ticks never drain");
        audit.observe(&report).expect("audit green");
        audit.sync_watermark(sys).expect("audit green");
    }
    panic!("{what}: event budget exhausted");
}

fn run(seed: u64) {
    let _guard = SeedOnPanic(seed);
    let mut rng = Rng(seed);
    let replica = match rng.below(3) {
        0 => ReplicaConfig::default(),
        k => ReplicaConfig::default().with_batched(k as u32),
    }
    .with_durable();
    let store_cfg = DurableConfig {
        snapshot_every: [None, Some(4), Some(16)][rng.below(3) as usize],
    };
    let writer = rng.below(N as u64) as u32;
    let reader = (writer + 1 + rng.below(N as u64 - 1) as u32) % N as u32;
    let writes = 2 + rng.below(10) as i64;

    let cfg = SystemConfig::new(N)
        .with_seed(seed)
        .with_replica(replica)
        .with_retry(SimDuration::from_millis(50));
    let mut sys = SimSystem::new(Counter, cfg);
    let disks: Vec<MemStorage> = (0..N).map(|_| MemStorage::new()).collect();
    for (r, disk) in disks.iter().enumerate() {
        let (store, _fresh, _) = DurableStore::open(
            Counter,
            disk.clone(),
            ReplicaId(r as u32),
            N,
            replica,
            store_cfg,
        )
        .expect("fresh open");
        sys.install_persistence(r, Box::new(store));
    }
    let mut audit = AuditDriver::new(Counter);
    let w = sys.add_client(writer);
    let r = sys.add_client(reader);

    // Pre-crash: the writes, then a strict read pinned after all of them.
    let ids: Vec<OpId> = (0..writes)
        .map(|_| sys.submit(w, CounterOp::Increment(1), &[], false))
        .collect();
    let before = sys.submit(w, CounterOp::Read, &ids, true);
    drive(&mut sys, &mut audit, "pre-crash strict read", |s| {
        s.response(before).is_some()
    });
    assert_eq!(sys.response(before), Some(&CounterValue::Count(writes)));
    let pre = sys.final_prefix().expect("all alive");

    // Every replica crashes, at a seeded point after the answer. Every
    // event so far falls on a multiple of 5 ms (fixed delays, 20 ms ticks,
    // 50 ms retries); the extra 500 µs puts the restart strictly between
    // gossip ticks, so the read below (5 ms in flight) lands before any
    // replica can hear from a peer: all three are still recovering.
    let at = sys.now() + SimDuration::from_micros(rng.below(60) * 1000 + 500);
    for k in 0..N {
        sys.schedule_fault(at, FaultEvent::Crash(ReplicaId(k as u32)));
    }
    drive(&mut sys, &mut audit, "crash", |s| {
        s.local_orders().is_empty()
    });

    // Each restarts from its own survivor image, all inside the gate.
    for (k, disk) in disks.iter().enumerate() {
        let (store, rep, report) = DurableStore::open(
            Counter,
            disk.survivor(),
            ReplicaId(k as u32),
            N,
            replica,
            store_cfg,
        )
        .expect("recovery from the survivor image");
        assert!(
            report.recovered && rep.is_recovering(),
            "replica {k}: {report}"
        );
        sys.replace_replica(k, rep, Some(Box::new(store)));
    }
    let after = sys.submit(r, CounterOp::Read, &[], true);
    drive(&mut sys, &mut audit, "post-restart convergence", |s| {
        s.is_converged()
    });

    assert_eq!(
        sys.response(after),
        sys.response(before),
        "restart contradicted the answered strict read (writer {writer}, reader {reader})"
    );
    let post = sys.final_prefix().expect("all alive");
    assert!(
        post.starts_with(&pre),
        "the pre-crash final prefix was reordered: {pre:?} vs {post:?}"
    );
    check_converged(&sys.local_orders(), &sys.replica_states()).expect("Theorem 8.4");
    let cert = audit.finish().expect("audit covers the joined history");
    assert_eq!(cert.ops as usize, ids.len() + 2);
}

proptest! {
    #[test]
    fn restored_group_orders_new_ops_after_pre_crash_stable_ones(seed in any::<u64>()) {
        match std::env::var("ESDS_RESTART_SEED").ok().and_then(|s| s.parse().ok()) {
            Some(pinned) => run(pinned),
            None => run(seed),
        }
    }
}
