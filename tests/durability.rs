//! Durability of the **sharded TCP deployment**: every replica of every
//! shard writes a WAL + stable-prefix snapshots through `esds-store`,
//! the whole deployment is stopped abruptly (`kill -9` analogue — no
//! flush, no checkpoint, in-flight operations cut wherever they
//! happen to be), relaunched from the on-disk images, and the joined
//! pre-/post-crash history is audited per shard with the
//! [`StreamingChecker`]:
//!
//! * **recover ⊇ answered** — every operation answered before the kill
//!   is present in the recovered eventual order (sync-before-release:
//!   a response is only released after its effects are on disk);
//! * **no answered strict response contradicted** — a strict read
//!   re-issued after the restart returns exactly the value the
//!   pre-kill strict read witnessed (the stable prefix is final,
//!   Theorem 5.8, and recovery preserved it);
//! * the per-shard audit certificate covers the *entire* recovered
//!   order — pre-crash survivors and post-restart operations explained
//!   by one serialization each.
//!
//! A second test pins how a restart numbers its clients, and a third
//! runs the `ESDS-II` conformance observer over a fully durable
//! simulated system: appending and checkpointing on the hot path must
//! not change a single observable protocol action.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

use esds::alg::{Persistence, Replica, ReplicaConfig};
use esds::core::{OpDescriptor, OpId, ReplicaId, ShardedOpId};
use esds::datatypes::{Counter, CounterOp, KvOp, KvStore, KvValue};
use esds::harness::{ConformanceObserver, SimSystem, SystemConfig};
use esds::spec::{check_converged, StreamingChecker};
use esds::store::{DurableConfig, DurableStore, FileStorage, MemStorage, Storage};
use esds::wire::{ShardedWireClient, ShardedWireConfig, ShardedWireService};

const N_SHARDS: usize = 2;
const N_REPLICAS: usize = 3;
const WAIT: Duration = Duration::from_secs(60);

type Group = Vec<(Replica<KvStore>, Box<dyn Persistence<KvStore>>)>;

/// Opens (or recovers) the durable backends of one shard's replica
/// group of `n` under `root`, checkpointing every `snapshot_every`
/// records. `expect_recovered` pins whether the directories must be
/// fresh (first boot) or must contain a recoverable image (restart).
fn open_group(
    root: &Path,
    shard: usize,
    n: usize,
    snapshot_every: u64,
    expect_recovered: bool,
) -> Group {
    (0..n)
        .map(|r| {
            let dir = root.join(format!("shard{shard}")).join(format!("rep{r}"));
            std::fs::create_dir_all(&dir).expect("create WAL directory");
            let storage = FileStorage::open(&dir).expect("open WAL directory");
            let (store, rep, report) = DurableStore::open(
                KvStore,
                storage,
                ReplicaId(r as u32),
                n,
                ReplicaConfig::default(),
                DurableConfig {
                    snapshot_every: Some(snapshot_every),
                },
            )
            .expect("open durable store");
            assert_eq!(
                report.recovered, expect_recovered,
                "shard {shard} replica {r}: {report}"
            );
            (rep, Box::new(store) as Box<dyn Persistence<KvStore>>)
        })
        .collect()
}

fn launch(root: &Path, expect_recovered: bool) -> ShardedWireService<KvStore> {
    let groups = (0..N_SHARDS)
        .map(|s| open_group(root, s, N_REPLICAS, 16, expect_recovered))
        .collect();
    ShardedWireService::launch_durable(KvStore, ShardedWireConfig::new(N_REPLICAS), groups)
}

/// The audit's client-side view of one submission: the owning shard's
/// descriptor at submission time (the §10.1 memo may prune stable
/// descriptors from the final replicas, so the test carries its own
/// copy of every descriptor it created).
struct Sub {
    shard: usize,
    desc: OpDescriptor<KvOp>,
}

fn log_sub(subs: &mut Vec<Sub>, client: &ShardedWireClient<KvStore>, gid: ShardedOpId) {
    let (shard, desc) = client.local_descriptor(gid).expect("submitted");
    subs.push(Sub {
        shard: shard as usize,
        desc,
    });
}

/// The owning shard and the shard-local id `gid` was submitted under.
fn local(client: &ShardedWireClient<KvStore>, gid: ShardedOpId) -> (usize, OpId) {
    let (shard, desc) = client.local_descriptor(gid).expect("submitted");
    (shard as usize, desc.id)
}

#[test]
fn shard_cluster_killed_mid_workload_recovers_from_disk() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("esds-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // ---- Phase 1: a durable cluster absorbs an answered prefix. ----
    let mut svc = launch(&root, false);
    let mut pre = svc.client();

    let mut subs: Vec<Sub> = Vec::new();
    // Per-shard response log for the audit: (local id, value).
    let mut responses: Vec<Vec<(OpId, KvValue)>> = vec![Vec::new(); N_SHARDS];

    // 24 chained writes/reads over 8 keys, a strict op every fifth.
    let keys: Vec<String> = (0..8).map(|k| format!("a{k}")).collect();
    let mut last_on_key: BTreeMap<String, ShardedOpId> = BTreeMap::new();
    let mut answered: Vec<ShardedOpId> = Vec::new();
    for i in 0..24u64 {
        let key = &keys[(i % 8) as usize];
        let op = if i % 3 == 2 {
            KvOp::get(key)
        } else {
            KvOp::put(key, format!("A{i}"))
        };
        let prev: Vec<ShardedOpId> = last_on_key.get(key).copied().into_iter().collect();
        let strict = i % 5 == 0;
        let gid = pre.submit(op, &prev, strict);
        log_sub(&mut subs, &pre, gid);
        last_on_key.insert(key.clone(), gid);
        answered.push(gid);
    }
    for gid in &answered {
        let v = pre
            .await_response(*gid, WAIT)
            .expect("answered before kill");
        let (shard, id) = local(&pre, *gid);
        responses[shard].push((id, v));
    }
    // A strict read per key: its answer is final in the eventual total
    // order (Theorem 5.8) — the restart must not contradict it.
    let mut witnessed: BTreeMap<String, KvValue> = BTreeMap::new();
    for key in &keys {
        let prev: Vec<ShardedOpId> = last_on_key.get(key).copied().into_iter().collect();
        let gid = pre.submit(KvOp::get(key), &prev, true);
        log_sub(&mut subs, &pre, gid);
        let v = pre.await_response(gid, WAIT).expect("strict read answered");
        let (shard, id) = local(&pre, gid);
        responses[shard].push((id, v.clone()));
        witnessed.insert(key.clone(), v);
    }
    let n_answered = subs.len();

    // ---- Kill -9 mid-workload: 16 more operations are in flight (on a
    // disjoint key range) when the whole cluster dies. Whatever subset
    // reached a synced frame survives; nothing was answered, so any
    // cut is legal. Shutdown stops every core before its next input
    // and writes nothing on the way out; the replicas it returns are
    // discarded, so the disk is all that survives. ----
    for j in 0..16u64 {
        let op = KvOp::put(format!("b{}", j % 8), format!("B{j}"));
        let gid = pre.submit(op, &[], false);
        log_sub(&mut subs, &pre, gid);
    }
    let n_inflight = subs.len() - n_answered;
    drop(svc.shutdown());

    // ---- Phase 2: restart every replica from its on-disk image. ----
    let mut svc = launch(&root, true);
    let mut post = svc.client();

    // No answered strict response contradicted: the recovered cluster's
    // strict reads see exactly what the pre-kill strict reads witnessed
    // (phase-B traffic touched a disjoint key range).
    for key in &keys {
        let gid = post.submit(KvOp::get(key), &[], true);
        log_sub(&mut subs, &post, gid);
        let v = post
            .await_response(gid, WAIT)
            .expect("strict read after restart");
        assert_eq!(
            Some(&v),
            witnessed.get(key),
            "restart contradicted the answered strict read of {key}"
        );
        let (shard, id) = local(&post, gid);
        responses[shard].push((id, v));
    }
    // Every shard must carry a post-restart strict op before shutdown:
    // a strict answer makes everything before it stable everywhere in
    // its group, so the shutdown below reads converged replicas. The
    // a-key reads above fence the shards they hashed to; probe extra
    // keys until the rest are covered too.
    let mut fenced: Vec<bool> = vec![false; N_SHARDS];
    for key in &keys {
        if let Some(s) = last_on_key.get(key).and_then(|gid| pre.shard_of(*gid)) {
            fenced[s as usize] = true;
        }
    }
    for j in 0..16u64 {
        if fenced.iter().all(|f| *f) {
            break;
        }
        let gid = post.submit(KvOp::get(format!("f{j}")), &[], true);
        log_sub(&mut subs, &post, gid);
        let v = post.await_response(gid, WAIT).expect("fence read answered");
        let (shard, id) = local(&post, gid);
        fenced[shard] = true;
        responses[shard].push((id, v));
    }
    assert!(fenced.iter().all(|f| *f), "fence probes missed a shard");

    // ---- Audit: per shard, the recovered history is one serializable
    // story covering everything that survived. ----
    let final_reps = svc.shutdown();
    assert_eq!(final_reps.len(), N_SHARDS);
    let mut survivors = 0usize;
    for (s, reps) in final_reps.iter().enumerate() {
        let orders: Vec<Vec<OpId>> = reps.iter().map(|r| r.local_order()).collect();
        let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
        check_converged(&orders, &states)
            .unwrap_or_else(|e| panic!("shard {s} diverged after recovery: {e}"));

        // recover ⊇ answered: every answered operation of this shard is
        // in the recovered order.
        let order = &orders[0];
        let in_order: BTreeSet<OpId> = order.iter().copied().collect();
        for (local, _) in &responses[s] {
            assert!(
                in_order.contains(local),
                "shard {s}: answered {local} lost by the restart"
            );
        }

        // Streaming audit over the joined history: the requests that
        // survived the cut (in submission order — `prev` chains only
        // through the always-surviving answered prefix), every response
        // this test observed, then the stabilize stream; the
        // certificate must cover the whole recovered order.
        let mut chk = StreamingChecker::new(KvStore);
        for sub in subs.iter().filter(|u| u.shard == s) {
            if in_order.contains(&sub.desc.id) {
                chk.on_request(sub.desc.clone())
                    .unwrap_or_else(|e| panic!("shard {s}: {e}"));
            }
        }
        for (local, value) in &responses[s] {
            chk.on_response(*local, value.clone(), None)
                .unwrap_or_else(|e| panic!("shard {s}: {e}"));
        }
        for id in order {
            chk.on_stabilize(*id)
                .unwrap_or_else(|e| panic!("shard {s}: {e}"));
        }
        let cert = chk
            .finish()
            .unwrap_or_else(|v| panic!("shard {s} audit failed: {v}"));
        assert_eq!(cert.ops as usize, order.len());
        survivors += order.len();
    }
    // Everything answered survived; of the in-flight tail, whatever
    // subset the disk kept — never more than was submitted.
    let post_ops = subs.len() - n_answered - n_inflight;
    assert!(survivors >= n_answered + post_ops);
    assert!(survivors <= subs.len());

    let _ = std::fs::remove_dir_all(&root);
}

/// Regression: a restart must not re-issue a client identity whose
/// operations survive only in the checkpointed prefix. Checkpointing
/// after every record leaves both of the old client's operations in the
/// snapshot — labelled, but not received descriptors — so a floor over
/// received ids alone hands the new client the old identity: its put
/// aliases the old put and is answered from the memo without applying,
/// and its strict read then returns the old value.
#[test]
fn restart_numbers_clients_above_the_checkpointed_prefix() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("esds-durability-floor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let launch = |group: Group| {
        ShardedWireService::launch_durable(KvStore, ShardedWireConfig::new(1), vec![group])
    };

    let mut svc = launch(open_group(&root, 0, 1, 1, false));
    let mut old = svc.client();
    let put = old.submit(KvOp::put("k", "A"), &[], true);
    assert_eq!(old.await_response(put, WAIT), Some(KvValue::Ack));
    let get = old.submit(KvOp::get("k"), &[put], true);
    assert_eq!(
        old.await_response(get, WAIT),
        Some(KvValue::Value(Some("A".into())))
    );
    drop(svc.shutdown());

    let group = open_group(&root, 0, 1, 1, true);
    let (rep, _) = &group[0];
    assert_eq!(rep.local_order().len(), 2, "both operations recovered");
    assert!(rep.rcvd().is_empty(), "both operations in the prefix");
    let mut svc = launch(group);
    let mut new = svc.client();
    let put = new.submit(KvOp::put("k", "B"), &[], true);
    assert_eq!(new.await_response(put, WAIT), Some(KvValue::Ack));
    let get = new.submit(KvOp::get("k"), &[put], true);
    assert_eq!(
        new.await_response(get, WAIT),
        Some(KvValue::Value(Some("B".into()))),
        "the new client's write was answered as the old client's"
    );
    assert!(new.client() > old.client(), "client identity recycled");
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `ESDS-II` conformance observer over a **fully durable** simulated
/// system: all three replicas append to a WAL and checkpoint through
/// the stable-prefix snapshot path while the observer replays every
/// simulation step against the specification automaton. Persistence is
/// pure bookkeeping below the protocol — it must not add, drop, or
/// reorder a single observable action.
#[test]
fn durable_replicas_conform_to_esds2() {
    let cfg = SystemConfig::new(3)
        .with_seed(77)
        .with_replica(ReplicaConfig::default().with_witness().with_durable())
        .with_tracking();
    let mut sys = SimSystem::new(Counter, cfg);
    let mut disks = Vec::new();
    for r in 0..3 {
        let disk = MemStorage::new();
        let (store, _fresh, report) = DurableStore::open(
            Counter,
            disk.clone(),
            ReplicaId(r as u32),
            3,
            ReplicaConfig::default(),
            DurableConfig {
                snapshot_every: Some(4),
            },
        )
        .expect("fresh open");
        assert!(!report.recovered);
        sys.install_persistence(r, Box::new(store));
        disks.push(disk);
    }

    let clients: Vec<_> = (0..2).map(|i| sys.add_client(i)).collect();
    let mut last: Option<OpId> = None;
    let total = 16usize;
    for i in 0..total {
        let op = if i % 3 == 0 {
            CounterOp::Read
        } else {
            CounterOp::Increment(1)
        };
        let prev: Vec<OpId> = if i % 4 == 1 {
            last.into_iter().collect()
        } else {
            Vec::new()
        };
        last = Some(sys.submit(clients[i % 2], op, &prev, i % 5 == 0));
    }

    let mut obs = ConformanceObserver::new(Counter);
    let mut idle = 0u32;
    for _ in 0..1_000_000u64 {
        let Some((_, report)) = sys.step_one() else {
            break;
        };
        let view = sys.view().expect("no crashes in this test");
        obs.observe(&report, &view)
            .expect("durable replica violated ESDS-II conformance");
        if sys.is_converged() && report.is_trivial() {
            idle += 1;
            if idle > 5 {
                break;
            }
        } else {
            idle = 0;
        }
    }
    assert_eq!(obs.spec().ops().len(), total, "all ops entered the spec");
    assert_eq!(obs.spec().stabilized().len(), total, "all ops stabilized");

    // The durable plane actually ran: every replica appended WAL frames
    // and compacted at least once (snapshot_every = 4 over 16 ops'
    // admit + label records).
    for (r, disk) in disks.iter().enumerate() {
        let files = disk.list().expect("list");
        assert!(
            files.iter().any(|f| f.starts_with("wal-")),
            "replica {r} never appended: {files:?}"
        );
        assert!(
            files.iter().any(|f| f.starts_with("snap-")),
            "replica {r} never checkpointed: {files:?}"
        );
    }
}
