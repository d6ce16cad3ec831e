//! End-to-end scenarios for the sharded service layer: the `ShardRouter`
//! partitioning kv/directory workloads across independent replica groups,
//! cross-shard `prev` enforcement, per-shard convergence, and the
//! TCP `ShardedWireService` — all through the `esds` facade.

use std::collections::BTreeMap;

use esds::core::{KeyedDataType, ShardRouter, ShardedOpId};
use esds::datatypes::{Directory, DirectoryOp, DirectoryValue, KvOp, KvStore, KvValue};
use esds::harness::{ShardedSimSystem, ShardedSystemConfig, SystemConfig};
use esds::spec::check_converged;

fn kv_cfg(n_shards: usize, seed: u64) -> ShardedSystemConfig {
    ShardedSystemConfig::new(n_shards, SystemConfig::new(3).with_seed(seed))
}

/// A sharded kv store behaves like one kv store: writes land on their
/// key's shard, reads constrained after them observe them, and the final
/// union of per-shard states equals the sequential map.
#[test]
fn sharded_kv_equals_sequential_map() {
    let mut sys = ShardedSimSystem::new(KvStore, kv_cfg(4, 11));
    let c = sys.add_client(0);
    let mut expect: BTreeMap<String, String> = BTreeMap::new();
    let mut last_write: BTreeMap<String, ShardedOpId> = BTreeMap::new();
    for i in 0..40 {
        let k = format!("k{}", i % 10);
        let v = format!("v{i}");
        // Per-key ordering via prev on the previous write of the same key
        // (same key ⇒ same shard ⇒ the group's own protocol enforces it).
        let prev: Vec<ShardedOpId> = last_write.get(&k).copied().into_iter().collect();
        let id = sys.submit(c, KvOp::put(&k, &v), &prev, false);
        last_write.insert(k.clone(), id);
        expect.insert(k, v);
    }
    sys.run_until_quiescent();

    // Read every key back, constrained after its last write.
    let mut reads = Vec::new();
    for (k, wid) in &last_write {
        reads.push((k.clone(), sys.submit(c, KvOp::get(k), &[*wid], false)));
    }
    sys.run_until_quiescent();
    for (k, rid) in reads {
        assert_eq!(
            sys.response(rid),
            Some(&KvValue::Value(Some(expect[&k].clone()))),
            "key {k}"
        );
    }

    // Every shard's replica group individually converged, and the union
    // of the per-shard maps is exactly the expected map.
    let mut union: BTreeMap<String, String> = BTreeMap::new();
    for shard in sys.shards() {
        assert!(check_converged(&shard.local_orders(), &shard.replica_states()).is_ok());
        union.extend(shard.replica_states()[0].clone());
    }
    assert_eq!(union, expect);
}

/// The §11.2 directory idiom survives sharding: a name's creation and its
/// `prev`-ordered initialization stay on one shard, and lookups
/// constrained after initialization see the attribute on every shard.
#[test]
fn sharded_directory_create_then_init_idiom() {
    let mut sys = ShardedSimSystem::new(
        Directory,
        ShardedSystemConfig::new(4, SystemConfig::new(3).with_seed(21)),
    );
    let c = sys.add_client(0);
    let mut lookups = Vec::new();
    for i in 0..12 {
        let name = format!("host{i}");
        let create = sys.submit(c, DirectoryOp::create(&name), &[], false);
        let init = sys.submit(
            c,
            DirectoryOp::set_attr(&name, "addr", format!("10.0.0.{i}")),
            &[create],
            false,
        );
        lookups.push((
            i,
            sys.submit(c, DirectoryOp::lookup(&name, "addr"), &[init], false),
        ));
    }
    sys.run_until_quiescent();
    for (i, id) in lookups {
        assert_eq!(
            sys.response(id),
            Some(&DirectoryValue::Attr(Some(format!("10.0.0.{i}")))),
            "host{i}"
        );
    }
    // Names spread across the groups.
    let loads = sys.shard_loads();
    assert!(
        loads.iter().filter(|l| **l > 0).count() >= 2,
        "12 names must occupy several shards: {loads:?}"
    );
}

/// A strict op on one shard does not wait for other shards: strictness is
/// a per-group stability condition.
#[test]
fn strict_is_per_shard_stability() {
    let mut sys = ShardedSimSystem::new(KvStore, kv_cfg(4, 31));
    let c = sys.add_client(0);
    let strict_put = sys.submit(c, KvOp::put("a", "1"), &[], true);
    // Load up a *different* shard with work; shard of "a" is unaffected.
    let router = sys.router();
    let other_key = (0..100)
        .map(|i| format!("x{i}"))
        .find(|k| router.shard_of_key(k) != router.shard_of_key("a"))
        .expect("key on another shard");
    for i in 0..20 {
        sys.submit(c, KvOp::put(&other_key, format!("{i}")), &[], false);
    }
    sys.run_until_quiescent();
    assert_eq!(sys.response(strict_put), Some(&KvValue::Ack));
}

/// Mixed cross-shard dependency chains resolve, and the routing agrees
/// with a fresh router built from the shard count alone (the property
/// every front end relies on).
#[test]
fn routing_is_shared_knowledge() {
    let n_shards = 5;
    let mut sys = ShardedSimSystem::new(KvStore, kv_cfg(n_shards, 41));
    let external = ShardRouter::new(n_shards as u32);
    let c = sys.add_client(0);
    let mut prev: Vec<ShardedOpId> = Vec::new();
    for i in 0..20 {
        let key = format!("item{i}");
        let id = sys.submit(c, KvOp::put(&key, "x"), &prev, false);
        let (placed, _) = sys.placement(id).expect("placed");
        assert_eq!(
            placed,
            external.shard_of_key(&key),
            "system and external router must agree on {key}"
        );
        assert_eq!(placed, external.route(&KvStore, &KvOp::put(&key, "x")));
        prev = vec![id];
    }
    sys.run_until_quiescent();
    assert_eq!(sys.completed_count(), 20);
}

/// The sharded TCP deployment answers through the same facade.
#[test]
fn sharded_runtime_end_to_end() {
    use esds::wire::{ShardedWireConfig, ShardedWireService};
    use std::time::Duration;

    let mut svc = ShardedWireService::launch(KvStore, 3, ShardedWireConfig::new(2));
    let mut client = svc.client();
    let mut ids = Vec::new();
    for i in 0..9 {
        ids.push((
            i,
            client.submit(KvOp::put(format!("k{i}"), format!("{i}")), &[], false),
        ));
    }
    for (i, id) in &ids {
        assert_eq!(
            client.await_response(*id, Duration::from_secs(10)),
            Some(KvValue::Ack),
            "put k{i}"
        );
    }
    // A cross-shard dependent read: submit blocks on the foreign put,
    // then the read observes it.
    let read = client.submit(KvOp::get("k3"), &[ids[3].1], false);
    assert_eq!(
        client.await_response(read, Duration::from_secs(10)),
        Some(KvValue::Value(Some("3".into())))
    );
    let states = svc.shutdown();
    assert_eq!(states.len(), 3, "one replica group per shard");
}

/// Live rebalancing through the facade: grow, then shrink, a sharded kv
/// deployment under a continuing workload. Every key keeps its
/// last-written value across both handoffs, and the sequential-map
/// equivalence of `sharded_kv_equals_sequential_map` still holds over
/// the *final* table (drained groups keep stale history, but no key
/// routes to them any more).
#[test]
fn sharded_kv_rebalance_grow_then_shrink() {
    let mut sys = ShardedSimSystem::new(KvStore, kv_cfg(2, 61));
    let c = sys.add_client(0);
    let mut expect: BTreeMap<String, String> = BTreeMap::new();
    let mut last_write: BTreeMap<String, ShardedOpId> = BTreeMap::new();
    let mut put = |sys: &mut ShardedSimSystem<KvStore>, i: usize| {
        let k = format!("k{}", i % 12);
        let v = format!("v{i}");
        let prev: Vec<ShardedOpId> = last_write.get(&k).copied().into_iter().collect();
        let id = sys.submit(c, KvOp::put(&k, &v), &prev, false);
        last_write.insert(k.clone(), id);
        expect.insert(k, v);
    };
    for i in 0..16 {
        put(&mut sys, i);
    }
    sys.run_for(esds::sim::SimDuration::from_millis(40));
    // Grow 2 → 3 while writing continues.
    let new = sys.begin_add_shard();
    assert_eq!(new, 2);
    for i in 16..32 {
        put(&mut sys, i);
    }
    sys.run_until_quiescent();
    assert_eq!(sys.table_version(), 1);
    // Shrink: drain shard 0 (the original home shard) while writing.
    sys.begin_drain_shard(0);
    for i in 32..48 {
        put(&mut sys, i);
    }
    sys.run_until_quiescent();
    assert_eq!(sys.table_version(), 2);
    assert!(sys.router().table().slots_of(0).is_empty());

    // Read everything back, constrained after its last write.
    let mut reads = Vec::new();
    for (k, wid) in &last_write {
        reads.push((k.clone(), sys.submit(c, KvOp::get(k), &[*wid], false)));
    }
    sys.run_until_quiescent();
    for (k, rid) in reads {
        let (shard, _) = sys.placement(rid).expect("placed");
        assert_ne!(shard, 0, "key {k} still routed to the drained shard");
        assert_eq!(
            sys.response(rid),
            Some(&KvValue::Value(Some(expect[&k].clone()))),
            "key {k} across two rebalances"
        );
    }
    // Per-shard convergence everywhere, including the drained group.
    for shard in sys.shards() {
        assert!(check_converged(&shard.local_orders(), &shard.replica_states()).is_ok());
    }
}

/// `KeyedDataType` keys imply commutativity across shards (the soundness
/// condition the router relies on): sample operator pairs with different
/// keys and brute-force check independence.
#[test]
fn different_keys_imply_independence() {
    use esds::core::{commutes_at, oblivious_at};
    let dt = KvStore;
    let ops = [
        KvOp::put("a", "1"),
        KvOp::get("a"),
        KvOp::remove("a"),
        KvOp::put("b", "2"),
        KvOp::get("b"),
        KvOp::remove("b"),
    ];
    let mut state = BTreeMap::new();
    state.insert("a".to_string(), "0".to_string());
    state.insert("b".to_string(), "0".to_string());
    for x in &ops {
        for y in &ops {
            let (kx, ky) = (dt.shard_key(x), dt.shard_key(y));
            if kx.is_some() && ky.is_some() && kx != ky {
                assert!(commutes_at(&dt, &state, x, y), "{x:?} vs {y:?}");
                assert!(oblivious_at(&dt, &state, x, y), "{x:?} vs {y:?}");
            }
        }
    }
}
