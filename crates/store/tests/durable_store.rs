//! Durable-store integration tests: snapshot round-trips for all three
//! service datatypes (kv, directory, bank), checkpoint idempotence, and
//! the torn-tail / corruption / crash-point contracts.

use std::collections::BTreeSet;

use esds_alg::{Replica, ReplicaConfig};
use esds_core::{ClientId, OpDescriptor, OpId, ReplicaId, SerialDataType};
use esds_datatypes::{Bank, BankOp, BankValue, Directory, DirectoryOp, KvOp, KvStore};
use esds_store::{
    CrashPlan, DurableConfig, DurableStore, MemStorage, RecoverReport, Storage, StoreError,
};

// ---------------------------------------------------------------------
// A minimal durable cluster driver (a TCP node's core loop in miniature):
// persist after every mutating handler, before effects are released.
// ---------------------------------------------------------------------

struct Node<T: SerialDataType> {
    rep: Replica<T>,
    store: DurableStore<T, MemStorage>,
    disk: MemStorage,
}

fn open_node<T>(
    dt: T,
    disk: MemStorage,
    id: u32,
    n: usize,
    cfg: DurableConfig,
) -> (Node<T>, RecoverReport)
where
    T: SerialDataType + Clone,
    T::Operator: esds_wire::Wire,
    T::Value: esds_wire::Wire,
    T::State: esds_wire::Wire,
{
    let (store, rep, report) = DurableStore::open(
        dt,
        disk.clone(),
        ReplicaId(id),
        n,
        ReplicaConfig::default(),
        cfg,
    )
    .expect("open");
    (Node { rep, store, disk }, report)
}

fn cluster<T>(dt: T, n: usize, cfg: DurableConfig) -> Vec<Node<T>>
where
    T: SerialDataType + Clone,
    T::Operator: esds_wire::Wire,
    T::Value: esds_wire::Wire,
    T::State: esds_wire::Wire,
{
    (0..n as u32)
        .map(|i| open_node(dt.clone(), MemStorage::new(), i, n, cfg).0)
        .collect()
}

fn request<T>(node: &mut Node<T>, d: OpDescriptor<T::Operator>) -> Vec<T::Value>
where
    T: SerialDataType + Clone,
    T::Operator: esds_wire::Wire,
    T::Value: esds_wire::Wire,
    T::State: esds_wire::Wire,
{
    let fx = node.rep.on_request(d);
    node.store.persist(&mut node.rep).expect("persist");
    fx.into_iter().map(|e| e.msg.value).collect()
}

fn gossip_round<T>(nodes: &mut [Node<T>])
where
    T: SerialDataType + Clone,
    T::Operator: esds_wire::Wire,
    T::Value: esds_wire::Wire,
    T::State: esds_wire::Wire,
{
    let n = nodes.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let to = nodes[j].rep.id();
            let g = nodes[i].rep.make_gossip(to);
            nodes[i].store.persist(&mut nodes[i].rep).expect("persist");
            let _fx = nodes[j].rep.on_gossip(g);
            nodes[j].store.persist(&mut nodes[j].rep).expect("persist");
        }
    }
}

fn checkpoint<T>(node: &mut Node<T>) -> bool
where
    T: SerialDataType + Clone,
    T::Operator: esds_wire::Wire,
    T::Value: esds_wire::Wire,
    T::State: esds_wire::Wire,
{
    node.store.checkpoint(&mut node.rep).expect("checkpoint")
}

fn id(client: u32, seq: u64) -> OpId {
    OpId::new(ClientId(client), seq)
}

/// All op ids a replica knows, whether memoized away or still in `rcvd`.
fn known_ids<T: SerialDataType>(rep: &Replica<T>) -> BTreeSet<OpId> {
    rep.memo_order()
        .iter()
        .copied()
        .chain(rep.rcvd().keys().copied())
        .collect()
}

// ---------------------------------------------------------------------
// Snapshot round-trips (kv, directory, bank)
// ---------------------------------------------------------------------

#[test]
fn snapshot_round_trip_kv() {
    let mut nodes = cluster(KvStore, 2, DurableConfig::wal_only());
    for (seq, op) in [
        KvOp::Put("a".into(), "1".into()),
        KvOp::Put("b".into(), "2".into()),
        KvOp::Remove("a".into()),
        KvOp::Put("c".into(), "3".into()),
    ]
    .into_iter()
    .enumerate()
    {
        request(&mut nodes[0], OpDescriptor::new(id(0, seq as u64), op));
        gossip_round(&mut nodes);
    }
    for _ in 0..3 {
        gossip_round(&mut nodes);
    }
    let want_state = nodes[0].rep.current_state();
    let want_order = nodes[0].rep.memo_order().to_vec();
    assert_eq!(want_state.get("b").map(String::as_str), Some("2"));
    assert!(checkpoint(&mut nodes[0]));

    let disk = nodes[0].disk.clone();
    let (restarted, report) = open_node(KvStore, disk, 0, 2, DurableConfig::wal_only());
    assert!(report.recovered);
    assert_eq!(report.snapshot_gen, Some(1));
    assert_eq!(restarted.rep.current_state(), want_state);
    assert_eq!(restarted.rep.memo_order(), &want_order[..]);
}

#[test]
fn snapshot_round_trip_directory() {
    let mut nodes = cluster(Directory, 2, DurableConfig::wal_only());
    for (seq, op) in [
        DirectoryOp::CreateName("svc".into()),
        DirectoryOp::SetAttr {
            name: "svc".into(),
            attr: "port".into(),
            value: "8080".into(),
        },
        DirectoryOp::CreateName("db".into()),
    ]
    .into_iter()
    .enumerate()
    {
        request(&mut nodes[0], OpDescriptor::new(id(0, seq as u64), op));
        gossip_round(&mut nodes);
    }
    for _ in 0..3 {
        gossip_round(&mut nodes);
    }
    let want_state = nodes[0].rep.current_state();
    assert_eq!(
        want_state
            .get("svc")
            .and_then(|m| m.get("port"))
            .map(String::as_str),
        Some("8080")
    );
    assert!(checkpoint(&mut nodes[0]));

    let disk = nodes[0].disk.clone();
    let (restarted, report) = open_node(Directory, disk, 0, 2, DurableConfig::wal_only());
    assert!(report.recovered);
    assert_eq!(restarted.rep.current_state(), want_state);
}

#[test]
fn snapshot_round_trip_bank_exact_balance() {
    let mut nodes = cluster(Bank, 2, DurableConfig::wal_only());
    for (seq, op) in [
        BankOp::Deposit(100),
        BankOp::Withdraw(30),   // admitted
        BankOp::Withdraw(1000), // rejected (insufficient funds)
        BankOp::Deposit(7),
    ]
    .into_iter()
    .enumerate()
    {
        request(&mut nodes[0], OpDescriptor::new(id(0, seq as u64), op));
        gossip_round(&mut nodes);
    }
    for _ in 0..3 {
        gossip_round(&mut nodes);
    }
    assert_eq!(nodes[0].rep.current_state(), 77);
    for node in nodes.iter_mut() {
        assert!(checkpoint(node));
    }

    // Restart the *whole* cluster from disk; both replicas re-enter via
    // the §9.3 gate, which closes after one full gossip exchange.
    let disks: Vec<MemStorage> = nodes.iter().map(|n| n.disk.clone()).collect();
    let mut nodes: Vec<Node<Bank>> = disks
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let (node, report) = open_node(Bank, d, i as u32, 2, DurableConfig::wal_only());
            assert!(report.recovered, "replica {i} must recover from disk");
            node
        })
        .collect();
    assert!(nodes.iter().all(|n| n.rep.is_recovering()));
    gossip_round(&mut nodes);
    assert!(nodes.iter().all(|n| !n.rep.is_recovering()));

    // Balance is exact through snapshot + replay, via a fresh request.
    assert_eq!(nodes[0].rep.current_state(), 77);
    let values = request(&mut nodes[0], OpDescriptor::new(id(9, 0), BankOp::Balance));
    assert_eq!(values, vec![BankValue::Balance(77)]);
}

// ---------------------------------------------------------------------
// Checkpoint (durable compaction) idempotence
// ---------------------------------------------------------------------

#[test]
fn checkpoint_twice_is_checkpoint_once() {
    let mut nodes = cluster(KvStore, 2, DurableConfig::wal_only());
    for seq in 0..6u64 {
        request(
            &mut nodes[0],
            OpDescriptor::new(id(0, seq), KvOp::Put(format!("k{seq}"), format!("v{seq}"))),
        );
        gossip_round(&mut nodes);
    }
    // Leave an unstable suffix: one op that never gossips out.
    request(
        &mut nodes[0],
        OpDescriptor::new(id(0, 99), KvOp::Put("late".into(), "x".into())),
    );

    assert!(checkpoint(&mut nodes[0]));
    let gen1 = nodes[0].store.generation();
    let snap1 = nodes[0]
        .disk
        .read(&format!("snap-{gen1:010}.img"))
        .unwrap()
        .unwrap();
    let wal1 = nodes[0].disk.read(&format!("wal-{gen1:010}.log")).unwrap();

    assert!(checkpoint(&mut nodes[0]));
    let gen2 = nodes[0].store.generation();
    assert_eq!(gen2, gen1 + 1);
    let snap2 = nodes[0]
        .disk
        .read(&format!("snap-{gen2:010}.img"))
        .unwrap()
        .unwrap();
    let wal2 = nodes[0].disk.read(&format!("wal-{gen2:010}.log")).unwrap();

    // Same snapshot image, same re-logged suffix, old generation gone.
    assert_eq!(snap1, snap2);
    assert_eq!(wal1, wal2);
    let files = nodes[0].disk.list().unwrap();
    assert!(!files.contains(&format!("snap-{gen1:010}.img")));

    // And the recovered replica is identical either way. (Its
    // `current_state` excludes the unstable "late" op until the §9.3
    // gate closes — compare the durable knowledge, not the live view.)
    let (restarted, _) = open_node(
        KvStore,
        nodes[0].disk.clone(),
        0,
        2,
        DurableConfig::wal_only(),
    );
    assert_eq!(restarted.rep.memo_order(), nodes[0].rep.memo_order());
    assert_eq!(known_ids(&restarted.rep), known_ids(&nodes[0].rep));
}

// ---------------------------------------------------------------------
// Torn tails, corruption, crash points
// ---------------------------------------------------------------------

#[test]
fn torn_tail_is_dropped_with_a_diagnostic() {
    let (mut node, _) = open_node(KvStore, MemStorage::new(), 0, 1, DurableConfig::wal_only());
    for seq in 0..4u64 {
        request(
            &mut node,
            OpDescriptor::new(id(0, seq), KvOp::Put(format!("k{seq}"), "v".into())),
        );
    }
    let wal = "wal-0000000000.log";
    let len = node.disk.read(wal).unwrap().unwrap().len();
    assert!(node.disk.truncate_file(wal, len - 3));

    let (_, report) = open_node(KvStore, node.disk.clone(), 0, 1, DurableConfig::wal_only());
    assert!(report.recovered);
    assert_eq!(report.torn_tails.len(), 1, "torn tail must be reported");
    assert_eq!(report.torn_tails[0].0, wal);
    assert!(report.torn_tails[0].1 > 0);
    assert!(format!("{report}").contains("torn tail"));
}

#[test]
fn corrupt_record_is_refused_never_skipped() {
    let (mut node, _) = open_node(KvStore, MemStorage::new(), 0, 1, DurableConfig::wal_only());
    for seq in 0..4u64 {
        request(
            &mut node,
            OpDescriptor::new(id(0, seq), KvOp::Put(format!("k{seq}"), "v".into())),
        );
    }
    // Flip a byte inside the first record's *payload* (offset 12 is
    // where the payload starts, past the len+checksum header). A flip
    // in a length field may legitimately classify as a torn tail; a
    // payload flip must always be caught by the checksum.
    let wal = "wal-0000000000.log";
    assert!(node.disk.flip_byte(wal, 14));

    match DurableStore::<KvStore, _>::open(
        KvStore,
        node.disk.clone(),
        ReplicaId(0),
        1,
        ReplicaConfig::default(),
        DurableConfig::wal_only(),
    ) {
        Err(e @ StoreError::Corrupt { .. }) => {
            assert!(
                format!("{e}").contains(wal),
                "diagnostic names the file: {e}"
            );
        }
        Ok(_) => panic!("corrupt log must refuse recovery"),
        Err(e) => panic!("expected Corrupt, got {e}"),
    }
}

#[test]
fn crash_point_preserves_every_synced_op() {
    let (mut node, _) = open_node(
        KvStore,
        MemStorage::new(),
        0,
        1,
        DurableConfig {
            snapshot_every: Some(4),
        },
    );
    node.disk.set_crash_plan(CrashPlan {
        after_bytes: 700,
        keep_unsynced_tail: false,
    });

    let mut last_synced: BTreeSet<OpId> = BTreeSet::new();
    for seq in 0..200u64 {
        let d = OpDescriptor::new(id(0, seq), KvOp::Put(format!("k{seq}"), format!("v{seq}")));
        let _fx = node.rep.on_request(d);
        match node.store.persist(&mut node.rep) {
            Ok(()) => last_synced = known_ids(&node.rep),
            Err(_) => break, // power lost: the response above is dropped
        }
    }
    assert!(
        node.disk.is_crashed(),
        "the plan must fire within the workload"
    );
    assert!(!last_synced.is_empty());

    let (restarted, report) = open_node(
        KvStore,
        node.disk.survivor(),
        0,
        1,
        DurableConfig::default(),
    );
    assert!(report.recovered);
    assert_eq!(
        known_ids(&restarted.rep),
        last_synced,
        "exactly the acknowledged ops survive ({report})"
    );
}

#[test]
fn torn_snapshot_falls_back_to_previous_generation() {
    let (mut node, _) = open_node(KvStore, MemStorage::new(), 0, 1, DurableConfig::wal_only());
    for seq in 0..3u64 {
        request(
            &mut node,
            OpDescriptor::new(id(0, seq), KvOp::Put(format!("k{seq}"), "v".into())),
        );
    }
    assert!(node.store.checkpoint(&mut node.rep).unwrap());
    let want_state = node.rep.current_state();

    // Crash mid-write of the *second* snapshot: the torn snap survives
    // as a partial file, generation 1 is still intact.
    node.disk.set_crash_plan(CrashPlan {
        after_bytes: 10,
        keep_unsynced_tail: true,
    });
    assert!(node.store.checkpoint(&mut node.rep).is_err());

    let (restarted, report) = open_node(
        KvStore,
        node.disk.survivor(),
        0,
        1,
        DurableConfig::wal_only(),
    );
    assert!(report.recovered);
    assert_eq!(
        report.snapshot_gen,
        Some(1),
        "fell back past the torn snapshot"
    );
    assert_eq!(
        report.skipped_snapshots,
        vec!["snap-0000000002.img".to_string()]
    );
    assert_eq!(restarted.rep.current_state(), want_state);
}

#[test]
fn fresh_store_boots_an_active_replica() {
    let (node, report) = open_node(KvStore, MemStorage::new(), 0, 3, DurableConfig::default());
    assert!(!report.recovered);
    assert!(!node.rep.is_recovering());
    assert_eq!(format!("{report}"), "fresh store (no prior state)");
}
