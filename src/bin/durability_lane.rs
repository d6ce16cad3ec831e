//! CI durability lane: a durable sharded TCP cluster under a steady
//! mixed workload (puts and gets over 32 keys, about one in seven
//! strict, eight in flight; no fault injected), killed for real
//! (`kill -9` from the workflow), restarted from the surviving
//! directories, and audited end to end.
//!
//! ```text
//! durability_lane run <dir>      # loop forever; the workflow kills -9
//! durability_lane recover <dir>  # restart from disk, verify, audit
//! ```
//!
//! The `run` phase appends every externally-visible event (requests at
//! submission, responses as they land, shard-local ids) to
//! `<dir>/trace.jsonl`, flushed line by line — `kill -9` loses at most
//! a torn trailing line, never an acknowledged response that the OS
//! already had. The `recover` phase reopens every replica's store
//! (all must report a recovered image), restarts the cluster, fences
//! each shard with a strict read, and then checks, per shard:
//!
//! * **recover ⊇ answered** — every response line in the trace names
//!   an operation present in the recovered eventual order;
//! * the whole joined history — surviving trace requests, operations
//!   whose trace line was cut but whose WAL frame survived (descriptors
//!   harvested from the recovered replicas), responses, and the
//!   recovered stabilization order — passes the [`StreamingChecker`]
//!   with a full-coverage certificate (Theorems 5.7/5.8).
//!
//! Exit code 0 = verified; 1 = durability or audit violation; 2 =
//! setup/usage error.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use esds::alg::{Persistence, Replica, ReplicaConfig};
use esds::audit::{encode_line, parse_line, TraceEvent};
use esds::core::{OpDescriptor, OpId, ReplicaId, ShardedOpId};
use esds::datatypes::{KvOp, KvStore, KvValue};
use esds::spec::{check_converged, AuditEvent, StreamingChecker};
use esds::store::{DurableConfig, DurableStore, FileStorage};
use esds::wire::{ShardedWireClient, ShardedWireConfig, ShardedWireService};

const N_SHARDS: usize = 2;
const N_REPLICAS: usize = 3;

type Groups = Vec<Vec<(Replica<KvStore>, Box<dyn Persistence<KvStore>>)>>;

/// Opens every `(shard, replica)` store under `root`, with batched
/// gossip as the TCP deployments of the `ledger` benchmark run: the
/// library-default full-snapshot gossip ships a replica's whole history
/// every round, so its cost grows with the run. When
/// `require_recovered` is set, a fresh (empty) image is an error — the
/// recover phase must actually be recovering something.
fn open_groups(root: &Path, require_recovered: bool) -> Result<Groups, String> {
    (0..N_SHARDS)
        .map(|s| {
            (0..N_REPLICAS)
                .map(|r| {
                    let dir = root.join(format!("shard{s}")).join(format!("rep{r}"));
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    let storage = FileStorage::open(&dir).map_err(|e| e.to_string())?;
                    let (store, rep, report) = DurableStore::open(
                        KvStore,
                        storage,
                        ReplicaId(r as u32),
                        N_REPLICAS,
                        ReplicaConfig::default().with_batched(1),
                        DurableConfig {
                            snapshot_every: Some(64),
                        },
                    )
                    .map_err(|e| format!("shard {s} replica {r}: {e}"))?;
                    if require_recovered && !report.recovered {
                        return Err(format!(
                            "shard {s} replica {r}: nothing to recover ({report})"
                        ));
                    }
                    println!("durability_lane: shard {s} replica {r}: {report}");
                    Ok((rep, Box::new(store) as Box<dyn Persistence<KvStore>>))
                })
                .collect()
        })
        .collect()
}

/// Deterministic keystream for the workload (no external RNG in
/// a lane binary that must behave identically on every runner).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn trace_request(client: &ShardedWireClient<KvStore>, gid: ShardedOpId) -> TraceEvent {
    let (shard, desc) = client.local_descriptor(gid).expect("submitted");
    TraceEvent {
        shard,
        event: AuditEvent::Request(desc),
    }
}

fn trace_response(
    client: &ShardedWireClient<KvStore>,
    gid: ShardedOpId,
    value: KvValue,
) -> TraceEvent {
    let (shard, desc) = client.local_descriptor(gid).expect("submitted");
    TraceEvent {
        shard,
        event: AuditEvent::Response {
            id: desc.id,
            value,
            witness: None,
        },
    }
}

fn launch(groups: Groups) -> ShardedWireService<KvStore> {
    ShardedWireService::launch_durable(KvStore, ShardedWireConfig::new(N_REPLICAS), groups)
}

/// Runs the durable cluster under the workload until killed.
fn run(root: &Path) -> Result<(), String> {
    let mut svc = launch(open_groups(root, false)?);
    let mut client = svc.client();

    let trace_path = root.join("trace.jsonl");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&trace_path)
        .map_err(|e| format!("open {}: {e}", trace_path.display()))?;
    let mut trace = std::io::BufWriter::new(file);
    let mut emit = |ev: &TraceEvent| -> Result<(), String> {
        writeln!(trace, "{}", encode_line(ev)).map_err(|e| e.to_string())?;
        // Line-by-line flush: once the OS has the bytes, kill -9 of
        // this process cannot take them back.
        trace.flush().map_err(|e| e.to_string())
    };

    let mut rng = Lcg(0x9e3779b97f4a7c15);
    let mut pending: VecDeque<ShardedOpId> = VecDeque::new();
    let mut i = 0u64;
    println!("durability_lane: running (kill -9 me mid-flight)");
    loop {
        i += 1;
        let key = format!("k{}", rng.next() % 32);
        let strict = rng.next().is_multiple_of(7);
        let op = if rng.next().is_multiple_of(3) {
            KvOp::get(&key)
        } else {
            KvOp::put(&key, format!("v{i}"))
        };
        let gid = client.submit(op, &[], strict);
        emit(&trace_request(&client, gid))?;
        pending.push_back(gid);
        while pending.len() > 8 {
            let gid = pending.pop_front().expect("nonempty");
            let v = client
                .await_response(gid, Duration::from_secs(30))
                .ok_or_else(|| format!("operation {gid} unanswered after 30s"))?;
            emit(&trace_response(&client, gid, v))?;
        }
        if i.is_multiple_of(256) {
            println!("durability_lane: {i} operations submitted");
        }
    }
}

/// Torn-tail-tolerant trace read: a parse failure on the **last** line
/// is the expected `kill -9` artifact and is dropped (reported);
/// anywhere else it is a hard error.
fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines: Vec<&str> = raw.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut events = Vec::with_capacity(lines.len());
    for (n, line) in lines.iter().enumerate() {
        match parse_line(line) {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => {} // foreign codec line (e.g. a lifecycle span)
            Err(e) if n + 1 == lines.len() => {
                println!("durability_lane: dropped torn trailing trace line: {e}");
            }
            Err(e) => return Err(format!("corrupt trace line {}: {e}", n + 1)),
        }
    }
    println!("durability_lane: {} trace events read", events.len());
    Ok(events)
}

/// Restarts the cluster from disk and audits the joined history.
fn recover(root: &Path) -> Result<(), String> {
    let mut events = read_trace(&root.join("trace.jsonl"))?;
    let groups = open_groups(root, true)?;

    // Descriptors the trace may be missing: an operation submitted in
    // the instant between `submit()` and its trace line hitting the OS
    // can still have reached a replica's synced WAL. The recovered
    // replicas' admitted sets are harvested *before* the cluster runs
    // (recovery replays the WAL suffix into `rcvd`; only the
    // pre-crash stable prefix is memo-pruned, and those operations are
    // old enough to have trace lines).
    let mut harvested: Vec<BTreeMap<OpId, OpDescriptor<KvOp>>> = vec![BTreeMap::new(); N_SHARDS];
    for (s, group) in groups.iter().enumerate() {
        for (rep, _) in group {
            for (id, d) in rep.rcvd() {
                harvested[s].insert(*id, d.clone());
            }
        }
    }

    let mut svc = launch(groups);
    let mut client = svc.client();

    // Fence every shard: a strict answer pins everything before it as
    // stable everywhere in its group, so the shutdown below reads
    // converged, fully-stabilized replicas.
    let mut fenced = [false; N_SHARDS];
    for j in 0..64u64 {
        if fenced.iter().all(|f| *f) {
            break;
        }
        let gid = client.submit(KvOp::get(format!("fence{j}")), &[], true);
        events.push(trace_request(&client, gid));
        let v = client
            .await_response(gid, Duration::from_secs(60))
            .ok_or_else(|| format!("fence read {gid} unanswered — recovery gate stuck?"))?;
        events.push(trace_response(&client, gid, v));
        fenced[client.shard_of(gid).expect("routed") as usize] = true;
    }
    if !fenced.iter().all(|f| *f) {
        return Err("fence probes missed a shard".into());
    }

    let final_reps = svc.shutdown();
    let mut violations = 0usize;
    for (s, reps) in final_reps.iter().enumerate() {
        let orders: Vec<Vec<OpId>> = reps.iter().map(|r| r.local_order()).collect();
        let states: Vec<_> = reps.iter().map(|r| r.current_state()).collect();
        check_converged(&orders, &states)
            .map_err(|e| format!("shard {s} diverged after recovery: {e}"))?;
        let order = &orders[0];
        let in_order: BTreeSet<OpId> = order.iter().copied().collect();

        // recover ⊇ answered.
        for ev in events.iter().filter(|e| e.shard == s as u32) {
            if let AuditEvent::Response { id, .. } = &ev.event {
                if !in_order.contains(id) {
                    eprintln!(
                        "durability_lane: VIOLATION shard {s}: answered {id} \
                         missing from the recovered order"
                    );
                    violations += 1;
                }
            }
        }

        // Streaming audit: surviving requests (trace order, then
        // harvested orphans), all responses, the recovered order as
        // the stabilize stream.
        let mut chk = StreamingChecker::new(KvStore);
        let mut requested: BTreeSet<OpId> = BTreeSet::new();
        let feed = |chk: &mut StreamingChecker<KvStore>, r| match r {
            Ok(()) => 0usize,
            Err(_) => {
                let v = chk.violation().expect("latched").clone();
                eprintln!("durability_lane: VIOLATION shard {s}: {v}");
                1
            }
        };
        for ev in events.iter().filter(|e| e.shard == s as u32) {
            if let AuditEvent::Request(desc) = &ev.event {
                if in_order.contains(&desc.id) {
                    requested.insert(desc.id);
                    let r = chk.on_request(desc.clone());
                    violations += feed(&mut chk, r);
                }
            }
        }
        for id in order {
            if !requested.contains(id) {
                let desc = harvested[s].get(id).ok_or_else(|| {
                    format!(
                        "shard {s}: recovered {id} has neither a trace line nor a \
                         harvested descriptor"
                    )
                })?;
                let r = chk.on_request(desc.clone());
                violations += feed(&mut chk, r);
            }
        }
        for ev in events.iter().filter(|e| e.shard == s as u32) {
            if let AuditEvent::Response { id, value, witness } = &ev.event {
                let r = chk.on_response(*id, value.clone(), witness.clone());
                violations += feed(&mut chk, r);
            }
        }
        for id in order {
            let r = chk.on_stabilize(*id);
            violations += feed(&mut chk, r);
        }
        match chk.finish() {
            Ok(cert) => {
                println!(
                    "durability_lane: shard {s}: certificate {{ ops: {}, digest: {:#018x} }}",
                    cert.ops, cert.digest
                );
                if cert.ops as usize != order.len() {
                    eprintln!(
                        "durability_lane: VIOLATION shard {s}: certificate covers {} of {} ops",
                        cert.ops,
                        order.len()
                    );
                    violations += 1;
                }
            }
            Err(v) => {
                eprintln!("durability_lane: VIOLATION shard {s}: {v}");
                violations += 1;
            }
        }
    }
    if violations > 0 {
        return Err(format!("{violations} violation(s)"));
    }
    println!("durability_lane: recovery verified — every answered operation survived");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, dir) = match args.as_slice() {
        [m, d] if m == "run" || m == "recover" => (m.as_str(), PathBuf::from(d)),
        _ => {
            eprintln!("usage: durability_lane run <dir> | durability_lane recover <dir>");
            return ExitCode::from(2);
        }
    };
    let res = match mode {
        "run" => run(&dir),
        _ => recover(&dir),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("durability_lane: {e}");
            ExitCode::FAILURE
        }
    }
}
