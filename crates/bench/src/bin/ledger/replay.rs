//! The *replay* pass — the traced run. No sockets, no threads, no timers:
//! a benchmark-owned driver makes the call sequence `wire::tcp`'s client
//! and core loop make, with a span around every call into a layer.
//!
//! Per client operation: `FrontEnd::submit` → `encode_message` →
//! `decode_frame` + `decode_message` → `Replica::on_request` →
//! `Persistence::persist` → `encode_message` → decode →
//! `FrontEnd::on_response`. On a virtual gossip tick every
//! [`OPS_PER_TICK`] operations, for each ordered replica pair:
//! `Replica::poll_gossip` → `persist` → encode → decode →
//! `Replica::on_gossip_envelope` → `persist`. An operation that is not
//! answered at once (a strict one) ticks until it is.
//!
//! Because the schedule is virtual, every count of this pass repeats
//! exactly for a given seed. The external trace — requests, responses and
//! the relay's label order truncated past its last stable-everywhere
//! operation — feeds `spec::StreamingChecker`, which is both this pass's
//! correctness oracle and the `spec.*` layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bytes::BytesMut;
use esds_alg::{FrontEnd, GossipEnvelope, RelayPolicy, Replica, ReplicaStats, ResponseMsg};
use esds_core::{ClientId, KeyedDataType, OpId, ReplicaId, ShardRouter, ShardedOpId};
use esds_datatypes::{KvOp, KvStore, KvValue};
use esds_spec::StreamingChecker;
use esds_store::{DurableConfig, DurableStore, FileStorage, WalStats};
use esds_wire::frame::decode_frame;
use esds_wire::{
    decode_message, encode_message, ShardedRequestMsg, ShardedResponseMsg, WireMessage,
};

use crate::live::{check_stable_prefixes, replica_config, stable_prefix, PassInput, REPLICAS};
use crate::report::{Metric, PassOutput};
use crate::span::{self, Layer, SpanLog, TraceKind};
use crate::stream::{self, Class, GenOp, Model};

/// Client operations between two virtual gossip ticks: about what a 5 ms
/// gossip timer sees at the measured pass's rate.
const OPS_PER_TICK: usize = 8;
/// Ticks a strict operation or a barrier may take before the replay gives
/// up on it.
const MAX_ROUNDS: u64 = 64;

type Msg = WireMessage<KvOp, KvValue>;
type Store = DurableStore<KvStore, FileStorage>;

/// One replica group with its single client.
struct Group {
    reps: Vec<Replica<KvStore>>,
    /// One per replica when the workload is durable, else empty.
    stores: Vec<Store>,
    front_end: FrontEnd<KvOp, KvValue>,
    checker: StreamingChecker<KvStore>,
    /// Length of the relay's order already fed to the checker.
    fed: usize,
    submitted: u64,
}

/// Frame bytes and counts that must repeat exactly for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
struct Tally {
    request_frames: u64,
    request_bytes: u64,
    response_frames: u64,
    response_bytes: u64,
    gossip_frames: u64,
    gossip_bytes: u64,
    /// Ticks spent waiting for strict answers and barriers.
    strict_rounds: u64,
    strict_ops: u64,
}

struct Replay {
    log: SpanLog,
    groups: Vec<Group>,
    router: ShardRouter,
    sharded: bool,
    buf: BytesMut,
    tally: Tally,
    /// `(timed op index, frame bytes)` of every gossip frame of a timed tick.
    gossip_frames: Vec<(usize, usize)>,
    next_global: u64,
    errors: Vec<String>,
}

impl Replay {
    fn new(input: &PassInput) -> Replay {
        let w = input.workload;
        let groups = (0..w.shards())
            .map(|s| {
                let mut reps = Vec::new();
                let mut stores = Vec::new();
                for r in 0..REPLICAS {
                    let id = ReplicaId(r as u32);
                    if w.durable() {
                        let (store, rep) = open_store(&input.tmp, s, r);
                        stores.push(store);
                        reps.push(rep);
                    } else {
                        reps.push(Replica::new(KvStore, id, REPLICAS, replica_config(false)));
                    }
                }
                Group {
                    reps,
                    stores,
                    front_end: FrontEnd::new(
                        ClientId(0),
                        REPLICAS,
                        RelayPolicy::Fixed(ReplicaId(0)),
                    ),
                    checker: StreamingChecker::new(KvStore),
                    fed: 0,
                    submitted: 0,
                }
            })
            .collect();
        Replay {
            log: SpanLog::new(),
            groups,
            router: ShardRouter::new(w.shards()),
            sharded: w.shards() > 1,
            buf: BytesMut::with_capacity(64 * 1024),
            tally: Tally::default(),
            gossip_frames: Vec::new(),
            next_global: 0,
            errors: Vec::new(),
        }
    }

    fn audit(&mut self, what: &str, r: esds_spec::AuditResult) {
        if let Err(v) = r {
            if self.errors.len() < 8 {
                self.errors.push(format!("streaming audit, {what}: {v}"));
            }
        }
    }

    /// One request through group `g`: the client's submit, the relay's
    /// handling, and the delivery of whatever it answers at once.
    fn request(&mut self, g: usize, op: KvOp, prev: Vec<OpId>, strict: bool) -> OpId {
        let span = self.log.enter("bench.client.submit");
        let (id, sends) = self.log.time("alg.front_end.submit", || {
            self.groups[g].front_end.submit(op, prev, strict)
        });
        let (_, request) = sends.into_iter().next().expect("a fixed relay");
        let global = ShardedOpId::new(ClientId(0), self.next_global);
        self.next_global += 1;
        let desc = request.desc.clone();
        let msg: Msg = if self.sharded {
            WireMessage::ShardedRequest(ShardedRequestMsg {
                version: self.router.version(),
                global,
                desc: request.desc,
            })
        } else {
            WireMessage::Request(request)
        };
        self.log.time("wire.codec.request.encode", || {
            encode_message(&msg, &mut self.buf)
        });
        self.tally.request_frames += 1;
        self.tally.request_bytes += self.buf.len() as u64;
        self.log.exit(span);

        let r = self
            .log
            .time("spec.audit", || self.groups[g].checker.on_request(desc));
        self.audit("request", r);
        self.groups[g].submitted += 1;

        let span = self.log.enter("bench.node.request");
        let decoded: Msg = self.log.time("wire.codec.request.decode", || {
            let frame = decode_frame(&mut self.buf)
                .expect("own frame")
                .expect("whole frame");
            decode_message(&frame).expect("own message")
        });
        let desc = match decoded {
            WireMessage::Request(m) => m.desc,
            WireMessage::ShardedRequest(m) => m.desc,
            other => unreachable!("a request frame decoded as {other:?}"),
        };
        let effects = self
            .log
            .time("alg.on_request", || self.groups[g].reps[0].on_request(desc));
        self.persist(g, 0);
        let responses: Vec<ResponseMsg<KvValue>> = effects.into_iter().map(|e| e.msg).collect();
        self.encode_responses(&responses, global);
        self.log.exit(span);
        self.receive(g, responses.len());
        id
    }

    fn persist(&mut self, g: usize, r: usize) {
        if self.groups[g].stores.is_empty() {
            return;
        }
        let group = &mut self.groups[g];
        let res = self.log.time("store.persist", || {
            group.stores[r].persist(&mut group.reps[r])
        });
        if let Err(e) = res {
            self.errors.push(format!("persist failed: {e}"));
        }
    }

    /// The relay's side of answering: one response frame per effect.
    fn encode_responses(&mut self, responses: &[ResponseMsg<KvValue>], global: ShardedOpId) {
        for resp in responses {
            let msg: Msg = if self.sharded {
                // The replay does not keep the relay's local → global map;
                // the frame has the same size whatever identity it carries.
                WireMessage::ShardedResponse(ShardedResponseMsg::Ok {
                    global,
                    resp: resp.clone(),
                })
            } else {
                WireMessage::Response(resp.clone())
            };
            let before = self.buf.len();
            self.log.time("wire.codec.response.encode", || {
                encode_message(&msg, &mut self.buf)
            });
            self.tally.response_frames += 1;
            self.tally.response_bytes += (self.buf.len() - before) as u64;
        }
    }

    /// The client's side: decode `frames` response frames and hand each to
    /// the front end.
    fn receive(&mut self, g: usize, frames: usize) {
        if frames == 0 {
            return;
        }
        let span = self.log.enter("bench.client.receive");
        for _ in 0..frames {
            let decoded: Msg = self.log.time("wire.codec.response.decode", || {
                let frame = decode_frame(&mut self.buf)
                    .expect("own frame")
                    .expect("whole frame");
                decode_message(&frame).expect("own message")
            });
            let resp = match decoded {
                WireMessage::Response(m) => m,
                WireMessage::ShardedResponse(ShardedResponseMsg::Ok { resp, .. }) => resp,
                other => unreachable!("a response frame decoded as {other:?}"),
            };
            let (id, value, witness) = (resp.id, resp.value.clone(), resp.witness.clone());
            self.log.time("alg.front_end.on_response", || {
                self.groups[g].front_end.on_response(resp)
            });
            let r = self.log.time("spec.audit", || {
                self.groups[g].checker.on_response(id, value, witness)
            });
            self.audit("response", r);
        }
        self.log.exit(span);
    }

    /// One virtual gossip tick of every group, as trace `kind`.
    fn tick(&mut self, kind: TraceKind) {
        self.log.begin_trace(kind);
        let root = self.log.enter("bench.gossip_tick");
        for g in 0..self.groups.len() {
            for from in 0..REPLICAS {
                for to in (0..REPLICAS).filter(|to| *to != from) {
                    self.gossip(g, from, to, kind);
                }
            }
            self.feed_watermark(g);
        }
        self.log.exit(root);
        self.log.end_trace();
    }

    fn gossip(&mut self, g: usize, from: usize, to: usize, kind: TraceKind) {
        let peer = ReplicaId(to as u32);
        let env = self.log.time("alg.poll_gossip", || {
            self.groups[g].reps[from].poll_gossip(peer)
        });
        let Some(env) = env else { return };
        // Sync before release, as the node does.
        self.persist(g, from);
        let msg: Msg = match env {
            GossipEnvelope::Batched(b) => WireMessage::GossipBatched(b),
            GossipEnvelope::Snapshot(s) => WireMessage::Gossip(s),
        };
        self.log.time("wire.codec.gossip.encode", || {
            encode_message(&msg, &mut self.buf)
        });
        self.tally.gossip_frames += 1;
        self.tally.gossip_bytes += self.buf.len() as u64;
        if let TraceKind::Gossip(at) = kind {
            self.gossip_frames.push((at, self.buf.len()));
        }
        let decoded: Msg = self.log.time("wire.codec.gossip.decode", || {
            let frame = decode_frame(&mut self.buf)
                .expect("own frame")
                .expect("whole frame");
            decode_message(&frame).expect("own message")
        });
        let env = match decoded {
            WireMessage::GossipBatched(b) => GossipEnvelope::Batched(b),
            WireMessage::Gossip(s) => GossipEnvelope::Snapshot(s),
            other => unreachable!("a gossip frame decoded as {other:?}"),
        };
        let effects = self.log.time("alg.on_gossip", || {
            self.groups[g].reps[to].on_gossip_envelope(env)
        });
        self.persist(g, to);
        // Only the relay has clients, so only it can have answers to give.
        let responses: Vec<ResponseMsg<KvValue>> = effects.into_iter().map(|e| e.msg).collect();
        self.encode_responses(&responses, ShardedOpId::new(ClientId(0), 0));
        self.receive(g, responses.len());
    }

    /// Feeds the checker the part of the relay's stable prefix it has not
    /// seen.
    fn feed_watermark(&mut self, g: usize) {
        let group = &mut self.groups[g];
        let prefix = stable_prefix(&group.reps[0]);
        let fresh = &prefix[group.fed.min(prefix.len())..];
        group.fed += fresh.len();
        let r = self.log.time("spec.audit", || {
            fresh
                .iter()
                .try_for_each(|id| group.checker.on_stabilize(*id))
        });
        self.audit("stabilize", r);
    }

    /// Ticks until `done` holds, giving up after [`MAX_ROUNDS`]; the rounds
    /// it took.
    fn wait(&mut self, tick_kind: TraceKind, done: impl Fn(&Replay) -> bool) -> u64 {
        let mut rounds = 0;
        while !done(self) && rounds < MAX_ROUNDS {
            self.tick(tick_kind);
            rounds += 1;
        }
        rounds
    }

    fn answered(&self, g: usize, id: OpId) -> Option<KvValue> {
        self.groups[g].front_end.value_of(id).cloned()
    }

    /// Whether group `g`'s relay knows its whole label order stable at
    /// every replica — the barrier a strict gather takes per shard.
    fn frontier_stable(&self, g: usize) -> bool {
        let relay = &self.groups[g].reps[0];
        let stable = relay.stable_everywhere();
        relay.local_order().iter().all(|id| stable.contains(id))
    }

    /// One client operation as trace `kind`, submit to answer; the ticks
    /// it has to wait for are traces of kind `tick_kind`.
    fn client_op(
        &mut self,
        op: &GenOp,
        last: &mut [Option<OpId>],
        kind: TraceKind,
        tick_kind: TraceKind,
    ) -> Option<KvValue> {
        self.log.begin_trace(kind);
        let root = self.log.enter("bench.op");
        let value = if op.op == KvOp::Keys && self.sharded {
            self.gather(op.strict(), tick_kind)
        } else {
            let g = if self.sharded {
                self.log
                    .time("core.shard.route", || self.router.route(&KvStore, &op.op))
                    as usize
            } else {
                0
            };
            let prev = match (op.after_previous, last[g]) {
                (true, Some(p)) => vec![p],
                _ => Vec::new(),
            };
            let id = self.request(g, op.op.clone(), prev, op.strict());
            last[g] = Some(id);
            if op.strict() {
                self.tally.strict_ops += 1;
            }
            self.tally.strict_rounds += self.wait(tick_kind, |r| r.answered(g, id).is_some());
            self.answered(g, id)
        };
        self.log.exit(root);
        self.log.end_trace();
        value
    }

    /// A whole-object `Keys`: one sub-operation per shard, merged. Strict:
    /// first every shard's relay sees its frontier stable everywhere.
    fn gather(&mut self, strict: bool, tick_kind: TraceKind) -> Option<KvValue> {
        let shards = self.groups.len();
        if strict {
            self.tally.strict_ops += 1;
            self.tally.strict_rounds +=
                self.wait(tick_kind, |r| (0..shards).all(|g| r.frontier_stable(g)));
        }
        let ids: Vec<OpId> = (0..shards)
            .map(|g| self.request(g, KvOp::Keys, Vec::new(), strict))
            .collect();
        self.tally.strict_rounds += self.wait(tick_kind, |r| {
            ids.iter()
                .enumerate()
                .all(|(g, id)| r.answered(g, *id).is_some())
        });
        let parts: Vec<KvValue> = ids
            .iter()
            .enumerate()
            .map(|(g, id)| self.answered(g, *id))
            .collect::<Option<_>>()?;
        self.log.time("core.shard.merge_gathered", || {
            KvStore.merge_gathered(&KvOp::Keys, parts)
        })
    }

    /// Sums over every replica and store, for before/after differences.
    fn totals(&self) -> Totals {
        let mut t = Totals {
            tally: self.tally.clone(),
            ..Totals::default()
        };
        for g in &self.groups {
            for r in &g.reps {
                let s = r.stats();
                t.alg.responses += s.responses;
                t.alg.response_applies += s.response_applies;
                t.alg.memo_applies += s.memo_applies;
                t.alg.gossip_out += s.gossip_out;
                t.alg.do_its += s.do_its;
                t.retained += r.retained_descriptors() as u64;
            }
            for s in &g.stores {
                let w = s.stats();
                t.wal.appended_records += w.appended_records;
                t.wal.appended_bytes += w.appended_bytes;
                t.wal.syncs += w.syncs;
                t.wal.snapshots += w.snapshots;
            }
        }
        t
    }
}

#[derive(Clone, Debug, Default)]
struct Totals {
    tally: Tally,
    alg: ReplicaStats,
    wal: WalStats,
    retained: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the replay pass; with `trace_out`, writes every span as JSONL.
pub fn run(input: &PassInput, trace_out: Option<&Path>) -> PassOutput {
    let warmup = stream::warmup(input.seed);
    let ops = input.timed_ops();
    let n = ops.len();
    let mut rp = Replay::new(input);
    let mut out = PassOutput::default();
    let mut model = Model::default();
    let mut last = vec![None; rp.groups.len()];

    let mut client_ops = 0usize;
    for op in &warmup {
        model.apply(&op.op);
        rp.client_op(op, &mut last, TraceKind::Untimed, TraceKind::Untimed);
        client_ops += 1;
        if client_ops.is_multiple_of(OPS_PER_TICK) {
            rp.tick(TraceKind::Untimed);
        }
    }
    let before = rp.totals();
    for (i, op) in ops.iter().enumerate() {
        let expect = model.apply(&op.op);
        let got = rp.client_op(op, &mut last, TraceKind::Op(i), TraceKind::Gossip(i));
        match got {
            None => {
                out.failed += 1;
                out.errors.push(format!(
                    "replay: operation {i} ({:?}) was never answered",
                    op.class
                ));
            }
            Some(v) if op.strict() && v != expect => {
                out.failed += 1;
                out.errors.push(format!(
                    "replay: strict operation {i} answered {v:?}, the model says {expect:?}"
                ));
            }
            Some(_) => {}
        }
        client_ops += 1;
        if client_ops.is_multiple_of(OPS_PER_TICK) {
            rp.tick(TraceKind::Gossip(i));
        }
    }
    out.attempted = (warmup.len() + n) as u64;
    let after = rp.totals();
    let disk_bytes = dir_bytes(&input.tmp);

    // Drain: tick until every relay knows everything stable everywhere, so
    // the audit's eventual order covers every operation submitted.
    let shards = rp.groups.len();
    rp.wait(TraceKind::Untimed, |r| {
        (0..shards).all(|g| r.frontier_stable(g))
    });
    let mut audited = 0u64;
    let mut digest = 0u64;
    let mut peak_resident = 0usize;
    for (g, group) in rp.groups.iter().enumerate() {
        let status = group.checker.status();
        peak_resident = peak_resident.max(status.peak_resident);
        match group.checker.finish() {
            Ok(cert) if cert.ops == group.submitted => {
                audited += cert.ops;
                digest ^= cert.digest;
            }
            Ok(cert) => out.errors.push(format!(
                "replay: group {g}'s audit covers {} operations, {} were submitted",
                cert.ops, group.submitted
            )),
            Err(v) => out
                .errors
                .push(format!("replay: group {g}'s audit failed: {v}")),
        }
    }
    out.errors.extend(rp.errors.iter().cloned());
    for (g, group) in rp.groups.iter().enumerate() {
        check_stable_prefixes(&format!("replay group {g}"), &group.reps, &mut out.errors);
    }

    // Reopen every store from disk.
    let mut open_ms = Vec::new();
    if input.workload.durable() {
        for (s, group) in rp.groups.iter_mut().enumerate() {
            group.stores.clear();
            for r in 0..REPLICAS {
                let t = Instant::now();
                let (_store, rep) = open_store(&input.tmp, s as u32, r);
                open_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if rep.labels().len() + rep.rcvd().len() < group.reps[r].labels().len() {
                    out.errors.push(format!(
                        "replay: store s{s}r{r} reopened with less history than it held"
                    ));
                }
            }
        }
    }

    file_metrics(
        &mut out,
        &rp,
        &ops,
        &before,
        &after,
        Extras {
            disk_bytes,
            open_ms: crate::stats::mean(&open_ms),
            peak_resident,
            audited,
            digest,
        },
    );
    if let Some(path) = trace_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rp.log.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            out.errors
                .push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    out
}

struct Extras {
    disk_bytes: u64,
    open_ms: f64,
    peak_resident: usize,
    audited: u64,
    digest: u64,
}

fn file_metrics(
    out: &mut PassOutput,
    rp: &Replay,
    ops: &[GenOp],
    before: &Totals,
    after: &Totals,
    extras: Extras,
) {
    let n = ops.len();
    let per_op = |v: u64| v as f64 / n.max(1) as f64;
    let timed = |k: TraceKind| !matches!(k, TraceKind::Untimed);
    let at = |k: TraceKind| match k {
        TraceKind::Op(i) | TraceKind::Gossip(i) => Some(i),
        TraceKind::Untimed => None,
    };
    let first_decile = |k: TraceKind| at(k).is_some_and(|i| i < n / 10);
    let last_decile = |k: TraceKind| at(k).is_some_and(|i| i >= n * 9 / 10);
    let all = span::by_name(&rp.log, timed);
    let first = span::by_name(&rp.log, first_decile);
    let last = span::by_name(&rp.log, last_decile);
    let layer =
        |m: &BTreeMap<&'static str, Layer>, name: &str| m.get(name).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let mut put = |name: &str, value: f64, unit: &'static str, calls: u64| {
        out.put(name, Metric::new(value, unit).with_n(calls as usize));
    };

    // alg
    let on_request = layer(&all, "alg.on_request");
    put(
        "alg.on_request_us",
        on_request.mean_us(),
        "us",
        on_request.calls,
    );
    let l = layer(&first, "alg.on_request");
    put("alg.on_request_us_first_decile", l.mean_us(), "us", l.calls);
    let l = layer(&last, "alg.on_request");
    put("alg.on_request_us_last_decile", l.mean_us(), "us", l.calls);
    let fe_submit = layer(&all, "alg.front_end.submit");
    let fe_response = layer(&all, "alg.front_end.on_response");
    put(
        "alg.front_end_us",
        us(fe_submit.self_ns + fe_response.self_ns) / fe_submit.calls.max(1) as f64,
        "us",
        fe_submit.calls,
    );
    let l = layer(&all, "alg.poll_gossip");
    put("alg.poll_gossip_us", l.mean_us(), "us", l.calls);
    let on_gossip = layer(&all, "alg.on_gossip");
    put(
        "alg.on_gossip_us",
        on_gossip.mean_us(),
        "us",
        on_gossip.calls,
    );
    let responses = after.alg.responses - before.alg.responses;
    put(
        "alg.applies_per_response",
        (after.alg.response_applies - before.alg.response_applies) as f64 / responses.max(1) as f64,
        "count",
        responses,
    );
    put(
        "alg.memo_applies_per_op",
        per_op(after.alg.memo_applies - before.alg.memo_applies),
        "count",
        n as u64,
    );
    put(
        "alg.gossip_msgs_per_op",
        per_op(after.alg.gossip_out - before.alg.gossip_out),
        "count",
        n as u64,
    );
    let strict_ops = after.tally.strict_ops - before.tally.strict_ops;
    put(
        "alg.gossip_rounds_per_strict",
        (after.tally.strict_rounds - before.tally.strict_rounds) as f64 / strict_ops.max(1) as f64,
        "count",
        strict_ops,
    );
    put(
        "alg.retained_descriptors_end",
        after.retained as f64,
        "count",
        0,
    );

    // wire.codec
    let req_enc = layer(&all, "wire.codec.request.encode");
    let req_dec = layer(&all, "wire.codec.request.decode");
    put(
        "wire.codec.request_us",
        us(req_enc.self_ns + req_dec.self_ns) / req_enc.calls.max(1) as f64,
        "us",
        req_enc.calls,
    );
    let resp_enc = layer(&all, "wire.codec.response.encode");
    let resp_dec = layer(&all, "wire.codec.response.decode");
    put(
        "wire.codec.response_us",
        us(resp_enc.self_ns + resp_dec.self_ns) / resp_enc.calls.max(1) as f64,
        "us",
        resp_enc.calls,
    );
    let l = layer(&all, "wire.codec.gossip.encode");
    put("wire.codec.gossip_encode_us", l.mean_us(), "us", l.calls);
    let l = layer(&all, "wire.codec.gossip.decode");
    put("wire.codec.gossip_decode_us", l.mean_us(), "us", l.calls);
    let l = layer(&first, "wire.codec.gossip.decode");
    put(
        "wire.codec.gossip_decode_us_first_decile",
        l.mean_us(),
        "us",
        l.calls,
    );
    let l = layer(&last, "wire.codec.gossip.decode");
    put(
        "wire.codec.gossip_decode_us_last_decile",
        l.mean_us(),
        "us",
        l.calls,
    );
    let frames = after.tally.request_frames - before.tally.request_frames;
    put(
        "wire.codec.request_bytes",
        (after.tally.request_bytes - before.tally.request_bytes) as f64 / frames.max(1) as f64,
        "bytes",
        frames,
    );
    let frames = after.tally.response_frames - before.tally.response_frames;
    put(
        "wire.codec.response_bytes",
        (after.tally.response_bytes - before.tally.response_bytes) as f64 / frames.max(1) as f64,
        "bytes",
        frames,
    );
    put(
        "wire.codec.gossip_bytes_per_op",
        per_op(after.tally.gossip_bytes - before.tally.gossip_bytes),
        "bytes",
        after.tally.gossip_frames - before.tally.gossip_frames,
    );
    let decile_bytes = |keep: &dyn Fn(usize) -> bool| -> f64 {
        let bytes: usize = rp
            .gossip_frames
            .iter()
            .filter(|(i, _)| keep(*i))
            .map(|(_, b)| *b)
            .sum();
        bytes as f64 / (n / 10).max(1) as f64
    };
    put(
        "wire.codec.gossip_bytes_per_op_first_decile",
        decile_bytes(&|i| i < n / 10),
        "bytes",
        0,
    );
    put(
        "wire.codec.gossip_bytes_per_op_last_decile",
        decile_bytes(&|i| i >= n * 9 / 10),
        "bytes",
        0,
    );

    // store
    let persist = layer(&all, "store.persist");
    put("store.persist_us", persist.mean_us(), "us", persist.calls);
    put(
        "store.checkpoint_us_max",
        us(persist.max_ns),
        "us",
        persist.calls,
    );
    put(
        "store.persist_calls_per_op",
        per_op(persist.calls),
        "count",
        n as u64,
    );
    put(
        "store.syncs_per_op",
        per_op(after.wal.syncs - before.wal.syncs),
        "count",
        n as u64,
    );
    put(
        "store.wal_records_per_op",
        per_op(after.wal.appended_records - before.wal.appended_records),
        "count",
        n as u64,
    );
    put(
        "store.wal_bytes_per_op",
        per_op(after.wal.appended_bytes - before.wal.appended_bytes),
        "bytes",
        n as u64,
    );
    put(
        "store.snapshots",
        (after.wal.snapshots - before.wal.snapshots) as f64,
        "count",
        0,
    );
    put(
        "store.disk_bytes_per_op",
        per_op(extras.disk_bytes),
        "bytes",
        n as u64,
    );
    put("store.open_ms", extras.open_ms, "ms", 0);

    // core.shard
    let l = layer(&all, "core.shard.route");
    put("core.shard.route_us", l.mean_us(), "us", l.calls);
    let l = layer(&all, "core.shard.merge_gathered");
    put("core.shard.merge_gathered_us", l.mean_us(), "us", l.calls);

    // spec
    let audit = layer(&all, "spec.audit");
    put(
        "spec.audit_us_per_op",
        us(audit.self_ns) / n.max(1) as f64,
        "us",
        audit.calls,
    );
    put(
        "spec.audit_peak_resident",
        extras.peak_resident as f64,
        "count",
        0,
    );

    // budget: the spans on a nonstrict operation's blocking path are its
    // whole trace, less the benchmark's own spans and the audit.
    let system = |name: &str| !name.starts_with("bench.") && !name.starts_with("spec.");
    let own = span::self_times(&rp.log.spans);
    let mut path_ns = 0u64;
    let mut cpu_ns = 0u64;
    for (s, own_ns) in rp.log.spans.iter().zip(&own) {
        if !system(s.name) {
            continue;
        }
        match rp.log.traces[s.trace as usize] {
            TraceKind::Op(i) => {
                cpu_ns += own_ns;
                if ops[i].class == Class::Nonstrict {
                    path_ns += own_ns;
                }
            }
            TraceKind::Gossip(_) => cpu_ns += own_ns,
            TraceKind::Untimed => {}
        }
    }
    let nonstrict = ops.iter().filter(|o| o.class == Class::Nonstrict).count();
    put(
        "budget.critical_path_us",
        us(path_ns) / nonstrict.max(1) as f64,
        "us",
        nonstrict as u64,
    );
    put(
        "budget.replay_cpu_us_per_op",
        us(cpu_ns) / n.max(1) as f64,
        "us",
        n as u64,
    );

    // Counts that must repeat exactly for a seed.
    let mut count = |name: &str, v: u64| {
        // f64 holds integers exactly up to 2^53.
        out.put(
            &format!("count.{name}"),
            Metric::new((v & ((1 << 52) - 1)) as f64, "count"),
        );
    };
    count("spans", rp.log.spans.len() as u64);
    count("traces", rp.log.traces.len() as u64);
    for (name, l) in &all {
        count(&format!("calls.{name}"), l.calls);
    }
    let t = &after.tally;
    count("request_bytes", t.request_bytes);
    count("response_bytes", t.response_bytes);
    count("gossip_frames", t.gossip_frames);
    count("gossip_bytes", t.gossip_bytes);
    count("strict_rounds", t.strict_rounds);
    count("alg.do_its", after.alg.do_its);
    count("alg.responses", after.alg.responses);
    count("alg.response_applies", after.alg.response_applies);
    count("alg.memo_applies", after.alg.memo_applies);
    count("alg.gossip_out", after.alg.gossip_out);
    count("alg.retained", after.retained);
    count("wal.records", after.wal.appended_records);
    count("wal.bytes", after.wal.appended_bytes);
    count("wal.syncs", after.wal.syncs);
    count("wal.snapshots", after.wal.snapshots);
    count("audit.ops", extras.audited);
    count("audit.digest", extras.digest);
}

fn open_store(tmp: &Path, shard: u32, r: usize) -> (Store, Replica<KvStore>) {
    let storage =
        FileStorage::open(tmp.join(format!("s{shard}r{r}"))).expect("create the store directory");
    let (store, rep, _) = DurableStore::open(
        KvStore,
        storage,
        ReplicaId(r as u32),
        REPLICAS,
        replica_config(true),
        DurableConfig::default(),
    )
    .expect("open the durable store");
    (store, rep)
}
