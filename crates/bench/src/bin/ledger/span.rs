//! In-memory spans recorded by the benchmark around each call into a
//! layer: `{trace, span, parent, name, start_ns, end_ns}`. Spans of one
//! client operation (or one gossip tick) share a trace. A layer's self
//! time is its span minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// What a trace follows.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Timed client operation number `.0` of the stream.
    Op(usize),
    /// A gossip tick that ran after timed operation `.0` was submitted.
    Gossip(usize),
    /// Warm-up, drain and verification work, kept out of the metrics.
    Untimed,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log of one replay pass. A span's id is its index.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub traces: Vec<TraceKind>,
    /// Traces in progress, innermost last, each with its open spans. A
    /// gossip tick that runs while a strict operation waits is a trace of
    /// its own inside the operation's: its spans do not become the
    /// operation's children.
    active: Vec<(u32, Vec<u32>)>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            traces: Vec::new(),
            active: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a trace; spans belong to it until [`SpanLog::end_trace`].
    pub fn begin_trace(&mut self, kind: TraceKind) {
        self.active.push((self.traces.len() as u32, Vec::new()));
        self.traces.push(kind);
    }

    /// Ends the innermost trace, whose spans must all be closed.
    pub fn end_trace(&mut self) {
        let (_, open) = self.active.pop().expect("a trace is in progress");
        assert!(open.is_empty(), "a trace ends with no span open");
    }

    /// Opens a span under the innermost open one of the current trace.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        let (trace, open) = self.active.last_mut().expect("a trace is in progress");
        self.spans.push(Span {
            trace: *trace,
            parent: open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let (_, open) = self.active.last_mut().expect("a trace is in progress");
        assert_eq!(open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// A leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// One JSON object per span, one per line. Beside the span itself each
    /// line says what its trace follows: `"of":"op"` or `"of":"gossip"`
    /// with the timed operation's index as `"at"`, or `"of":"untimed"`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let of = match self.traces[s.trace as usize] {
                TraceKind::Op(i) => format!("\"op\",\"at\":{i}"),
                TraceKind::Gossip(i) => format!("\"gossip\",\"at\":{i}"),
                TraceKind::Untimed => "\"untimed\"".to_string(),
            };
            // Span names are identifiers from this crate: nothing to escape.
            writeln!(
                w,
                "{{\"trace\":{},\"of\":{of},\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Calls and total self time of one span name.
#[derive(Copy, Clone, Default, Debug, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

impl Layer {
    /// Mean self time per call, µs.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.calls as f64 / 1e3
    }
}

/// Folds the spans whose trace passes `keep` into per-name totals.
pub fn by_name(log: &SpanLog, keep: impl Fn(TraceKind) -> bool) -> BTreeMap<&'static str, Layer> {
    let own = self_times(&log.spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own_ns) in log.spans.iter().zip(own) {
        if keep(log.traces[s.trace as usize]) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.self_ns += own_ns;
            l.max_ns = l.max_ns.max(own_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 0,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ─ a 10..60 ─ a1 20..30, a2 30..50
        //              └ b 60..90
        let spans = vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 60),
            span(Some(1), "a1", 20, 30),
            span(Some(1), "a2", 30, 50),
            span(Some(0), "b", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 20, 30]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn log_nests_spans_and_names_parents() {
        let mut log = SpanLog::new();
        log.begin_trace(TraceKind::Op(0));
        let root = log.enter("root");
        let mid = log.enter("mid");
        assert_eq!(log.time("leaf", || 7), 7);
        log.exit(mid);
        // A tick inside the operation's wait is a trace of its own.
        log.begin_trace(TraceKind::Gossip(0));
        log.time("tick", || ());
        log.end_trace();
        log.exit(root);
        log.end_trace();

        let parents: Vec<Option<u32>> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        assert_eq!(log.spans[3].trace, 1);
        assert!(log.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(&log.spans);
        assert_eq!(own.iter().take(3).sum::<u64>(), log.spans[0].duration_ns());
        assert!(
            log.spans[0].end_ns >= log.spans[3].end_ns,
            "the op spans its wait"
        );

        let ops = by_name(&log, |k| matches!(k, TraceKind::Op(_)));
        assert_eq!(
            ops.keys().copied().collect::<Vec<_>>(),
            ["leaf", "mid", "root"]
        );
        assert_eq!(ops["leaf"].calls, 1);

        let mut out = Vec::new();
        log.write_jsonl(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 4);
        for (i, line) in text.lines().enumerate() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"span\":{i},")), "{line}");
            let is_root = line.contains("\"parent\":null,");
            assert_eq!(is_root, i == 0 || i == 3, "only roots lack a parent");
        }
    }
}
