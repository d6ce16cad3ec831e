//! Regenerates every table and figure of the paper's evaluation
//! (indexed in the `esds_bench` crate docs), or — with `--only <name>`,
//! repeatable — just the named ones (`run_all --only tab_commute`; the
//! names are those of [`EXPERIMENTS`]).
//!
//! Two environment knobs support the CI bench-smoke lane (which runs the
//! whole suite on every PR and archives the numbers as a build
//! artifact — the start of a persistent performance trajectory):
//!
//! * `ESDS_MINIATURE=1` — run every experiment at a miniature size (same
//!   shapes, minutes → seconds);
//! * `ESDS_JSON_OUT=path` — additionally write the raw series as JSON.
use std::io::Write;

use esds_bench::experiments as ex;

/// A JSON scalar: everything the experiment series contain.
enum J {
    N(f64),
    S(String),
}

impl J {
    fn render(&self, out: &mut String) {
        match self {
            // JSON has no NaN/Inf; clamp to null (no experiment emits
            // them in a healthy run).
            J::N(v) if v.is_finite() => out.push_str(&format!("{v}")),
            J::N(_) => out.push_str("null"),
            J::S(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

fn n(v: impl Into<f64>) -> J {
    J::N(v.into())
}

fn s(v: impl ToString) -> J {
    J::S(v.to_string())
}

/// `(experiment name, column names, rows)` collected for the artifact.
type Series = (&'static str, Vec<&'static str>, Vec<Vec<J>>);

fn render_json(miniature: bool, series: &[Series]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"miniature\": {miniature},\n"));
    out.push_str("  \"experiments\": {\n");
    for (i, (name, cols, rows)) in series.iter().enumerate() {
        out.push_str(&format!("    \"{name}\": {{\n      \"columns\": ["));
        for (j, c) in cols.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            s(c).render(&mut out);
        }
        out.push_str("],\n      \"rows\": [");
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for (k, cell) in row.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                cell.render(&mut out);
            }
            out.push(']');
        }
        out.push_str("]\n    }");
        out.push_str(if i + 1 < series.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// Every experiment `--only` can name, in execution order.
const EXPERIMENTS: [&str; 14] = [
    "fig_scalability",
    "fig_strict_latency",
    "fig_shard_scalability",
    "fig_rebalance",
    "fig_wire_shards",
    "tab_response_bounds",
    "tab_stabilization",
    "tab_fault_recovery",
    "tab_memoization",
    "tab_commute",
    "tab_gossip_strategies",
    "tab_gossip_interval",
    "tab_memory",
    "tab_baseline_compare",
];

/// The experiments selected by `--only <name>` arguments (none: all).
fn selection() -> Vec<String> {
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let name = match a.as_str() {
            "--only" => args.next(),
            _ => None,
        };
        match name {
            Some(n) if EXPERIMENTS.contains(&n.as_str()) => only.push(n),
            _ => {
                eprintln!("usage: run_all [--only <name>]...\nexperiments: {EXPERIMENTS:?}");
                std::process::exit(2);
            }
        }
    }
    only
}

fn main() {
    let only = selection();
    let want = |name: &str| only.is_empty() || only.iter().any(|o| o == name);
    let miniature = std::env::var("ESDS_MINIATURE").is_ok_and(|v| !v.is_empty() && v != "0");
    println!("# ESDS experiment suite (paper: Fekete et al., PODC'96/TCS'99)");
    if miniature {
        println!("(miniature mode: reduced sizes, same shapes)");
    }
    // (full, miniature) sizes per experiment.
    let pick = |full: usize, mini: usize| if miniature { mini } else { full };

    let mut series: Vec<Series> = Vec::new();

    if want("fig_scalability") {
        let f1 = ex::fig_scalability(pick(10, 4), pick(150, 30));
        series.push((
            "fig_scalability",
            vec!["replicas", "esds_ops_per_sec", "centralized_ops_per_sec"],
            f1.into_iter()
                .map(|(r, a, b)| vec![n(r as u32), n(a), n(b)])
                .collect(),
        ));
    }
    if want("fig_strict_latency") {
        let f2 = ex::fig_strict_latency(pick(5, 3), pick(30, 8));
        series.push((
            "fig_strict_latency",
            vec!["strict_percent", "mean_latency_secs"],
            f2.into_iter().map(|(p, l)| vec![n(p), n(l)]).collect(),
        ));
    }
    if want("fig_shard_scalability") {
        let f3 = ex::fig_shard_scalability(pick(16, 6), pick(150, 40));
        series.push((
            "fig_shard_scalability",
            vec!["shards", "ops_per_sec"],
            f3.into_iter()
                .map(|(s_, tp)| vec![n(s_ as u32), n(tp)])
                .collect(),
        ));
    }
    if want("fig_rebalance") {
        let f4 = ex::fig_rebalance(pick(9, 9), pick(600, 200));
        series.push((
            "fig_rebalance",
            vec!["phase", "window_secs", "ops_per_sec", "mean_latency_ms"],
            f4.into_iter()
                .map(|p| {
                    vec![
                        s(p.phase),
                        n(p.window_secs),
                        n(p.ops_per_sec),
                        n(p.mean_latency_ms),
                    ]
                })
                .collect(),
        ));
    }
    if want("fig_wire_shards") {
        let f5 = ex::fig_wire_shards(pick(4, 2), pick(80, 12));
        series.push((
            "fig_wire_shards",
            vec!["shards", "ops_per_sec"],
            f5.into_iter()
                .map(|(s_, tp)| vec![n(s_ as u32), n(tp)])
                .collect(),
        ));
    }
    if want("tab_response_bounds") {
        let (t1, t1_ladder) = ex::tab_response_bounds(1);
        series.push((
            "tab_response_bounds",
            vec!["op_class", "measured_ms", "bound_ms"],
            t1.into_iter()
                .map(|(c, m, b)| {
                    vec![
                        s(format!("{c:?}")),
                        n(m.as_secs_f64() * 1e3),
                        n(b.as_secs_f64() * 1e3),
                    ]
                })
                .collect(),
        ));
        series.push((
            "tab_response_bounds_ladder",
            vec!["mode", "mean_ms", "max_ms"],
            t1_ladder
                .into_iter()
                .map(|r| {
                    vec![
                        s(r.mode),
                        n(r.mean.as_secs_f64() * 1e3),
                        n(r.max.as_secs_f64() * 1e3),
                    ]
                })
                .collect(),
        ));
    }
    if want("tab_stabilization") {
        let t2 = ex::tab_stabilization(1);
        series.push((
            "tab_stabilization",
            vec!["measured_ms", "bound_ms"],
            vec![vec![
                n(t2.0.as_secs_f64() * 1e3),
                n(t2.1.as_secs_f64() * 1e3),
            ]],
        ));
    }
    if want("tab_fault_recovery") {
        let t3 = ex::tab_fault_recovery(5);
        series.push((
            "tab_fault_recovery",
            vec!["op_class", "measured_ms", "bound_ms"],
            t3.into_iter()
                .map(|(c, m, b)| {
                    vec![
                        s(format!("{c:?}")),
                        n(m.as_secs_f64() * 1e3),
                        n(b.as_secs_f64() * 1e3),
                    ]
                })
                .collect(),
        ));
    }
    if want("tab_memoization") {
        let a1 = ex::tab_memoization(pick(60, 20));
        series.push((
            "tab_memoization",
            vec!["memoized_ms", "basic_ms"],
            vec![vec![n(a1.0), n(a1.1)]],
        ));
    }
    if want("tab_commute") {
        let a2 = ex::tab_commute(pick(25, 10));
        series.push((
            "tab_commute",
            vec!["commute_ms", "baseline_ms"],
            vec![vec![n(a2.0), n(a2.1)]],
        ));
    }
    if want("tab_gossip_strategies") {
        let a3 = ex::tab_gossip_strategies(pick(40, 12));
        series.push((
            "tab_gossip_strategies",
            vec![
                "strategy",
                "g_ms",
                "msgs_per_op",
                "bytes_per_op",
                "ops_per_sec",
            ],
            a3.into_iter()
                .map(|p| {
                    vec![
                        s(p.strategy),
                        n(p.g_ms as u32),
                        n(p.msgs_per_op),
                        n(p.bytes_per_op),
                        n(p.ops_per_sec),
                    ]
                })
                .collect(),
        ));
    }
    if want("tab_gossip_interval") {
        let a5 = ex::tab_gossip_interval(pick(30, 10));
        series.push((
            "tab_gossip_interval",
            vec!["g_ms", "nonstrict_latency_secs", "strict_latency_secs"],
            a5.into_iter()
                .map(|(g, a, b)| vec![n(g as u32), n(a), n(b)])
                .collect(),
        ));
    }
    if want("tab_memory") {
        let a6 = ex::tab_memory(pick(1000, 200));
        series.push((
            "tab_memory",
            vec!["total_ops", "uncompacted_entries", "compacted_entries"],
            a6.into_iter()
                .map(|(t, u, c)| vec![n(t as u32), n(u as u32), n(c as u32)])
                .collect(),
        ));
    }
    if want("tab_baseline_compare") {
        let b1 = ex::tab_baseline_compare(pick(40, 12));
        series.push((
            "tab_baseline_compare",
            vec!["service", "mean_latency_secs"],
            b1.into_iter().map(|(nm, l)| vec![s(nm), n(l)]).collect(),
        ));
    }

    if let Ok(path) = std::env::var("ESDS_JSON_OUT") {
        let json = render_json(miniature, &series);
        let mut f = std::fs::File::create(&path).expect("create ESDS_JSON_OUT");
        f.write_all(json.as_bytes()).expect("write ESDS_JSON_OUT");
        println!("\nwrote {} experiment series to {path}", series.len());
    }
}
