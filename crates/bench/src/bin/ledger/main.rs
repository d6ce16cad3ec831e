//! `ledger` — the repository's benchmark: four real-TCP workloads, their
//! end-to-end metrics, and a sans-IO traced replay that times every layer
//! from outside. It claims no gain; it is what later claims are measured
//! with. See `README.md` beside this file.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--workload W]... [--out FILE]
//!        [--trace-out FILE] [--check-repeat]
//!     every pass (measured, counted, replay) of every workload, or of the
//!     named ones; prints `workload metric value unit`, writes the same as
//!     JSON to --out, exits nonzero on any failed check
//! ledger --workload W --seed N --seconds S --trace 0|1
//!     the benchmark driver's protocol: one workload, and as the last line
//!     of standard output one JSON object with the end-to-end (--trace 0)
//!     or per-layer (--trace 1) metrics
//! ```
//!
//! Each pass runs in a child process of its own, so `peak_rss_mb` belongs
//! to the measured pass alone and no thread outlives its pass.

mod json;
mod live;
mod replay;
mod report;
mod span;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use live::PassInput;
use report::{Metric, PassOutput, WorkloadResult, END_TO_END};
use stream::Workload;

/// Where durable stores live: inside the directory the benchmark runs in.
const TMP_ROOT: &str = ".ledger_tmp";

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Pass {
    Measured,
    Counted,
    Replay,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Measured => "measured",
            Pass::Counted => "counted",
            Pass::Replay => "replay",
        }
    }
}

#[derive(Clone, Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    /// The driver's `--trace`: `Some(false)` asks for the end-to-end
    /// metrics alone, `Some(true)` for the per-layer ones.
    trace: Option<bool>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check_repeat: bool,
    /// Set in a child process: the one pass to run.
    pass: Option<Pass>,
    tmp: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: None,
        out: None,
        trace_out: None,
        check_repeat: false,
        pass: None,
        tmp: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", known.join(", "))
                })?;
                o.workloads.push(w);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds is a whole number from 1 to 60".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other}")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--check-repeat" => o.check_repeat = true,
            "--pass" => {
                o.pass = Some(match value()? {
                    "measured" => Pass::Measured,
                    "counted" => Pass::Counted,
                    "replay" => Pass::Replay,
                    other => return Err(format!("unknown pass {other}")),
                })
            }
            "--tmp" => o.tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.trace.is_some() && o.workloads.len() != 1 {
        return Err("--trace goes with exactly one --workload".into());
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match opts.pass {
        Some(pass) => child(&opts, pass),
        None => parent(&opts),
    }
}

/// A child process: one pass of one workload, its result as plain lines.
fn child(opts: &Options, pass: Pass) -> ExitCode {
    let input = PassInput {
        workload: opts.workloads[0],
        seed: opts.seed,
        seconds: opts.seconds,
        scale_div: 1,
        tmp: opts.tmp.clone().unwrap_or_else(|| PathBuf::from(TMP_ROOT)),
    };
    let out = match pass {
        Pass::Measured => live::measured(&input),
        Pass::Counted => live::counted(&input),
        Pass::Replay => replay::run(&input, opts.trace_out.as_deref()),
    };
    print!("{}", out.to_lines());
    ExitCode::SUCCESS
}

/// Runs `pass` of `w` in a child process and reads back what it printed.
fn run_pass(opts: &Options, w: Workload, pass: Pass, tmp: &Path) -> PassOutput {
    let failed = |why: String| PassOutput {
        errors: vec![format!("{} {} pass: {why}", w.name(), pass.name())],
        ..PassOutput::default()
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(format!("cannot find own executable: {e}")),
    };
    let dir = tmp.join(format!("{}-{}", w.name(), pass.name()));
    let mut cmd = Command::new(exe);
    cmd.args(["--pass", pass.name(), "--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--tmp")
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let (Pass::Replay, Some(path)) = (pass, &opts.trace_out) {
        // One file per workload when several run.
        let path = if opts.workloads.len() > 1 {
            path.with_file_name(format!(
                "{}.{}",
                w.name(),
                path.file_name()
                    .map_or("spans.jsonl".into(), |f| f.to_string_lossy())
            ))
        } else {
            path.clone()
        };
        cmd.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end.
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start the child process: {e}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if !output.status.success() {
        return failed(format!("the child process ended with {}", output.status));
    }
    PassOutput::from_lines(&String::from_utf8_lossy(&output.stdout))
        .unwrap_or_else(|| failed("the child process printed no readable result".into()))
}

fn run_workload(opts: &Options, w: Workload, passes: &[Pass], tmp: &Path) -> WorkloadResult {
    let mut r = WorkloadResult::default();
    for &pass in passes {
        let out = run_pass(opts, w, pass, tmp);
        match pass {
            Pass::Measured => r.add_measured(out),
            Pass::Counted | Pass::Replay => r.add_traced(out),
        }
    }
    r
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = (&'a str, &'a Metric)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(k, m)| (k.to_string(), m.to_json()))
            .collect(),
    )
}

fn parent(opts: &Options) -> ExitCode {
    let tmp = PathBuf::from(TMP_ROOT).join(std::process::id().to_string());
    let passes: &[Pass] = match opts.trace {
        Some(false) => &[Pass::Measured],
        _ => &[Pass::Measured, Pass::Counted, Pass::Replay],
    };
    let mut results = Vec::new();
    let mut ok = true;
    for &w in &opts.workloads {
        let r = run_workload(opts, w, passes, &tmp);
        if opts.trace != Some(true) {
            for (name, m) in &r.end_to_end {
                println!("{} {}", w.name(), m.line(name));
            }
        }
        if opts.trace != Some(false) {
            for (name, m) in r.per_layer_complete() {
                println!("{} {}", w.name(), m.line(name));
            }
        }
        for e in &r.errors {
            eprintln!("ledger: {}: FAILED CHECK: {e}", w.name());
        }
        println!(
            "{} correct {} attempted {} failed {}",
            w.name(),
            r.correct(),
            r.attempted,
            r.failed
        );
        ok &= r.correct();
        results.push((w, r));
    }

    if opts.check_repeat {
        ok &= check_repeat(opts, &results, &tmp);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_ROOT); // only if no other run uses it

    if let Some(path) = &opts.out {
        let doc = Json::obj([
            ("benchmark", Json::Str("ledger".into())),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds as f64)),
            (
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            (
                "workloads",
                Json::Obj(
                    results
                        .iter()
                        .map(|(w, r)| (w.name().to_string(), result_json(*w, opts, r)))
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            ok = false;
        }
    }

    if let Some(trace) = opts.trace {
        // The driver's protocol: the result is the last line printed, each
        // metric as exactly `{value, unit}`.
        let (_, r) = &results[0];
        let brief = |m: &Metric| {
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ])
        };
        let metrics: Vec<(String, Json)> = if trace {
            let layers = r.per_layer_complete();
            layers
                .iter()
                .map(|(k, m)| (k.to_string(), brief(m)))
                .collect()
        } else {
            r.end_to_end
                .iter()
                .map(|(k, m)| (k.clone(), brief(m)))
                .collect()
        };
        let line = Json::obj([
            ("correct", Json::Bool(r.correct())),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", line.render());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(w: Workload, opts: &Options, r: &WorkloadResult) -> Json {
    let layers = r.per_layer_complete();
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "timed_ops",
            Json::Num((w.ops_per_second() * opts.seconds as usize) as f64),
        ),
        (
            "end_to_end",
            metrics_json(r.end_to_end.iter().map(|(k, m)| (k.as_str(), m))),
        ),
        (
            "per_layer",
            metrics_json(layers.iter().map(|(k, m)| (*k, m))),
        ),
    ])
}

/// Runs the measured and replay passes a second time and compares: every
/// end-to-end metric within its bound of the first set, every replay count
/// identical. Prints offenders. The driver holds medians of ten runs to
/// the relative bound; this compares two single runs, which differ by more,
/// so for the two metrics that are small numbers a difference under an
/// absolute floor (0.1 s of set-up, 2 MB of memory) passes too.
fn check_repeat(opts: &Options, first: &[(Workload, WorkloadResult)], tmp: &Path) -> bool {
    let mut ok = true;
    for (w, a) in first {
        let b = run_workload(opts, *w, &[Pass::Measured, Pass::Replay], tmp);
        for e in &b.errors {
            eprintln!("ledger: {}: FAILED CHECK (second set): {e}", w.name());
            ok = false;
        }
        for (name, _, _, bound) in END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.get(name), b.end_to_end.get(name)) else {
                eprintln!("ledger: {}: {name} is missing from a set", w.name());
                ok = false;
                continue;
            };
            let change = (y.value - x.value) / x.value;
            let floor = match name {
                "setup_s" => 0.1,
                "peak_rss_mb" => 2.0,
                _ => 0.0,
            };
            let within = change.abs() <= bound || (y.value - x.value).abs() <= floor;
            println!(
                "repeat {} {name} first {} second {} change {:+.4} bound {bound} {}",
                w.name(),
                x.value,
                y.value,
                change,
                if within { "ok" } else { "OUT OF BOUND" }
            );
            ok &= within;
        }
        if a.replay_counts == b.replay_counts {
            println!(
                "repeat {} replay counts identical ({})",
                w.name(),
                a.replay_counts.len()
            );
        } else {
            ok = false;
            for ((name, x), (_, y)) in a.replay_counts.iter().zip(&b.replay_counts) {
                if x != y {
                    println!(
                        "repeat {} count {name} first {x} second {y} DIFFERS",
                        w.name()
                    );
                }
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::PER_LAYER;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_args(&args(
            "--workload shard2_gather --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workloads, vec![Workload::Shard2Gather]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, Some(true)));
        let all = parse_args(&args("--seed 2 --check-repeat")).expect("valid");
        assert_eq!(all.workloads.len(), 4);
        assert!(all.check_repeat);
        for bad in [
            "--trace 1",
            "--workload nope",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} must be refused");
        }
    }

    /// `BENCHMARK.json` lists the catalogue's metrics, in its order, with
    /// its units, directions and bounds, and the four workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        // Relative to this file, so the same under both packages that
        // build it.
        let text = include_str!("../../../../../BENCHMARK.json");
        let mut expect = String::from("  \"end_to_end\": [\n");
        for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
            let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
            expect.push_str(&format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \
                 \"bound\": {bound}}}{comma}\n",
                better.word()
            ));
        }
        expect.push_str("  ],\n  \"per_layer\": [\n");
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
            expect.push_str(&format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
                better.word()
            ));
        }
        expect.push_str("  ]\n}\n");
        assert!(
            text.ends_with(&expect),
            "BENCHMARK.json must end with\n{expect}"
        );
        let workloads: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"why\":"))
            .filter_map(|l| {
                l.trim_start()
                    .strip_prefix("{\"name\": \"")?
                    .split('"')
                    .next()
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    /// Every workload's three passes in-process at 1/50 size, so drift in
    /// the `alg`, `wire` or `store` interfaces breaks the workspace's tests.
    #[test]
    fn smoke_all_workloads_all_passes() {
        for w in Workload::ALL {
            let tmp =
                PathBuf::from(TMP_ROOT).join(format!("test-{}-{}", std::process::id(), w.name()));
            let input = PassInput {
                workload: w,
                seed: 11,
                seconds: 10,
                scale_div: 50,
                tmp: tmp.clone(),
            };
            let mut r = WorkloadResult::default();
            r.add_measured(live::measured(&input));
            r.add_traced(live::counted(&input));
            let _ = std::fs::remove_dir_all(&tmp);
            let first = replay::run(&input, None);
            let _ = std::fs::remove_dir_all(&tmp);
            let counts = |p: &PassOutput| -> Vec<(String, f64)> {
                p.metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with("count."))
                    .map(|(k, m)| (k.clone(), m.value))
                    .collect()
            };
            assert_eq!(
                counts(&first),
                counts(&replay::run(&input, None)),
                "{}: replay counts repeat exactly",
                w.name()
            );
            let _ = std::fs::remove_dir_all(&tmp);
            r.add_traced(first);

            assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
            for (name, ..) in END_TO_END {
                assert!(r.end_to_end[name].value > 0.0, "{}: {name} is 0", w.name());
            }
            assert!(r.per_layer["alg.on_request_us"].value > 0.0);
            assert!(r.per_layer["budget.critical_path_us"].value > 0.0);
            assert!(r.per_layer.contains_key("obs.overhead_share"));
            assert_eq!(
                r.per_layer["store.persist_us"].value > 0.0,
                w.durable(),
                "{}: only the durable workload persists",
                w.name()
            );
            assert_eq!(
                r.per_layer["core.shard.route_us"].value > 0.0,
                w.shards() > 1,
                "{}: only the sharded workload routes",
                w.name()
            );
        }
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}
