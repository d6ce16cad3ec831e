//! # esds-bench
//!
//! Experiment support for regenerating every table and figure of the ESDS
//! paper. Each experiment is a function of [`experiments`], run by name
//! through the one `run_all` binary (`run_all --only <name>`):
//!
//! | experiment | reproduces |
//! |---|---|
//! | `fig_scalability`     | §11.1 throughput-vs-replicas figure (F1) |
//! | `fig_strict_latency`  | §11.1 latency-vs-strict% figure (F2) |
//! | `fig_shard_scalability` | throughput vs shard count, sharded kv (F3) |
//! | `fig_rebalance`       | throughput/latency through an add-shard handoff (F4) |
//! | `fig_wire_shards`     | TCP throughput vs shard count, fixed replica budget (F5) |
//! | `tab_response_bounds` | Theorem 9.3 response-time bounds (T1) |
//! | `tab_stabilization`   | Lemma 9.2 done-everywhere bound (T2) |
//! | `tab_fault_recovery`  | Theorem 9.4 recovery bounds (T3) |
//! | `tab_memoization`     | §10.1 memoization ablation (A1) |
//! | `tab_commute`         | §10.3 commutativity ablation (A2) |
//! | `tab_gossip_strategies` | §10.4 communication ablation (A3) |
//! | `tab_gossip_interval` | Theorem 9.3 g-sensitivity (A5) |
//! | `tab_memory`          | §10.2 local compaction (A6) |
//! | `tab_baseline_compare`  | consistency/performance trade-off (B1) |
//! | `run_all`             | all of the above |
//!
//! Criterion micro-benchmarks live in `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use esds_harness::{OpClass, SimSystem, SystemConfig};
use esds_sim::{SimDuration, SimTime};

pub mod experiments;

/// Formats a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Prints a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!(
        "{}",
        row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        row(&header.iter().map(|_| "---".to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", row(r));
    }
}

/// Mean latency (seconds) over all answered ops of a class, if any.
pub fn mean_latency_secs<T>(sys: &SimSystem<T>, class: Option<OpClass>) -> Option<f64>
where
    T: esds_core::SerialDataType + Clone,
{
    let mut sum = 0u128;
    let mut n = 0u128;
    for t in sys.op_times().values() {
        if class.is_some_and(|c| c != t.class) {
            continue;
        }
        if let Some(r) = t.responded {
            sum += r.duration_since(t.submitted).as_micros() as u128;
            n += 1;
        }
    }
    (n > 0).then(|| (sum / n) as f64 / 1e6)
}

/// Max latency over answered ops of a class.
pub fn max_latency<T>(sys: &SimSystem<T>, class: OpClass) -> Option<SimDuration>
where
    T: esds_core::SerialDataType + Clone,
{
    sys.op_times()
        .values()
        .filter(|t| t.class == class)
        .filter_map(|t| t.responded.map(|r| r.duration_since(t.submitted)))
        .max()
}

/// Throughput in completed operations per virtual second over `[0, end]`.
pub fn throughput<T>(sys: &SimSystem<T>, end: SimTime) -> f64
where
    T: esds_core::SerialDataType + Clone,
{
    if end == SimTime::ZERO {
        return 0.0;
    }
    sys.completed_count() as f64 / end.as_secs_f64()
}

/// A standard experiment config: fixed `df = dg = 5ms`, `g = 20ms`.
pub fn standard_config(n: usize, seed: u64) -> SystemConfig {
    SystemConfig::new(n).with_seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
