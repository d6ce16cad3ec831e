//! Seeded op streams: `--seed` becomes each workload's full list of
//! operations (operator, key, strict flag, `prev`) before any node starts.
//! All three passes of a workload consume the same stream, and the program
//! under test sees only the generated ops.
//!
//! Every workload has exactly one client on one fixed relay per replica
//! group, so labels follow submission order and the single-writer
//! [`Model`] predicts every answer.

use std::collections::BTreeMap;

use esds_datatypes::{KvOp, KvValue};

/// Keys every stream draws from.
pub const KEYS: u64 = 1024;
/// Untimed operations that precede every timed section.
pub const WARMUP_OPS: usize = 200;
/// Keys the post-run strict verification reads.
pub const VERIFY_KEYS: usize = 64;

/// SplitMix64 (Steele, Lea, Flood 2014): one `u64` of state, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at `n ≤ 1024` is below 2⁻⁵⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The four workloads. Sizes are op counts per `--seconds`, fixed so two
/// commits do identical work at identical history positions; they were
/// chosen so a run measures about `--seconds` on the code this benchmark
/// was defined against.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    Tcp3Nonstrict,
    Tcp3DurablePipelined,
    Tcp3StrictMix,
    Shard2Gather,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tcp3Nonstrict,
        Workload::Tcp3DurablePipelined,
        Workload::Tcp3StrictMix,
        Workload::Shard2Gather,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tcp3Nonstrict => "tcp3_nonstrict",
            Workload::Tcp3DurablePipelined => "tcp3_durable_pipelined",
            Workload::Tcp3StrictMix => "tcp3_strict_mix",
            Workload::Shard2Gather => "shard2_gather",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed operations per `--seconds`.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::Tcp3Nonstrict => 360,
            Workload::Tcp3DurablePipelined => 250,
            Workload::Tcp3StrictMix => 160,
            Workload::Shard2Gather => 160,
        }
    }

    /// Operations the client keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::Tcp3DurablePipelined => 8,
            _ => 1,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::Tcp3DurablePipelined
    }

    /// Replica groups in the deployment.
    pub fn shards(self) -> u32 {
        match self {
            Workload::Shard2Gather => 2,
            _ => 1,
        }
    }

    /// Distinguishes the workloads' random streams under one `--seed`.
    fn salt(self) -> u64 {
        match self {
            Workload::Tcp3Nonstrict => 0x6e6f_6e73,
            Workload::Tcp3DurablePipelined => 0x6475_7261,
            Workload::Tcp3StrictMix => 0x7374_7269,
            Workload::Shard2Gather => 0x7368_6172,
        }
    }
}

/// What a latency sample is filed under.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Class {
    /// Keyed `Put`/`Get`, nonstrict.
    Nonstrict,
    /// Keyed `Get`, strict.
    Strict,
    /// Whole-object `Keys`, eventual.
    Gather,
    /// Whole-object `Keys`, barrier-strict.
    GatherStrict,
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenOp {
    pub op: KvOp,
    pub class: Class,
    /// `prev` = [the client's previous operation] (else empty).
    pub after_previous: bool,
}

impl GenOp {
    pub fn new(op: KvOp, class: Class) -> GenOp {
        GenOp {
            op,
            class,
            after_previous: false,
        }
    }

    pub fn strict(&self) -> bool {
        matches!(self.class, Class::Strict | Class::GatherStrict)
    }
}

fn key(k: u64) -> String {
    format!("k{k:04}")
}

fn put(rng: &mut SplitMix64) -> KvOp {
    // 16-byte values.
    KvOp::Put(key(rng.below(KEYS)), format!("{:016x}", rng.next_u64()))
}

fn get(rng: &mut SplitMix64) -> KvOp {
    KvOp::Get(key(rng.below(KEYS)))
}

fn nonstrict(op: KvOp) -> GenOp {
    GenOp::new(op, Class::Nonstrict)
}

/// The untimed warm-up: half `Put`, half `Get`, nonstrict. The same for
/// every workload of a seed, so set-up times compare across workloads.
pub fn warmup(seed: u64) -> Vec<GenOp> {
    let mut rng = SplitMix64::new(seed ^ 0x7761_726d);
    (0..WARMUP_OPS)
        .map(|_| {
            if rng.below(2) == 0 {
                nonstrict(put(&mut rng))
            } else {
                nonstrict(get(&mut rng))
            }
        })
        .collect()
}

/// The timed stream of `workload`: `seconds × ops_per_second` operations.
pub fn timed(workload: Workload, seed: u64, seconds: u64) -> Vec<GenOp> {
    let n = workload.ops_per_second() * seconds as usize;
    let mut rng = SplitMix64::new(seed ^ workload.salt().wrapping_mul(0x0100_0000_01b3));
    (0..n)
        .map(|i| match workload {
            Workload::Tcp3Nonstrict | Workload::Tcp3DurablePipelined => {
                if rng.below(2) == 0 {
                    nonstrict(put(&mut rng))
                } else {
                    nonstrict(get(&mut rng))
                }
            }
            Workload::Tcp3StrictMix => {
                if i % 5 == 4 {
                    GenOp {
                        after_previous: true,
                        ..GenOp::new(get(&mut rng), Class::Strict)
                    }
                } else if rng.below(2) == 0 {
                    nonstrict(put(&mut rng))
                } else {
                    nonstrict(get(&mut rng))
                }
            }
            Workload::Shard2Gather => match rng.below(100) {
                0..=43 => nonstrict(put(&mut rng)),
                44..=87 => nonstrict(get(&mut rng)),
                88..=97 => GenOp::new(KvOp::Keys, Class::Gather),
                _ => GenOp::new(KvOp::Keys, Class::GatherStrict),
            },
        })
        .collect()
}

/// The keys the post-run strict verification reads.
pub fn verify_keys(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x7665_7269);
    (0..VERIFY_KEYS).map(|_| key(rng.below(KEYS))).collect()
}

/// The single-writer model: one client, one relay per group, so the
/// eventual order is the submission order and every answer is the value a
/// serial store gives at that position.
#[derive(Clone, Debug, Default)]
pub struct Model(BTreeMap<String, String>);

impl Model {
    /// Applies `op` and returns the value the service must answer.
    pub fn apply(&mut self, op: &KvOp) -> KvValue {
        match op {
            KvOp::Put(k, v) => {
                self.0.insert(k.clone(), v.clone());
                KvValue::Ack
            }
            KvOp::Get(k) => KvValue::Value(self.0.get(k).cloned()),
            KvOp::Remove(k) => KvValue::Removed(self.0.remove(k).is_some()),
            KvOp::Keys => KvValue::Keys(self.0.keys().cloned().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(timed(w, 7, 2), timed(w, 7, 2), "{}", w.name());
            assert_ne!(timed(w, 7, 2), timed(w, 8, 2), "{}", w.name());
            assert_eq!(timed(w, 7, 2).len(), w.ops_per_second() * 2);
        }
        assert_eq!(warmup(3), warmup(3));
        assert_ne!(warmup(3), warmup(4));
        assert_eq!(verify_keys(3), verify_keys(3));
    }

    #[test]
    fn a_longer_run_extends_the_shorter_one() {
        // Same history positions at any `--seconds`.
        let short = timed(Workload::Tcp3StrictMix, 1, 1);
        let long = timed(Workload::Tcp3StrictMix, 1, 3);
        assert_eq!(short[..], long[..short.len()]);
    }

    #[test]
    fn mixes_match_their_description() {
        let s = timed(Workload::Tcp3StrictMix, 1, 10);
        assert_eq!(s.iter().filter(|o| o.strict()).count(), s.len() / 5);
        assert!(s.iter().filter(|o| o.strict()).all(|o| o.after_previous));
        let g = timed(Workload::Shard2Gather, 1, 10);
        let share = |c: Class| g.iter().filter(|o| o.class == c).count() as f64 / g.len() as f64;
        assert!((share(Class::Nonstrict) - 0.88).abs() < 0.02);
        assert!((share(Class::Gather) - 0.10).abs() < 0.02);
        assert!((share(Class::GatherStrict) - 0.02).abs() < 0.01);
        let n = timed(Workload::Tcp3Nonstrict, 1, 10);
        assert!(n.iter().all(|o| !o.strict() && !o.after_previous));
    }

    #[test]
    fn model_is_a_serial_store() {
        let mut m = Model::default();
        assert_eq!(m.apply(&KvOp::get("a")), KvValue::Value(None));
        assert_eq!(m.apply(&KvOp::put("a", "1")), KvValue::Ack);
        assert_eq!(m.apply(&KvOp::get("a")), KvValue::Value(Some("1".into())));
        assert_eq!(m.apply(&KvOp::Keys), KvValue::Keys(vec!["a".into()]));
    }
}
