//! A string key-value store — the workhorse type for workload generation:
//! per-key conflicts, cross-key commutativity.

use std::collections::BTreeMap;

use esds_core::{CommutativitySpec, KeyedDataType, SerialDataType};

/// A key-value store with string keys and values.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{KvStore, KvOp, KvValue};
///
/// let dt = KvStore;
/// let (s, _) = dt.apply(&dt.initial_state(), &KvOp::put("k", "v"));
/// assert_eq!(dt.apply(&s, &KvOp::get("k")).1, KvValue::Value(Some("v".into())));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct KvStore;

/// Operators of [`KvStore`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KvOp {
    /// Insert or overwrite a key.
    Put(String, String),
    /// Read a key.
    Get(String),
    /// Remove a key.
    Remove(String),
    /// List all keys.
    Keys,
}

impl KvOp {
    /// Convenience constructor for [`KvOp::Put`].
    pub fn put(k: impl Into<String>, v: impl Into<String>) -> Self {
        KvOp::Put(k.into(), v.into())
    }

    /// Convenience constructor for [`KvOp::Get`].
    pub fn get(k: impl Into<String>) -> Self {
        KvOp::Get(k.into())
    }

    /// Convenience constructor for [`KvOp::Remove`].
    pub fn remove(k: impl Into<String>) -> Self {
        KvOp::Remove(k.into())
    }

    /// The key this operator touches, if any.
    pub fn key(&self) -> Option<&str> {
        match self {
            KvOp::Put(k, _) | KvOp::Get(k) | KvOp::Remove(k) => Some(k),
            KvOp::Keys => None,
        }
    }
}

/// Values reported by [`KvStore`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum KvValue {
    /// Acknowledgement of a put.
    Ack,
    /// The value observed by a get (None = absent).
    Value(Option<String>),
    /// Whether a remove found its key.
    Removed(bool),
    /// All keys.
    Keys(Vec<String>),
}

impl SerialDataType for KvStore {
    type State = BTreeMap<String, String>;
    type Operator = KvOp;
    type Value = KvValue;

    fn initial_state(&self) -> BTreeMap<String, String> {
        BTreeMap::new()
    }

    fn apply(
        &self,
        s: &BTreeMap<String, String>,
        op: &KvOp,
    ) -> (BTreeMap<String, String>, KvValue) {
        match op {
            KvOp::Put(k, v) => {
                let mut ns = s.clone();
                ns.insert(k.clone(), v.clone());
                (ns, KvValue::Ack)
            }
            KvOp::Get(k) => (s.clone(), KvValue::Value(s.get(k).cloned())),
            KvOp::Remove(k) => {
                let mut ns = s.clone();
                let removed = ns.remove(k).is_some();
                (ns, KvValue::Removed(removed))
            }
            KvOp::Keys => (s.clone(), KvValue::Keys(s.keys().cloned().collect())),
        }
    }
}

impl CommutativitySpec for KvStore {
    fn commutes(&self, a: &KvOp, b: &KvOp) -> bool {
        use KvOp::*;
        match (a, b) {
            // Queries never change state.
            (Get(_) | Keys, _) | (_, Get(_) | Keys) => true,
            (Put(ka, va), Put(kb, vb)) => ka != kb || va == vb,
            // Removes always commute: same key → both orders leave it
            // absent; different keys → independent entries.
            (Remove(_), Remove(_)) => true,
            (Put(ka, _), Remove(kb)) | (Remove(kb), Put(ka, _)) => ka != kb,
        }
    }

    fn oblivious_to(&self, a: &KvOp, b: &KvOp) -> bool {
        use KvOp::*;
        match a {
            Put(_, _) => true,
            Get(k) => match b {
                Get(_) | Keys => true,
                Put(kb, _) | Remove(kb) => k != kb,
            },
            // Remove returns presence of its key.
            Remove(k) => match b {
                Get(_) | Keys => true,
                Put(kb, _) | Remove(kb) => k != kb,
            },
            // Keys observes presence of every key.
            Keys => matches!(b, Get(_) | Keys),
        }
    }
}

/// The keyspace is the shard space: `Put`/`Get`/`Remove` are routed by
/// their key; `Keys` is a gatherable whole-object query — the sharded
/// layers run it on every involved shard and merge the per-shard key
/// lists here. Shards own disjoint key sets, so the merge is a sorted
/// disjoint union (dedup defends against a shard answering twice).
impl KeyedDataType for KvStore {
    fn shard_key<'a>(&self, op: &'a KvOp) -> Option<&'a str> {
        op.key()
    }

    fn merge_gathered(&self, op: &KvOp, parts: Vec<KvValue>) -> Option<KvValue> {
        match op {
            KvOp::Keys => {
                let mut all: Vec<String> = parts
                    .into_iter()
                    .flat_map(|v| match v {
                        KvValue::Keys(ks) => ks,
                        other => unreachable!("Keys sub-op answered {other:?}"),
                    })
                    .collect();
                all.sort();
                all.dedup();
                Some(KvValue::Keys(all))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esds_core::{commutes_at, oblivious_at};
    use proptest::prelude::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let dt = KvStore;
        let (s, _) = dt.apply(&dt.initial_state(), &KvOp::put("a", "1"));
        assert_eq!(
            dt.apply(&s, &KvOp::get("a")).1,
            KvValue::Value(Some("1".into()))
        );
        let (s, v) = dt.apply(&s, &KvOp::remove("a"));
        assert_eq!(v, KvValue::Removed(true));
        assert_eq!(dt.apply(&s, &KvOp::get("a")).1, KvValue::Value(None));
    }

    #[test]
    fn cross_key_independence() {
        let dt = KvStore;
        assert!(dt.independent(&KvOp::put("a", "1"), &KvOp::put("b", "2")));
        assert!(!dt.commutes(&KvOp::put("a", "1"), &KvOp::put("a", "2")));
        assert!(dt.independent(&KvOp::get("a"), &KvOp::put("b", "2")));
        assert!(!dt.independent(&KvOp::get("a"), &KvOp::put("a", "2")));
    }

    #[test]
    fn keys_is_gatherable_and_merges_to_sorted_union() {
        let dt = KvStore;
        assert!(dt.is_gatherable(&KvOp::Keys));
        assert!(!dt.is_gatherable(&KvOp::get("a")));
        let merged = dt.merge_gathered(
            &KvOp::Keys,
            vec![
                KvValue::Keys(vec!["b".into(), "d".into()]),
                KvValue::Keys(vec!["a".into(), "c".into()]),
                KvValue::Keys(vec!["a".into()]),
            ],
        );
        assert_eq!(
            merged,
            Some(KvValue::Keys(vec![
                "a".into(),
                "b".into(),
                "c".into(),
                "d".into()
            ]))
        );
        assert_eq!(
            dt.merge_gathered(&KvOp::Keys, vec![]),
            Some(KvValue::Keys(vec![])),
            "the zero-part probe must answer"
        );
        assert_eq!(dt.merge_gathered(&KvOp::get("a"), vec![]), None);
    }

    fn any_key() -> impl Strategy<Value = String> {
        prop_oneof![Just("a".to_string()), Just("b".to_string())]
    }

    fn any_op() -> impl Strategy<Value = KvOp> {
        prop_oneof![
            (any_key(), any_key()).prop_map(|(k, v)| KvOp::Put(k, v)),
            any_key().prop_map(KvOp::Get),
            any_key().prop_map(KvOp::Remove),
            Just(KvOp::Keys),
        ]
    }

    proptest! {
        #[test]
        fn spec_sound(
            a in any_op(),
            b in any_op(),
            s in proptest::collection::btree_map(any_key(), any_key(), 0..3),
        ) {
            let dt = KvStore;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b), "a={a:?} b={b:?} s={s:?}");
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b), "a={a:?} b={b:?} s={s:?}");
            }
        }
    }
}
