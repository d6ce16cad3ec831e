//! A name/attribute directory service — the application domain the paper
//! motivates (§1, §11.2): name objects with typed attributes, access
//! dominated by queries, updates propagated lazily.
//!
//! Section 11.2 describes the idiom this type supports: create a name, then
//! initialize its attributes with operations whose `prev` sets contain the
//! identifier of the creation operation, so initialization is never applied
//! before creation on any replica.

use std::collections::BTreeMap;

use esds_core::{CommutativitySpec, KeyedDataType, SerialDataType};

/// A directory mapping names to attribute maps.
///
/// # Examples
///
/// ```
/// use esds_core::SerialDataType;
/// use esds_datatypes::{Directory, DirectoryOp, DirectoryValue};
///
/// let dt = Directory;
/// let s0 = dt.initial_state();
/// let (s1, v) = dt.apply(&s0, &DirectoryOp::create("www"));
/// assert_eq!(v, DirectoryValue::Created(true));
/// let (s2, _) = dt.apply(&s1, &DirectoryOp::set_attr("www", "addr", "10.0.0.1"));
/// let (_, v) = dt.apply(&s2, &DirectoryOp::lookup("www", "addr"));
/// assert_eq!(v, DirectoryValue::Attr(Some("10.0.0.1".to_string())));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Directory;

/// The directory state: name → (attribute → value).
pub type DirectoryState = BTreeMap<String, BTreeMap<String, String>>;

/// Operators of [`Directory`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DirectoryOp {
    /// Register a name with an empty attribute map (no-op if present).
    CreateName(String),
    /// Remove a name and its attributes (no-op if absent).
    RemoveName(String),
    /// Set one attribute of a name (no-op if the name is absent —
    /// the §11.2 idiom orders this after creation via `prev`).
    SetAttr {
        /// Name to update.
        name: String,
        /// Attribute key.
        attr: String,
        /// Attribute value.
        value: String,
    },
    /// Look up one attribute of a name.
    Lookup {
        /// Name to query.
        name: String,
        /// Attribute key.
        attr: String,
    },
    /// List all registered names.
    ListNames,
}

impl DirectoryOp {
    /// Convenience constructor for [`DirectoryOp::CreateName`].
    pub fn create(name: impl Into<String>) -> Self {
        DirectoryOp::CreateName(name.into())
    }

    /// Convenience constructor for [`DirectoryOp::RemoveName`].
    pub fn remove(name: impl Into<String>) -> Self {
        DirectoryOp::RemoveName(name.into())
    }

    /// Convenience constructor for [`DirectoryOp::SetAttr`].
    pub fn set_attr(
        name: impl Into<String>,
        attr: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        DirectoryOp::SetAttr {
            name: name.into(),
            attr: attr.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for [`DirectoryOp::Lookup`].
    pub fn lookup(name: impl Into<String>, attr: impl Into<String>) -> Self {
        DirectoryOp::Lookup {
            name: name.into(),
            attr: attr.into(),
        }
    }

    /// The name this operator touches, if any (`ListNames` touches all).
    pub fn name(&self) -> Option<&str> {
        match self {
            DirectoryOp::CreateName(n)
            | DirectoryOp::RemoveName(n)
            | DirectoryOp::SetAttr { name: n, .. }
            | DirectoryOp::Lookup { name: n, .. } => Some(n),
            DirectoryOp::ListNames => None,
        }
    }

    /// Whether the operator is read-only.
    pub fn is_query(&self) -> bool {
        matches!(self, DirectoryOp::Lookup { .. } | DirectoryOp::ListNames)
    }
}

/// Values reported by [`Directory`] operators.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DirectoryValue {
    /// Whether `CreateName` actually created (false = already present).
    Created(bool),
    /// Whether `RemoveName` actually removed.
    Removed(bool),
    /// Whether `SetAttr` found its name.
    AttrSet(bool),
    /// The attribute value found by `Lookup` (None = name or attr absent).
    Attr(Option<String>),
    /// The names returned by `ListNames`.
    Names(Vec<String>),
}

impl SerialDataType for Directory {
    type State = DirectoryState;
    type Operator = DirectoryOp;
    type Value = DirectoryValue;

    fn initial_state(&self) -> DirectoryState {
        BTreeMap::new()
    }

    fn apply(&self, s: &DirectoryState, op: &DirectoryOp) -> (DirectoryState, DirectoryValue) {
        match op {
            DirectoryOp::CreateName(n) => {
                let mut ns = s.clone();
                let created = !ns.contains_key(n);
                ns.entry(n.clone()).or_default();
                (ns, DirectoryValue::Created(created))
            }
            DirectoryOp::RemoveName(n) => {
                let mut ns = s.clone();
                let removed = ns.remove(n).is_some();
                (ns, DirectoryValue::Removed(removed))
            }
            DirectoryOp::SetAttr { name, attr, value } => {
                let mut ns = s.clone();
                let set = if let Some(attrs) = ns.get_mut(name) {
                    attrs.insert(attr.clone(), value.clone());
                    true
                } else {
                    false
                };
                (ns, DirectoryValue::AttrSet(set))
            }
            DirectoryOp::Lookup { name, attr } => {
                let v = s.get(name).and_then(|attrs| attrs.get(attr)).cloned();
                (s.clone(), DirectoryValue::Attr(v))
            }
            DirectoryOp::ListNames => (
                s.clone(),
                DirectoryValue::Names(s.keys().cloned().collect()),
            ),
        }
    }
}

impl CommutativitySpec for Directory {
    fn commutes(&self, a: &DirectoryOp, b: &DirectoryOp) -> bool {
        use DirectoryOp::*;
        if a.is_query() && b.is_query() {
            return true;
        }
        // Queries never change state, so they commute (state-wise) with
        // everything.
        if a.is_query() || b.is_query() {
            return true;
        }
        match (a.name(), b.name()) {
            // Mutations on different names commute.
            (Some(na), Some(nb)) if na != nb => true,
            _ => match (a, b) {
                // Same-name cases.
                (CreateName(_), CreateName(_)) => true, // both ensure presence
                (RemoveName(_), RemoveName(_)) => true, // both ensure absence
                (
                    SetAttr {
                        attr: aa,
                        value: va,
                        ..
                    },
                    SetAttr {
                        attr: ab,
                        value: vb,
                        ..
                    },
                ) => aa != ab || va == vb,
                // create/remove, create/set, remove/set conflict.
                _ => false,
            },
        }
    }

    fn oblivious_to(&self, a: &DirectoryOp, b: &DirectoryOp) -> bool {
        use DirectoryOp::*;
        match a {
            // ListNames observes every name: only oblivious to attribute
            // writes and other queries.
            ListNames => matches!(b, SetAttr { .. } | Lookup { .. } | ListNames),
            // Lookup observes one (name, attr).
            Lookup { name, attr } => match b {
                Lookup { .. } | ListNames => true,
                SetAttr {
                    name: nb, attr: ab, ..
                } => name != nb || attr != ab,
                CreateName(nb) | RemoveName(nb) => name != nb,
            },
            // Mutations return presence/absence information about their name.
            CreateName(n) | RemoveName(n) => match b {
                Lookup { .. } | ListNames => true,
                SetAttr { .. } => true, // set never changes presence
                CreateName(nb) | RemoveName(nb) => n != nb,
            },
            // SetAttr returns whether its name exists.
            SetAttr { name, .. } => match b {
                Lookup { .. } | ListNames => true,
                SetAttr { .. } => true,
                CreateName(nb) | RemoveName(nb) => name != nb,
            },
        }
    }
}

/// Names partition the directory: every per-name operator (create,
/// remove, set, lookup) is routed by its name — the §11.2 idiom of
/// creating a name and then initializing it with `prev`-ordered `SetAttr`s
/// stays entirely within one shard. `ListNames` is a gatherable
/// whole-object query: the sharded layers run it on every involved shard
/// and merge the per-shard name lists here (sorted disjoint union —
/// shards own disjoint name sets).
impl KeyedDataType for Directory {
    fn shard_key<'a>(&self, op: &'a DirectoryOp) -> Option<&'a str> {
        op.name()
    }

    fn merge_gathered(
        &self,
        op: &DirectoryOp,
        parts: Vec<DirectoryValue>,
    ) -> Option<DirectoryValue> {
        match op {
            DirectoryOp::ListNames => {
                let mut all: Vec<String> = parts
                    .into_iter()
                    .flat_map(|v| match v {
                        DirectoryValue::Names(ns) => ns,
                        other => unreachable!("ListNames sub-op answered {other:?}"),
                    })
                    .collect();
                all.sort();
                all.dedup();
                Some(DirectoryValue::Names(all))
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
    fn create_set_lookup_roundtrip() {
        let dt = Directory;
        let (s, v) = dt.apply(&dt.initial_state(), &DirectoryOp::create("a"));
        assert_eq!(v, DirectoryValue::Created(true));
        let (s, v) = dt.apply(&s, &DirectoryOp::create("a"));
        assert_eq!(v, DirectoryValue::Created(false));
        let (s, v) = dt.apply(&s, &DirectoryOp::set_attr("a", "k", "v"));
        assert_eq!(v, DirectoryValue::AttrSet(true));
        let (_, v) = dt.apply(&s, &DirectoryOp::lookup("a", "k"));
        assert_eq!(v, DirectoryValue::Attr(Some("v".into())));
    }

    #[test]
    fn set_attr_without_create_is_noop() {
        // This is exactly why §11.2 orders initialization after creation
        // with prev sets.
        let dt = Directory;
        let (s, v) = dt.apply(
            &dt.initial_state(),
            &DirectoryOp::set_attr("ghost", "k", "v"),
        );
        assert_eq!(v, DirectoryValue::AttrSet(false));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_then_list() {
        let dt = Directory;
        let (s, _) = dt.apply(&dt.initial_state(), &DirectoryOp::create("x"));
        let (s, _) = dt.apply(&s, &DirectoryOp::create("y"));
        let (s, v) = dt.apply(&s, &DirectoryOp::remove("x"));
        assert_eq!(v, DirectoryValue::Removed(true));
        let (_, v) = dt.apply(&s, &DirectoryOp::ListNames);
        assert_eq!(v, DirectoryValue::Names(vec!["y".into()]));
    }

    #[test]
    fn list_names_is_gatherable_and_merges_to_sorted_union() {
        let dt = Directory;
        assert!(dt.is_gatherable(&DirectoryOp::ListNames));
        assert!(!dt.is_gatherable(&DirectoryOp::lookup("a", "k")));
        let merged = dt.merge_gathered(
            &DirectoryOp::ListNames,
            vec![
                DirectoryValue::Names(vec!["y".into()]),
                DirectoryValue::Names(vec!["x".into(), "z".into()]),
            ],
        );
        assert_eq!(
            merged,
            Some(DirectoryValue::Names(vec![
                "x".into(),
                "y".into(),
                "z".into()
            ]))
        );
        assert_eq!(dt.merge_gathered(&DirectoryOp::create("a"), vec![]), None);
    }

    fn any_name() -> impl Strategy<Value = String> {
        prop_oneof![Just("a".to_string()), Just("b".to_string())]
    }

    fn any_op() -> impl Strategy<Value = DirectoryOp> {
        prop_oneof![
            any_name().prop_map(DirectoryOp::CreateName),
            any_name().prop_map(DirectoryOp::RemoveName),
            (any_name(), any_name(), any_name())
                .prop_map(|(n, a, v)| DirectoryOp::set_attr(n, a, v)),
            (any_name(), any_name()).prop_map(|(n, a)| DirectoryOp::lookup(n, a)),
            Just(DirectoryOp::ListNames),
        ]
    }

    fn any_state() -> impl Strategy<Value = DirectoryState> {
        proptest::collection::btree_map(
            any_name(),
            proptest::collection::btree_map(any_name(), any_name(), 0..2),
            0..3,
        )
    }

    proptest! {
        #[test]
        fn spec_sound(a in any_op(), b in any_op(), s in any_state()) {
            let dt = Directory;
            if dt.commutes(&a, &b) {
                prop_assert!(commutes_at(&dt, &s, &a, &b), "a={a:?} b={b:?} s={s:?}");
            }
            if dt.oblivious_to(&a, &b) {
                prop_assert!(oblivious_at(&dt, &s, &a, &b), "a={a:?} b={b:?} s={s:?}");
            }
        }
    }
}
