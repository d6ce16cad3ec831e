//! The executable simulation relation of Theorem 8.4: every step of the
//! algorithm is mapped to the corresponding `ESDS-II` action sequence, and
//! each spec action's precondition is checked — these are exactly the proof
//! obligations of the paper's forward simulation `F` (Fig. 9).
//!
//! Mapping (following the proof of Theorem 8.4):
//!
//! | algorithm event                     | spec actions                     |
//! |-------------------------------------|----------------------------------|
//! | `request(x)`                        | `request(x)`                     |
//! | `do_it` of a waiting op             | `enter(x, po′)`                  |
//! | any event changing the derived `po` | `add_constraints(po′)`           |
//! | op newly in `∩ᵣ stable_r[r]`        | `stabilize(x)`                   |
//! | replica computes a response `(x,v)` | `calculate(x, v)` (with witness) |
//! | front end delivers `(x,v)`          | `response(x, v)`                 |
//!
//! The observer also re-checks the `F`-relation components after every
//! step: `u.ops = ∪ᵣ done_r[r]`, `u.stabilized = ∩ᵣ stable_r[r]`, and
//! `u.wait = ∪ wait_c`.

use std::collections::BTreeSet;
use std::fmt;

use esds_alg::SystemView;
use esds_core::{OpId, PreconditionError, SerialDataType, WellFormednessError};
use esds_spec::{EsdsSpec, SpecVariant, Users};

use crate::system::StepReport;

/// A conformance failure: the algorithm took a step the specification
/// cannot simulate.
#[derive(Clone, Debug)]
pub enum ConformanceError {
    /// A client request broke well-formedness.
    WellFormedness(WellFormednessError),
    /// A spec action's precondition failed (with the algorithm event
    /// context).
    Precondition {
        /// What the observer was simulating.
        context: String,
        /// The failed clause.
        error: PreconditionError,
    },
    /// An `F`-relation component diverged.
    Relation(String),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::WellFormedness(e) => write!(f, "well-formedness: {e}"),
            ConformanceError::Precondition { context, error } => {
                write!(f, "while simulating {context}: {error}")
            }
            ConformanceError::Relation(s) => write!(f, "F-relation broken: {s}"),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// Replays algorithm steps against an `ESDS-II` automaton (see module
/// docs). Requires the system to run with witness recording and in-flight
/// tracking enabled and no faults. Either gossip strategy works: batched
/// gossip re-ships a label whenever it drops below the last value sent to
/// that peer, so on the FIFO channels the simulator provides, an
/// in-flight delta constrains the derived `po` exactly as the full
/// snapshot would (`tests/sharded_conformance.rs` exercises this).
pub struct ConformanceObserver<T: SerialDataType + Clone> {
    spec: EsdsSpec<T>,
    users: Users<T::Operator>,
    /// Steps observed (for reporting).
    pub steps: u64,
    /// Spec actions replayed (for reporting).
    pub actions: u64,
}

impl<T: SerialDataType + Clone> ConformanceObserver<T> {
    /// Creates an observer for a fresh system.
    pub fn new(dt: T) -> Self {
        ConformanceObserver {
            spec: EsdsSpec::new(dt, SpecVariant::EsdsII),
            users: Users::new(),
            steps: 0,
            actions: 0,
        }
    }

    /// Observes one simulation step: `report` is what the step did, `view`
    /// is the post-state of the whole system.
    ///
    /// # Errors
    ///
    /// Returns the first proof obligation that fails.
    pub fn observe(
        &mut self,
        report: &StepReport<T::Operator, T::Value>,
        view: &SystemView<'_, T>,
    ) -> Result<(), ConformanceError> {
        self.steps += 1;

        // 1. request(x) actions.
        for d in &report.new_requests {
            self.users
                .request(d.clone())
                .map_err(ConformanceError::WellFormedness)?;
            self.spec.request(d.clone());
            self.actions += 1;
        }

        // 2. enter(x, po′) for ops newly done somewhere. The proof enters
        //    with the post-state po; entering in minlabel order keeps every
        //    intermediate new-po well-formed.
        let alg_ops = view.ops();
        let po = view.po();
        let mut new_ops: Vec<OpId> = alg_ops
            .iter()
            .filter(|id| !self.spec.ops().contains_key(id))
            .copied()
            .collect();
        new_ops.sort_by_key(|id| view.minlabel(*id));
        for x in new_ops {
            // new-po = po induced on (spec.ops ∪ {x}).
            let mut keep: BTreeSet<OpId> = self.spec.ops().keys().copied().collect();
            keep.insert(x);
            let mut sub = po.induced_on(&keep);
            for k in &keep {
                sub.add_node(*k);
            }
            self.spec
                .enter(x, sub)
                .map_err(|error| ConformanceError::Precondition {
                    context: format!("enter({x})"),
                    error,
                })?;
            self.actions += 1;
        }

        // 3. add_constraints(po′) with the full derived po.
        let mut full = po.clone();
        for id in &alg_ops {
            full.add_node(*id);
        }
        self.spec
            .add_constraints(full)
            .map_err(|error| ConformanceError::Precondition {
                context: "add_constraints(po)".to_string(),
                error,
            })?;
        self.actions += 1;

        // 4. stabilize(x) for ops newly stable at every replica, in
        //    minlabel order (the proof stabilizes x1 … xk in order).
        let mut stable_all: Option<BTreeSet<OpId>> = None;
        for rep in &view.replicas {
            stable_all = Some(match stable_all {
                None => rep.stable_here().clone(),
                Some(acc) => acc.intersection(rep.stable_here()).copied().collect(),
            });
        }
        let mut newly_stable: Vec<OpId> = stable_all
            .unwrap_or_default()
            .into_iter()
            .filter(|x| !self.spec.stabilized().contains(x))
            .collect();
        newly_stable.sort_by_key(|id| view.minlabel(*id));
        for x in newly_stable {
            self.spec
                .stabilize(x)
                .map_err(|error| ConformanceError::Precondition {
                    context: format!("stabilize({x})"),
                    error,
                })?;
            self.actions += 1;
        }

        // 5. calculate(x, v) for every response computed this step.
        for (x, v, witness) in &report.responses_computed {
            let w = witness.as_deref().ok_or_else(|| {
                ConformanceError::Relation(
                    "conformance requires record_witness=true on replicas".to_string(),
                )
            })?;
            self.spec.calculate(*x, v, Some(w)).map_err(|error| {
                ConformanceError::Precondition {
                    context: format!("calculate({x})"),
                    error,
                }
            })?;
            self.actions += 1;
        }

        // 6. response(x, v) for client deliveries.
        for (x, v) in &report.deliveries {
            self.spec
                .respond_with(*x, v)
                .map_err(|error| ConformanceError::Precondition {
                    context: format!("response({x})"),
                    error,
                })?;
            self.actions += 1;
        }

        // 7. F-relation components (Fig. 9).
        let spec_ops: BTreeSet<OpId> = self.spec.ops().keys().copied().collect();
        if spec_ops != alg_ops {
            return Err(ConformanceError::Relation(format!(
                "u.ops ({}) ≠ ∪ᵣ done_r[r] ({})",
                spec_ops.len(),
                alg_ops.len()
            )));
        }
        if self.spec.waiting() != view.waiting {
            return Err(ConformanceError::Relation(format!(
                "u.wait ({:?}) ≠ ∪ wait_c ({:?})",
                self.spec.waiting(),
                view.waiting
            )));
        }
        // Spec invariants (§5.2) must hold throughout.
        let bad = self.spec.check_invariants();
        if let Some(b) = bad.first() {
            return Err(ConformanceError::Relation(b.clone()));
        }
        Ok(())
    }

    /// The underlying specification state (for final assertions).
    pub fn spec(&self) -> &EsdsSpec<T> {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SimSystem, SystemConfig};
    use esds_alg::ReplicaConfig;
    use esds_datatypes::{Counter, CounterOp};

    /// End-to-end conformance over a mixed workload: every simulator step
    /// must be simulable by ESDS-II.
    #[test]
    fn algorithm_conforms_to_esds2() {
        let cfg = SystemConfig::new(3)
            .with_seed(21)
            .with_replica(ReplicaConfig::default().with_witness())
            .with_tracking();
        let mut sys = SimSystem::new(Counter, cfg);
        let mut obs = ConformanceObserver::new(Counter);

        let a = sys.add_client(0);
        let b = sys.add_client(1);
        let mut last = None;
        for i in 0..12u64 {
            let strict = i % 4 == 0;
            let prev: Vec<_> = if i % 3 == 0 {
                last.into_iter().collect()
            } else {
                vec![]
            };
            let op = if i % 2 == 0 {
                CounterOp::Increment(1)
            } else {
                CounterOp::Read
            };
            let c = if i % 2 == 0 { a } else { b };
            last = Some(sys.submit(c, op, &prev, strict));
        }

        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100_000, "conformance test runaway");
            let Some((_, report)) = sys.step_one() else {
                break;
            };
            let view = sys.view().expect("no crashes in this test");
            obs.observe(&report, &view).expect("conformance violated");
            if sys.is_converged() && report.is_trivial() {
                break;
            }
        }
        assert!(obs.actions > 0);
        // All ops entered and stabilized in the spec.
        assert_eq!(obs.spec().ops().len(), 12);
        assert_eq!(obs.spec().stabilized().len(), 12);
    }
}
