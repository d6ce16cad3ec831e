//! Streaming-audit driver for the simulator: feeds a
//! [`StreamingChecker`] from [`StepReport`]s and the advancing stable
//! prefix, maintaining the checker's stream contract mechanically.
//!
//! This is the simulated-deployment analogue of the wire auditor
//! (`esds-wire`): same checker, different tap. The driver observes the *externally visible* trace
//! (requests and computed responses) plus the system's stable watermark
//! — it never reads replica internals, so a green audit is a black-box
//! statement about the deployment, unlike the white-box
//! [`ConformanceObserver`](crate::ConformanceObserver).

use esds_core::SerialDataType;
use esds_spec::{AuditResult, AuditStatus, AuditViolation, StreamingChecker};

use crate::system::{SimSystem, StepReport};

/// Drives a [`StreamingChecker`] from a running [`SimSystem`].
///
/// Call [`observe`](AuditDriver::observe) with every step report and
/// [`sync_watermark`](AuditDriver::sync_watermark) whenever stability
/// may have advanced (each step, or each chunk of steps — the stable
/// prefix is final, so syncing late never unsounds the audit, it only
/// delays retirement and grows the resident window).
///
/// # Examples
///
/// ```
/// use esds_datatypes::{KvOp, KvStore};
/// use esds_harness::{AuditDriver, SystemConfig, SimSystem};
///
/// let mut sys = SimSystem::new(KvStore, SystemConfig::new(3).with_seed(7));
/// let client = sys.add_client(0);
/// let mut audit = AuditDriver::new(KvStore);
/// let a = sys.submit(client, KvOp::put("k", "v"), &[], false);
/// let _b = sys.submit(client, KvOp::get("k"), &[a], true);
/// while !sys.is_converged() {
///     let (_, report) = sys.step_one().expect("events pending");
///     audit.observe(&report).expect("audit green");
///     audit.sync_watermark(&sys).expect("audit green");
/// }
/// audit.sync_watermark(&sys).expect("audit green");
/// let cert = audit.finish().expect("trace fully explained");
/// assert_eq!(cert.ops, 2);
/// ```
#[derive(Clone, Debug)]
pub struct AuditDriver<T: SerialDataType> {
    checker: StreamingChecker<T>,
}

impl<T: SerialDataType> AuditDriver<T> {
    /// A driver with the checker's default configuration.
    pub fn new(dt: T) -> Self {
        AuditDriver {
            checker: StreamingChecker::new(dt),
        }
    }

    /// Feeds one step's externally-visible actions: new requests, then
    /// computed responses (with witnesses when the replicas record
    /// them).
    ///
    /// # Errors
    ///
    /// The first [`AuditViolation`], which latches the checker red.
    pub fn observe(&mut self, report: &StepReport<T::Operator, T::Value>) -> AuditResult {
        for desc in &report.new_requests {
            self.checker.on_request(desc.clone())?;
        }
        for (id, value, witness) in &report.responses_computed {
            self.checker
                .on_response(*id, value.clone(), witness.clone())?;
        }
        Ok(())
    }

    /// Feeds the system's watermark: every operation whose
    /// eventual-order position has become final
    /// ([`SimSystem::final_prefix`] — the minimum-label order truncated
    /// just past the last stable-everywhere operation) becomes a
    /// `Stabilize` event, in order. The truncated prefix is gap-free:
    /// it includes tentative operations interleaved before the fence,
    /// whose positions are already final even though their stability
    /// *knowledge* has not completed. While a replica is crashed the
    /// prefix is unobservable and this is a no-op; estimates a recovering
    /// replica skews are skipped by
    /// [`StreamingChecker::on_final_prefix`].
    ///
    /// # Errors
    ///
    /// The first [`AuditViolation`], which latches the checker red.
    pub fn sync_watermark(&mut self, sys: &SimSystem<T>) -> AuditResult
    where
        T: Clone,
    {
        match sys.final_prefix() {
            Some(prefix) => self.checker.on_final_prefix(&prefix),
            None => Ok(()),
        }
    }

    /// Ends the stream: every requested operation must have stabilized.
    /// Returns the audit certificate.
    ///
    /// # Errors
    ///
    /// A latched violation or incomplete eventual-order coverage.
    pub fn finish(&self) -> Result<esds_spec::AuditCertificate, AuditViolation> {
        self.checker.finish()
    }

    /// The checker's current status (counters, watermark lag, peak
    /// resident window).
    pub fn status(&self) -> AuditStatus {
        self.checker.status()
    }

    /// The underlying checker.
    pub fn checker(&self) -> &StreamingChecker<T> {
        &self.checker
    }
}
