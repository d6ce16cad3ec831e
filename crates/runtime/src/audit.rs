//! The runtime **audit sidecar**: continuous, live verification of a
//! running [`RuntimeService`](crate::RuntimeService) against the
//! paper's behavioural theorems, as a product feature.
//!
//! Two halves share one [`StreamingChecker`] behind an [`AuditTap`]:
//!
//! * clients created with
//!   [`RuntimeService::client_with_audit`](crate::RuntimeService::client_with_audit)
//!   fold their externally-visible trace (requests, first-delivery
//!   responses with witnesses) into the tap inline;
//! * an [`AuditSidecar`] thread polls replica snapshots through an
//!   [`InspectHandle`](crate::InspectHandle), computes the final
//!   watermark (the label order truncated at the stable-everywhere
//!   fence), and feeds it into the tap as `Stabilize` events — retiring
//!   verified operations so the checker's memory tracks the unstable
//!   frontier, not history.
//!
//! The tap never panics the service: violations latch the checker red
//! and surface through [`AuditTap::status`] / [`AuditTap::violation`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use esds_core::{OpDescriptor, OpId, SerialDataType};
use esds_spec::{
    final_prefix, AuditCertificate, AuditConfig, AuditStatus, AuditViolation, StreamingChecker,
};
use parking_lot::Mutex;

use crate::service::InspectHandle;

/// A cloneable, thread-safe handle to one shared [`StreamingChecker`].
/// Clients and the sidecar feed it concurrently; the checker's
/// event-at-a-time API makes each feed atomic under the lock.
pub struct AuditTap<T: SerialDataType> {
    checker: Arc<Mutex<StreamingChecker<T>>>,
}

impl<T: SerialDataType> Clone for AuditTap<T> {
    fn clone(&self) -> Self {
        AuditTap {
            checker: self.checker.clone(),
        }
    }
}

impl<T: SerialDataType> AuditTap<T> {
    /// A tap around a fresh checker with default configuration.
    pub fn new(dt: T) -> Self {
        Self::with_config(dt, AuditConfig::default())
    }

    /// A tap around a fresh checker with an explicit configuration
    /// (grace window, `check_all`).
    pub fn with_config(dt: T, cfg: AuditConfig) -> Self {
        AuditTap {
            checker: Arc::new(Mutex::new(StreamingChecker::with_config(dt, cfg))),
        }
    }

    /// Folds a request into the audit. Violations latch; the return is
    /// deliberately `()` so client hot paths never branch on it.
    pub fn tap_request(&self, desc: OpDescriptor<T::Operator>) {
        let _ = self.checker.lock().on_request(desc);
    }

    /// Folds a response (with witness, when recorded) into the audit.
    pub fn tap_response(&self, id: OpId, value: T::Value, witness: Option<Vec<OpId>>) {
        let _ = self.checker.lock().on_response(id, value, witness);
    }

    /// The live audit status: ops verified, watermark lag, peak
    /// resident window, failure latch.
    pub fn status(&self) -> AuditStatus {
        self.checker.lock().status()
    }

    /// The latched violation, if the audit has failed.
    pub fn violation(&self) -> Option<AuditViolation> {
        self.checker.lock().violation().cloned()
    }

    /// Ends the stream: checks that the eventual order covered every
    /// request and returns the final certificate.
    ///
    /// # Errors
    ///
    /// A latched violation or incomplete coverage.
    pub fn finish(&self) -> Result<AuditCertificate, AuditViolation> {
        self.checker.lock().finish()
    }
}

/// The background half of the audit: a thread that polls a replica
/// snapshot, truncates its label order at the stable-everywhere fence,
/// and feeds newly-final eventual-order positions to the shared tap.
///
/// Stop it with [`AuditSidecar::stop`] *before* shutting the service
/// down; dropping it also stops the thread.
pub struct AuditSidecar<T: SerialDataType> {
    tap: AuditTap<T>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl<T> AuditSidecar<T>
where
    T: SerialDataType + Send + 'static,
    T::Operator: Send,
    T::Value: Send,
    T::State: Send,
{
    /// Attaches a sidecar to the service behind `handle`, polling every
    /// `interval`. The tap is shared with (clones handed to) the
    /// service's audited clients.
    pub fn attach(handle: InspectHandle<T>, tap: AuditTap<T>, interval: Duration) -> Self {
        Self::attach_with_obs(
            handle,
            tap,
            interval,
            esds_obs::MetricsRegistry::disabled().scoped("audit"),
        )
    }

    /// Like [`AuditSidecar::attach`], additionally publishing the
    /// checker's [`AuditStatus`] as gauges under `scope` on every poll:
    /// `watermark_lag` (requests not yet retired — the unstable window
    /// the checker's memory is proportional to), `resident`,
    /// `peak_resident`, and `stabilized`.
    pub fn attach_with_obs(
        handle: InspectHandle<T>,
        tap: AuditTap<T>,
        interval: Duration,
        scope: esds_obs::Scope,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let tap2 = tap.clone();
        let g_lag = scope.gauge("watermark_lag");
        let g_resident = scope.gauge("resident");
        let g_peak = scope.gauge("peak_resident");
        let g_stabilized = scope.gauge("stabilized");
        let obs_enabled = scope.is_enabled();
        let thread = std::thread::Builder::new()
            .name("esds-audit".into())
            .spawn(move || {
                let publish = |tap: &AuditTap<T>| {
                    if obs_enabled {
                        let st = tap.status();
                        g_lag.set(st.lag());
                        g_resident.set(st.resident as u64);
                        g_peak.set(st.peak_resident as u64);
                        g_stabilized.set(st.stabilized);
                    }
                };
                while !stop2.load(Ordering::Relaxed) {
                    if Self::sync(&handle, &tap2).is_none() {
                        return; // service shut down
                    }
                    publish(&tap2);
                    std::thread::sleep(interval);
                }
                // One final sync so a stop() after client quiescence
                // observes the complete watermark.
                let _ = Self::sync(&handle, &tap2);
                publish(&tap2);
            })
            .expect("spawn audit sidecar");
        AuditSidecar {
            tap,
            stop,
            thread: Some(thread),
        }
    }

    /// One watermark poll: the first replica's label order truncated
    /// just past the last operation it knows is stable everywhere
    /// ([`esds_spec::final_prefix`]), fed through
    /// [`StreamingChecker::on_final_prefix`]. `None` once the service is
    /// gone.
    fn sync(handle: &InspectHandle<T>, tap: &AuditTap<T>) -> Option<()> {
        let snap = handle.snapshot(0)?;
        let watermark = final_prefix(snap.order, |id| snap.stable_everywhere.contains(&id));
        let _ = tap.checker.lock().on_final_prefix(&watermark);
        Some(())
    }

    /// The shared tap (for status polls while running).
    pub fn tap(&self) -> &AuditTap<T> {
        &self.tap
    }

    /// Stops the polling thread after one final watermark sync and
    /// returns the tap for final certification.
    pub fn stop(mut self) -> AuditTap<T> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
        self.tap.clone()
    }
}

impl<T: SerialDataType> Drop for AuditSidecar<T> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RuntimeConfig, RuntimeService};
    use esds_datatypes::{Counter, CounterOp, CounterValue};
    use std::time::Instant;

    #[test]
    fn sidecar_audits_live_service() {
        let mut cfg = RuntimeConfig::new(2);
        cfg.replica = esds_alg::ReplicaConfig::default().with_witness();
        cfg.gossip_interval = Duration::from_millis(5);
        let mut svc = RuntimeService::start(Counter, cfg);
        let tap = AuditTap::new(Counter);
        let sidecar =
            AuditSidecar::attach(svc.inspect_handle(), tap.clone(), Duration::from_millis(5));
        let mut client = svc.client_with_audit(tap.clone());

        let mut ids = Vec::new();
        for i in 0..10i64 {
            let id = client.submit(
                CounterOp::Increment(i),
                &ids.last().copied().into_iter().collect::<Vec<_>>(),
                false,
            );
            assert!(client.await_response(id, Duration::from_secs(30)).is_some());
            ids.push(id);
        }
        // A strict read fenced after everything: answered only once it
        // is stable everywhere, with the eventual value.
        let fence = client.submit(CounterOp::Read, &ids, true);
        assert_eq!(
            client.await_response(fence, Duration::from_secs(60)),
            Some(CounterValue::Count(45))
        );
        // The watermark trails stability knowledge; wait (bounded) for
        // the sidecar to observe the whole eventual order.
        let deadline = Instant::now() + Duration::from_secs(30);
        while tap.status().stabilized < 11 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let tap = sidecar.stop();
        let cert = tap.finish().unwrap_or_else(|v| panic!("audit red: {v}"));
        assert_eq!(cert.ops, 11);
        let st = tap.status();
        assert!(st.witnesses_checked >= 1, "{st}");
        assert_eq!(st.retired, 11, "everything answered + stable retires");
        assert_eq!(st.resident, 0, "{st}");
        assert!(!st.failed);
        svc.shutdown();
    }

    #[test]
    fn tap_latches_violations_without_panicking_clients() {
        let tap = AuditTap::new(Counter);
        // A response for an op nobody requested: red.
        tap.tap_response(
            esds_core::OpId::new(esds_core::ClientId(0), 0),
            CounterValue::Ack,
            None,
        );
        assert!(tap.status().failed);
        let v = tap.violation().expect("latched");
        assert!(v.violation.detail.contains("unrequested"), "{v}");
        assert!(tap.finish().is_err());
    }
}
