//! Streaming audit of a **sharded wire deployment**: one
//! [`StreamingChecker`] per shard, composed over `ShardedOpId` streams
//! exactly the way the per-shard batch conformance tests compose — each
//! shard's externally-visible trace (shard-local descriptors, values,
//! witnesses) is explainable by its own ESDS instance, incrementally
//! and with bounded memory.
//!
//! The `Stabilize` feed comes from
//! [`ShardedWireService::stable_watermark`]: the shard's label order
//! truncated just past the last operation known stable everywhere.
//! That prefix is final and gap-free, so polling it late only delays
//! retirement — it never unsounds the audit.

use std::time::Duration;

use esds_core::{KeyedDataType, OpDescriptor, OpId, SerialDataType};
use esds_spec::{AuditCertificate, AuditConfig, AuditResult, AuditStatus, StreamingChecker};

use crate::codec::Wire;
use crate::sharded::ShardedWireService;

/// Per-shard streaming checkers for a sharded wire deployment.
///
/// Feed it from the client side ([`observe_request`] at submit,
/// [`observe_response`] when a value arrives — both in shard-local
/// ids, as [`ShardedWireClient::local_descriptor`] and
/// [`ShardedWireClient::witness_of`] report them) and poll
/// [`sync_watermarks`] to retire verified operations.
///
/// [`observe_request`]: ShardedWireAuditor::observe_request
/// [`observe_response`]: ShardedWireAuditor::observe_response
/// [`sync_watermarks`]: ShardedWireAuditor::sync_watermarks
/// [`ShardedWireClient::local_descriptor`]: crate::ShardedWireClient::local_descriptor
/// [`ShardedWireClient::witness_of`]: crate::ShardedWireClient::witness_of
#[derive(Clone, Debug)]
pub struct ShardedWireAuditor<T: SerialDataType> {
    checkers: Vec<StreamingChecker<T>>,
}

/// A violation tagged with the shard whose audit found it.
pub type ShardViolation = (u32, esds_spec::AuditViolation);

impl<T: SerialDataType + Clone> ShardedWireAuditor<T> {
    /// One default-configured checker per shard.
    pub fn new(dt: T, n_shards: u32) -> Self {
        Self::with_config(dt, n_shards, AuditConfig::default())
    }

    /// One checker per shard with an explicit configuration.
    pub fn with_config(dt: T, n_shards: u32, cfg: AuditConfig) -> Self {
        ShardedWireAuditor {
            checkers: (0..n_shards)
                .map(|_| StreamingChecker::with_config(dt.clone(), cfg))
                .collect(),
        }
    }

    /// Folds a request (shard-local descriptor) into its shard's audit.
    ///
    /// # Errors
    ///
    /// The first violation, latched in that shard's checker.
    pub fn observe_request(&mut self, shard: u32, desc: OpDescriptor<T::Operator>) -> AuditResult {
        self.checkers[shard as usize].on_request(desc)
    }

    /// Folds a response (shard-local id and witness) into its shard's
    /// audit.
    ///
    /// # Errors
    ///
    /// The first violation, latched in that shard's checker.
    pub fn observe_response(
        &mut self,
        shard: u32,
        id: OpId,
        value: T::Value,
        witness: Option<Vec<OpId>>,
    ) -> AuditResult {
        self.checkers[shard as usize].on_response(id, value, witness)
    }

    /// The per-shard audit statuses.
    pub fn statuses(&self) -> Vec<AuditStatus> {
        self.checkers.iter().map(|c| c.status()).collect()
    }

    /// One shard's checker (status, violation, certificate).
    pub fn checker(&self, shard: u32) -> &StreamingChecker<T> {
        &self.checkers[shard as usize]
    }

    /// Ends every shard's stream: each must have full eventual-order
    /// coverage. Returns one certificate per shard.
    ///
    /// # Errors
    ///
    /// The first failing shard's violation, tagged with its shard.
    pub fn finish(&self) -> Result<Vec<AuditCertificate>, ShardViolation> {
        self.checkers
            .iter()
            .enumerate()
            .map(|(s, c)| c.finish().map_err(|v| (s as u32, v)))
            .collect()
    }
}

impl<T> ShardedWireAuditor<T>
where
    T: KeyedDataType + Clone + Send + 'static,
    T::Operator: Wire + Send + Clone,
    T::Value: Wire + Send + Clone,
    T::State: Send,
{
    /// Polls every shard's stable watermark off the live deployment and
    /// feeds it to that shard's checker
    /// ([`StreamingChecker::on_final_prefix`]). Shards that cannot answer
    /// within `timeout` are skipped this round (the watermark is final;
    /// the next poll feeds the missed suffix).
    ///
    /// # Errors
    ///
    /// The first violation, tagged with its shard.
    pub fn sync_watermarks(
        &mut self,
        svc: &ShardedWireService<T>,
        timeout: Duration,
    ) -> Result<(), ShardViolation> {
        for (shard, checker) in self.checkers.iter_mut().enumerate() {
            if let Some(watermark) = svc.stable_watermark(shard as u32, timeout) {
                checker
                    .on_final_prefix(&watermark)
                    .map_err(|v| (shard as u32, v))?;
            }
        }
        Ok(())
    }
}
