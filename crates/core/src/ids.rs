//! Identifiers for clients, replicas, and operations.
//!
//! Section 6.2 of the paper assumes a static function `client : ℐ → C`
//! mapping operation identifiers to the client that issued them ("clients
//! encode their identity into the operation identifier"). [`OpId`] realizes
//! this by embedding the [`ClientId`] directly, together with a per-client
//! sequence number, which also gives the uniqueness required by
//! Invariant 4.1.

use std::fmt;

/// Identity of a client of the data service.
///
/// Clients issue operation descriptors through a front end and receive
/// responses; see the `Users` automaton (paper Fig. 1).
///
/// # Examples
///
/// ```
/// use esds_core::ClientId;
/// let c = ClientId(3);
/// assert_eq!(c.to_string(), "c3");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        ClientId(v)
    }
}

/// Identity of a replica maintaining a full copy of the data object.
///
/// The algorithm (paper Section 6) requires at least two replicas; replica
/// identities also parameterize the per-replica label sets 𝓛ᵣ (see
/// [`crate::Label`]).
///
/// # Examples
///
/// ```
/// use esds_core::ReplicaId;
/// assert_eq!(ReplicaId(0).to_string(), "r0");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

/// Unique identifier of a requested operation (an element of ℐ in the paper).
///
/// Identifiers must be unique across the execution (Invariant 4.1). The pair
/// (issuing client, per-client sequence number) guarantees this as long as
/// each client numbers its own requests consecutively, which the front end
/// enforces.
///
/// The total order on `OpId` (client-major, then sequence) is *not* the
/// eventual total order of the service — it is only used for deterministic
/// iteration of sets and maps.
///
/// # Examples
///
/// ```
/// use esds_core::{ClientId, OpId};
/// let id = OpId::new(ClientId(2), 7);
/// assert_eq!(id.client(), ClientId(2));
/// assert_eq!(id.seq(), 7);
/// assert_eq!(id.to_string(), "c2:7");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId {
    client: ClientId,
    seq: u64,
}

impl OpId {
    /// Creates an identifier for the `seq`-th operation of `client`.
    pub fn new(client: ClientId, seq: u64) -> Self {
        OpId { client, seq }
    }

    /// The static `client(·)` function of paper Section 6.2.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Per-client sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.client, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_uniqueness_by_components() {
        let a = OpId::new(ClientId(1), 0);
        let b = OpId::new(ClientId(1), 1);
        let c = OpId::new(ClientId(2), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, OpId::new(ClientId(1), 0));
    }

    #[test]
    fn op_id_order_is_client_major() {
        let a = OpId::new(ClientId(1), 99);
        let b = OpId::new(ClientId(2), 0);
        assert!(a < b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ClientId(5).to_string(), "c5");
        assert_eq!(ReplicaId(1).to_string(), "r1");
        assert_eq!(OpId::new(ClientId(0), 3).to_string(), "c0:3");
    }

    #[test]
    fn client_function_is_static() {
        // Section 6.2: client(x.id) is derivable from the id alone.
        let id = OpId::new(ClientId(9), 42);
        assert_eq!(id.client(), ClientId(9));
    }
}
