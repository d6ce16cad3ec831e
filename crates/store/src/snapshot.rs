//! State snapshots at the stable fence.
//!
//! A snapshot *is* the prefix of an [`esds_alg::RestoreImage`] cut by
//! [`esds_alg::Replica::image`]: per op its frozen label, fixed value
//! (Lemma 10.2), and stability flags, plus the memoized state and the
//! label-counter floor. The image's suffix is not in the snapshot file;
//! the checkpoint writes it as the next log generation. Because the memo
//! prefix is final, cutting a snapshot needs no coordination with the
//! gossip path — it is a pure read of the replica.
//!
//! On disk: an 8-byte magic followed by one checksummed frame (same
//! framing as the log). A snapshot file cut short by a crash decodes to
//! `Ok(None)` — recovery falls back to the previous generation — while a
//! complete frame that fails verification is [`StoreError::Corrupt`].

use esds_core::{ReplicaId, SerialDataType};
use esds_wire::codec::{get_varint, put_varint};
use esds_wire::{Wire, WireError};

use esds_alg::{PrefixEntry, RestoreImage};
use esds_core::{Label, OpId};

use crate::storage::{corrupt, StoreError};
use crate::wal::{frame_into, scan_frames};

pub(crate) const SNAP_MAGIC: &[u8; 8] = b"ESDSSNP1";

/// A durable image of one replica's memo prefix.
pub struct Snapshot<T: SerialDataType> {
    /// Cluster size the replica was configured with.
    pub n: u64,
    /// The image; only its prefix half (identity, label-counter floor,
    /// prefix, state) is written, and a decoded one has an empty suffix.
    pub image: RestoreImage<T>,
}

fn wire_corrupt(file: &str, what: &str, e: WireError) -> StoreError {
    corrupt(file, 0, format!("bad snapshot {what}: {e}"))
}

impl<T> Snapshot<T>
where
    T: SerialDataType,
    T::Value: Wire,
    T::State: Wire,
{
    /// The full on-disk bytes of this snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let img = &self.image;
        let mut payload = Vec::new();
        img.id.encode(&mut payload);
        put_varint(&mut payload, self.n);
        put_varint(&mut payload, img.next_counter);
        put_varint(&mut payload, img.prefix.len() as u64);
        for e in &img.prefix {
            e.id.encode(&mut payload);
            e.label.encode(&mut payload);
            e.value.encode(&mut payload);
            e.stable_here.encode(&mut payload);
            e.stable_everywhere.encode(&mut payload);
        }
        img.state.encode(&mut payload);
        let mut out = Vec::with_capacity(payload.len() + SNAP_MAGIC.len() + 12);
        out.extend_from_slice(SNAP_MAGIC);
        frame_into(&mut out, &payload);
        out
    }

    /// Decodes an on-disk snapshot. `Ok(None)` means the file is torn
    /// (cut short mid-write) and an older generation should be used;
    /// [`StoreError::Corrupt`] means the bytes are complete but wrong.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on checksum or decode failure.
    pub fn decode(file: &str, bytes: &[u8]) -> Result<Option<Self>, StoreError> {
        if bytes.len() < SNAP_MAGIC.len() {
            return Ok(None); // torn before the magic completed
        }
        if &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(corrupt(file, 0, "bad snapshot magic"));
        }
        let scan = scan_frames(file, &bytes[SNAP_MAGIC.len()..])?;
        let payload = match scan.records.as_slice() {
            [] => return Ok(None), // torn mid-frame
            [p] if scan.torn_bytes == 0 => *p,
            _ => {
                return Err(corrupt(
                    file,
                    SNAP_MAGIC.len(),
                    "snapshot must contain exactly one record",
                ))
            }
        };
        let mut buf = payload;
        let replica =
            ReplicaId::decode(&mut buf).map_err(|e| wire_corrupt(file, "replica id", e))?;
        let n = get_varint(&mut buf).map_err(|e| wire_corrupt(file, "cluster size", e))?;
        let next_counter =
            get_varint(&mut buf).map_err(|e| wire_corrupt(file, "label counter", e))?;
        let len = get_varint(&mut buf).map_err(|e| wire_corrupt(file, "prefix length", e))?;
        let mut prefix = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            let id = OpId::decode(&mut buf).map_err(|e| wire_corrupt(file, "prefix id", e))?;
            let label =
                Label::decode(&mut buf).map_err(|e| wire_corrupt(file, "prefix label", e))?;
            let value =
                T::Value::decode(&mut buf).map_err(|e| wire_corrupt(file, "prefix value", e))?;
            let stable_here =
                bool::decode(&mut buf).map_err(|e| wire_corrupt(file, "stability flag", e))?;
            let stable_everywhere =
                bool::decode(&mut buf).map_err(|e| wire_corrupt(file, "stability flag", e))?;
            prefix.push(PrefixEntry {
                id,
                label,
                value,
                stable_here,
                stable_everywhere,
            });
        }
        let state = T::State::decode(&mut buf).map_err(|e| wire_corrupt(file, "state", e))?;
        if !buf.is_empty() {
            return Err(corrupt(
                file,
                0,
                format!("{} trailing bytes after snapshot", buf.len()),
            ));
        }
        Ok(Some(Snapshot {
            n,
            image: RestoreImage {
                id: replica,
                next_counter,
                prefix,
                state,
                suffix_rcvd: Vec::new(),
                suffix_labels: Vec::new(),
            },
        }))
    }
}
