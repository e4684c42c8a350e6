//! The snapshot writer: compacts a process's consensus state into framed
//! records straight from borrowed state.
//!
//! This is the single definition of the snapshot layout (documented on
//! [`RecoveredState::compact_into`](crate::RecoveredState::compact_into)).
//! Every record is framed exactly as the log frames it, so replay reads
//! snapshot and log with one codec.
//!
//! The writer sizes the blob first and then encodes every record in place:
//! no vertex or block is cloned and no record gets a buffer of its own.
//! Checksums of the records that carry a block (`VertexInserted`,
//! `DeliveredBlock`) come from a [`ChecksumMemo`], so each is computed once
//! in the record's life rather than once per snapshot.

use std::collections::HashMap;

use asym_dag::{DagStore, VertexId, WaveId};

use crate::event::{
    delivered_block_payload_len, encode_delivered_block, encode_vertex, vertex_payload_len,
    BlockCodec, DagEvent, CONFIRMED_PAYLOAD_LEN, DECIDED_PAYLOAD_LEN, DELIVERED_PAYLOAD_LEN,
    PRUNED_PAYLOAD_LEN,
};
use crate::wal::{checksum, frame_in_place, RECORD_HEADER_BYTES};

/// The records whose checksum is memoized, identified by kind and vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum MemoKey {
    /// The `VertexInserted` record of this vertex.
    Vertex(VertexId),
    /// The `DeliveredBlock` residue record of this vertex.
    Residue(VertexId),
}

/// Checksums of block-carrying records, keyed by [`MemoKey`].
///
/// A keyed record's bytes are a function of its key for as long as it stays
/// in consecutive snapshots: an honest DAG stores one vertex per id, and a
/// residue block never changes. An entry lives only while its record does —
/// every snapshot stamps the entries it uses and evicts the rest, so a
/// record that left a snapshot (its vertex was pruned, say) is checksummed
/// afresh if its key ever returns. Appends record their checksums too, so a
/// vertex logged before the next snapshot is never checksummed again. The
/// memo is volatile: a crash loses it (see
/// [`EventLog::powerloss`](crate::EventLog::powerloss)).
#[derive(Clone, Debug, Default)]
pub(crate) struct ChecksumMemo {
    entries: HashMap<MemoKey, (u64, u64)>,
    /// Number of snapshots written; an entry's stamp says which one last
    /// used it.
    generation: u64,
}

impl ChecksumMemo {
    /// Records the checksum of a record that was just appended.
    pub(crate) fn note(&mut self, key: MemoKey, sum: u64) {
        self.entries.insert(key, (sum, self.generation));
    }

    /// The checksum of `payload`, the record named by `key`: memoized, or
    /// computed once and remembered. Stamps the entry as used.
    fn checksum(&mut self, key: MemoKey, payload: &[u8]) -> u64 {
        let generation = self.generation;
        let entry = self.entries.entry(key).or_insert_with(|| (checksum(payload), generation));
        entry.1 = generation;
        entry.0
    }

    /// Drops every entry: nothing in memory survives a crash.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of memoized checksums.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = MemoKey> + '_ {
        self.entries.keys().copied()
    }

    #[cfg(test)]
    pub(crate) fn poison(&mut self, key: MemoKey) {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.0 ^= 1;
        }
    }
}

/// Frames a fixed-size record (no block, so no memo entry).
fn frame_plain<B: BlockCodec>(blob: &mut Vec<u8>, event: &DagEvent<B>) {
    frame_in_place(blob, |out| event.encode_into(out), checksum);
}

/// Appends the snapshot of the given state to `blob` as framed records,
/// reserving its exact size first.
/// `residue` may include blocks of vertices the DAG still stores; those
/// ride inside their `VertexInserted` record and are skipped here.
pub(crate) fn write_snapshot<'a, B: BlockCodec + 'a>(
    memo: &mut ChecksumMemo,
    blob: &mut Vec<u8>,
    dag: &DagStore<B>,
    confirmed_waves: impl IntoIterator<Item = WaveId>,
    commit_log: &[(WaveId, VertexId)],
    delivered: impl IntoIterator<Item = (VertexId, WaveId)>,
    residue: impl IntoIterator<Item = (VertexId, &'a B)>,
) {
    let floor = dag.pruned_floor();
    let max_round = dag.max_round().unwrap_or(0);
    let vertices = || (1..=max_round).flat_map(|r| dag.vertices_in_round(r));
    let mut confirmed: Vec<WaveId> = confirmed_waves.into_iter().collect();
    confirmed.sort_unstable();
    let mut delivered: Vec<(VertexId, WaveId)> = delivered.into_iter().collect();
    delivered.sort_unstable_by_key(|(id, _)| *id);
    let mut residue: Vec<(VertexId, &B)> =
        residue.into_iter().filter(|(id, _)| !dag.contains(*id)).collect();
    residue.sort_unstable_by_key(|(id, _)| *id);

    let fixed = |count: usize, payload: usize| count * (RECORD_HEADER_BYTES + payload);
    let size = fixed(usize::from(floor > 0), PRUNED_PAYLOAD_LEN)
        + vertices().map(|v| RECORD_HEADER_BYTES + vertex_payload_len(v)).sum::<usize>()
        + fixed(confirmed.len(), CONFIRMED_PAYLOAD_LEN)
        + fixed(commit_log.len(), DECIDED_PAYLOAD_LEN)
        + fixed(delivered.len(), DELIVERED_PAYLOAD_LEN)
        + residue
            .iter()
            .map(|(_, b)| RECORD_HEADER_BYTES + delivered_block_payload_len(*b))
            .sum::<usize>();
    let start = blob.len();
    blob.reserve_exact(size);

    memo.generation += 1;
    if floor > 0 {
        frame_plain::<B>(blob, &DagEvent::Pruned { up_to_round: floor });
    }
    for v in vertices() {
        frame_in_place(
            blob,
            |out| encode_vertex(v, out),
            |p| memo.checksum(MemoKey::Vertex(v.id()), p),
        );
    }
    for wave in confirmed {
        frame_plain::<B>(blob, &DagEvent::WaveConfirmed { wave });
    }
    for &(wave, leader) in commit_log {
        frame_plain::<B>(blob, &DagEvent::WaveDecided { wave, leader });
    }
    for (id, wave) in delivered {
        frame_plain::<B>(blob, &DagEvent::BlockDelivered { id, wave });
    }
    for (id, block) in residue {
        frame_in_place(
            blob,
            |out| encode_delivered_block(id, block, out),
            |p| memo.checksum(MemoKey::Residue(id), p),
        );
    }
    let generation = memo.generation;
    memo.entries.retain(|_, (_, used)| *used == generation);
    debug_assert_eq!(blob.len() - start, size, "snapshot size estimate is exact");
}
