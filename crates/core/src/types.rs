//! Shared vocabulary of the consensus protocols: blocks, ordered outputs,
//! configuration and per-process metrics.

use asym_dag::{Round, VertexId, WaveId};

/// An opaque transaction identifier (simulation-level payload).
pub type Tx = u64;

/// A block of transactions carried by one DAG vertex.
///
/// `aa-broadcast` enqueues blocks; each new vertex packs the oldest queued
/// block (or an empty one, see [`RiderConfig::allow_empty_blocks`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Block {
    /// The transactions in this block.
    pub txs: Vec<Tx>,
}

impl Block {
    /// Creates a block from transactions.
    pub fn new(txs: Vec<Tx>) -> Self {
        Block { txs }
    }

    /// `true` for filler blocks with no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

impl Block {
    /// Canonical byte encoding (little-endian transaction ids), for
    /// content digests.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Block::encode`]'s bytes to `out`: grown once, then filled
    /// in fixed 8-byte chunks (no capacity check per transaction).
    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + 8 * self.txs.len(), 0);
        for (chunk, tx) in out[start..].chunks_exact_mut(8).zip(&self.txs) {
            chunk.copy_from_slice(&tx.to_le_bytes());
        }
    }
}

impl asym_storage::BlockCodec for Block {
    fn encode_block(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        8 * self.txs.len()
    }

    fn decode_block(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut txs = Vec::with_capacity(bytes.len() / 8);
        for chunk in bytes.chunks_exact(8) {
            txs.push(Tx::from_le_bytes(chunk.try_into().ok()?));
        }
        Some(Block { txs })
    }
}

/// One atomically delivered vertex: the unit of `aa-deliver`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderedVertex {
    /// Identity of the ordered vertex.
    pub id: VertexId,
    /// The block it carried.
    pub block: Block,
    /// The wave whose leader commit ordered this vertex.
    pub committed_in_wave: WaveId,
}

/// Configuration shared by both DAG-Rider variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RiderConfig {
    /// Number of waves after which the process stops creating vertices
    /// (bounds a simulation; the protocol itself is infinite).
    pub max_waves: WaveId,
    /// Create empty filler blocks when no client block is queued. Disabling
    /// reproduces the paper's `wait until ¬blocksToPropose.empty()` (which
    /// can stall rounds).
    pub allow_empty_blocks: bool,
    /// Enable the CONFIRM-from-kernel amplification (asymmetric variant
    /// only; ignored by the symmetric baseline).
    pub kernel_amplification: bool,
    /// Garbage-collect the delivered prefix at every WAL snapshot: vertices
    /// of waves below the decided wave that were already delivered are
    /// dropped from the local DAG and from subsequent snapshots (bounding
    /// both), leaving a [`Pruned`](asym_storage::DagEvent::Pruned) marker
    /// so replay tolerates the missing ancestry. Off by default: pruning
    /// changes which old vertices are visible to `setWeakEdges`, so two
    /// runs differing only in snapshot cadence are no longer bit-identical.
    pub prune_wal: bool,
}

impl Default for RiderConfig {
    fn default() -> Self {
        RiderConfig {
            max_waves: 8,
            allow_empty_blocks: true,
            kernel_amplification: true,
            prune_wal: false,
        }
    }
}

impl RiderConfig {
    /// The last round this configuration allows: one past the final wave
    /// boundary, so the final `waveReady` still fires.
    pub fn max_round(&self) -> Round {
        4 * self.max_waves + 1
    }
}

/// Per-process execution counters, used by the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RiderMetrics {
    /// Highest round this process has entered.
    pub round: Round,
    /// Wave boundaries at which a commit was attempted.
    pub waves_attempted: u64,
    /// Waves committed directly at their boundary.
    pub waves_committed: u64,
    /// Waves skipped because the leader vertex was absent locally.
    pub waves_skipped_no_leader: u64,
    /// Waves skipped because the commit rule was not met.
    pub waves_skipped_rule: u64,
    /// Vertices atomically delivered.
    pub vertices_ordered: u64,
    /// Transactions atomically delivered.
    pub txs_ordered: u64,
    /// Vertices created and broadcast by this process.
    pub vertices_created: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_basics() {
        assert!(Block::default().is_empty());
        let b = Block::new(vec![1, 2, 3]);
        assert!(!b.is_empty());
        assert_eq!(b.txs.len(), 3);
    }

    #[test]
    fn config_max_round_covers_final_wave() {
        let c = RiderConfig { max_waves: 3, ..RiderConfig::default() };
        assert_eq!(c.max_round(), 13);
        assert!(asym_dag::is_wave_boundary(c.max_round() - 1));
    }
}
