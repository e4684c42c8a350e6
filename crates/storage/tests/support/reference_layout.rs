//! Reference encoding of the snapshot layout: the straightforward
//! "materialize every event, encode each into its own buffer, frame each"
//! path, kept as a test oracle for the in-place snapshot writer. Shared by
//! `crates/storage/tests/snapshot_layout.rs` and the root package's
//! `tests/snapshot_layout_cells.rs`.

use asym_dag::{DagStore, VertexId, WaveId};
use asym_storage::{checksum, BlockCodec, DagEvent};

/// The canonical snapshot event sequence: the pruning marker (if any),
/// vertices in `(round, source)` order, confirmed waves sorted, the commit
/// log in order, the delivered set sorted by id, then the block residue of
/// delivered vertices absent from the DAG, sorted by id.
pub fn snapshot_events<B: Clone>(
    dag: &DagStore<B>,
    confirmed_waves: impl IntoIterator<Item = WaveId>,
    commit_log: &[(WaveId, VertexId)],
    delivered: impl IntoIterator<Item = (VertexId, WaveId)>,
    delivered_blocks: impl IntoIterator<Item = (VertexId, B)>,
) -> Vec<DagEvent<B>> {
    let mut events = Vec::new();
    if dag.pruned_floor() > 0 {
        events.push(DagEvent::Pruned { up_to_round: dag.pruned_floor() });
    }
    for r in 1..=dag.max_round().unwrap_or(0) {
        for v in dag.vertices_in_round(r) {
            events.push(DagEvent::VertexInserted(v.clone()));
        }
    }
    let mut confirmed: Vec<WaveId> = confirmed_waves.into_iter().collect();
    confirmed.sort_unstable();
    for wave in confirmed {
        events.push(DagEvent::WaveConfirmed { wave });
    }
    for (wave, leader) in commit_log {
        events.push(DagEvent::WaveDecided { wave: *wave, leader: *leader });
    }
    let mut delivered: Vec<(VertexId, WaveId)> = delivered.into_iter().collect();
    delivered.sort_unstable_by_key(|(id, _)| *id);
    for (id, wave) in delivered {
        events.push(DagEvent::BlockDelivered { id, wave });
    }
    let mut residue: Vec<(VertexId, B)> =
        delivered_blocks.into_iter().filter(|(id, _)| !dag.contains(*id)).collect();
    residue.sort_unstable_by_key(|(id, _)| *id);
    for (id, block) in residue {
        events.push(DagEvent::DeliveredBlock { id, block });
    }
    events
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vid(out: &mut Vec<u8>, id: VertexId) {
    put_u64(out, id.round);
    put_u64(out, id.source.index() as u64);
}

/// One event's payload, each block encoded into a temporary first to learn
/// its length.
pub fn encode<B: BlockCodec>(event: &DagEvent<B>) -> Vec<u8> {
    let mut out = Vec::new();
    match event {
        DagEvent::VertexInserted(v) => {
            out.push(1);
            put_u64(&mut out, v.source().index() as u64);
            put_u64(&mut out, v.round());
            put_u64(&mut out, v.strong_edges().len() as u64);
            for p in v.strong_edges() {
                put_u64(&mut out, p.index() as u64);
            }
            put_u64(&mut out, v.weak_edges().len() as u64);
            for w in v.weak_edges() {
                put_vid(&mut out, *w);
            }
            let mut block = Vec::new();
            v.block().encode_block(&mut block);
            put_u64(&mut out, block.len() as u64);
            out.extend_from_slice(&block);
        }
        DagEvent::WaveConfirmed { wave } => {
            out.push(2);
            put_u64(&mut out, *wave);
        }
        DagEvent::WaveDecided { wave, leader } => {
            out.push(3);
            put_u64(&mut out, *wave);
            put_vid(&mut out, *leader);
        }
        DagEvent::BlockDelivered { id, wave } => {
            out.push(4);
            put_vid(&mut out, *id);
            put_u64(&mut out, *wave);
        }
        DagEvent::Pruned { up_to_round } => {
            out.push(5);
            put_u64(&mut out, *up_to_round);
        }
        DagEvent::DeliveredBlock { id, block } => {
            out.push(6);
            put_vid(&mut out, *id);
            let mut bytes = Vec::new();
            block.encode_block(&mut bytes);
            put_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(&bytes);
        }
    }
    out
}

/// Frames one payload: `u32` length, FNV-1a-64 checksum, payload.
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The reference snapshot blob of the given state.
pub fn reference_blob<B: BlockCodec + Clone>(
    dag: &DagStore<B>,
    confirmed_waves: impl IntoIterator<Item = WaveId>,
    commit_log: &[(WaveId, VertexId)],
    delivered: impl IntoIterator<Item = (VertexId, WaveId)>,
    delivered_blocks: impl IntoIterator<Item = (VertexId, B)>,
) -> Vec<u8> {
    let mut blob = Vec::new();
    for event in snapshot_events(dag, confirmed_waves, commit_log, delivered, delivered_blocks) {
        frame_record(&encode(&event), &mut blob);
    }
    blob
}
