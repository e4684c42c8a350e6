//! The typed event log and the recovery protocol's first half: replaying a
//! WAL back into DAG-consensus state.
//!
//! [`EventLog`] is the handle a running process holds: it appends
//! [`DagEvent`]s, suggests when to compact, and installs snapshots (which
//! are themselves just compacted event sequences, framed like the log —
//! one codec, one replay path). [`RecoveredState::replay`] is what a
//! restarted process calls: it reads snapshot + log, drops a torn tail,
//! rejects corruption, and folds the surviving events into the DAG, the
//! delivered set, the commit log and the confirmed-wave set. Replay is
//! idempotent (duplicate events are skipped), so a crash between "write
//! snapshot" and "truncate log" still recovers.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use asym_dag::{DagError, DagStore, Round, Vertex, VertexId, WaveId};
use asym_quorum::ProcessId;

use crate::backend::{Storage, StorageError};
use crate::event::{encode_vertex, BlockCodec, DagEvent};
use crate::snapshot::{write_snapshot, ChecksumMemo, MemoKey};
use crate::wal::{Wal, WalStats};

/// A write-ahead log of [`DagEvent`]s over any [`Storage`] backend.
///
/// # Examples
///
/// ```
/// use asym_quorum::ProcessId;
/// use asym_storage::{DagEvent, EventLog, MemStorage};
///
/// let mut log: EventLog<Vec<u8>, MemStorage> = EventLog::new(MemStorage::new());
/// log.append(&DagEvent::WaveConfirmed { wave: 1 })?;
/// let state = log.replay(4, ProcessId::new(0), Vec::new())?;
/// assert!(state.confirmed_waves.contains(&1));
/// # Ok::<(), asym_storage::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EventLog<B, S> {
    wal: Wal<S>,
    /// Checksums of the block-carrying records, computed once per record.
    memo: ChecksumMemo,
    _block: PhantomData<fn() -> B>,
}

impl<B: BlockCodec + Clone, S: Storage> EventLog<B, S> {
    /// Wraps a backend (default snapshot cadence).
    pub fn new(backend: S) -> Self {
        EventLog { wal: Wal::new(backend), memo: ChecksumMemo::default(), _block: PhantomData }
    }

    /// Overrides the snapshot cadence (`0` disables suggestions).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.wal = self.wal.with_snapshot_every(every);
        self
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append(&mut self, event: &DagEvent<B>) -> Result<(), StorageError> {
        let sum = self.wal.append_with(|out| event.encode_into(out))?;
        match event {
            DagEvent::VertexInserted(v) => self.memo.note(MemoKey::Vertex(v.id()), sum),
            DagEvent::DeliveredBlock { id, .. } => self.memo.note(MemoKey::Residue(*id), sum),
            _ => {}
        }
        Ok(())
    }

    /// Appends [`DagEvent::VertexInserted`] for a borrowed vertex (the
    /// DAG keeps the vertex; nothing is cloned).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append_vertex(&mut self, v: &Vertex<B>) -> Result<(), StorageError> {
        let sum = self.wal.append_with(|out| encode_vertex(v, out))?;
        self.memo.note(MemoKey::Vertex(v.id()), sum);
        Ok(())
    }

    /// `true` once enough events accumulated that the owner should compact
    /// its full state into [`EventLog::install_snapshot`].
    pub fn should_snapshot(&self) -> bool {
        self.wal.should_snapshot()
    }

    /// Installs a snapshot of the owner's *entire* current state, because
    /// the log is truncated. The snapshot writer frames every record
    /// straight from the borrowed state into one blob (the layout is
    /// documented on [`RecoveredState::compact_into`]).
    ///
    /// * `dag` — every stored vertex, plus the pruning floor;
    /// * `confirmed_waves` — waves whose `tReady` milestone was reached,
    ///   any order;
    /// * `commit_log` — `(wave, leader)` in commit order;
    /// * `delivered` — every delivered id with the wave that ordered it,
    ///   any order;
    /// * `residue` — blocks of delivered vertices, any order; entries
    ///   whose vertex `dag` still stores are skipped.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the writes.
    pub fn install_snapshot<'a>(
        &mut self,
        dag: &DagStore<B>,
        confirmed_waves: impl IntoIterator<Item = WaveId>,
        commit_log: &[(WaveId, VertexId)],
        delivered: impl IntoIterator<Item = (VertexId, WaveId)>,
        residue: impl IntoIterator<Item = (VertexId, &'a B)>,
    ) -> Result<(), StorageError>
    where
        B: 'a,
    {
        let memo = &mut self.memo;
        self.wal.install_snapshot_with(|blob| {
            write_snapshot(memo, blob, dag, confirmed_waves, commit_log, delivered, residue);
        })
    }

    /// Decodes every persisted event, snapshot first, in append order.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on checksum mismatch, torn snapshot, or a
    /// checksummed-valid record that does not decode as an event.
    pub fn events(&self) -> Result<ReadEvents<B>, StorageError> {
        let contents = self.wal.read()?;
        let mut events = Vec::with_capacity(contents.len());
        for (i, record) in contents.all_records().enumerate() {
            events.push(DagEvent::decode(record).ok_or_else(|| StorageError::Corrupt {
                offset: i,
                detail: "checksummed record is not a valid DagEvent".into(),
            })?);
        }
        Ok(ReadEvents {
            from_snapshot: contents.snapshot.len(),
            torn_tail_bytes: contents.torn_tail_bytes,
            events,
        })
    }

    /// Replays the log into recovered state (see [`RecoveredState::replay`]).
    ///
    /// # Errors
    ///
    /// Propagates corruption and I/O errors from [`EventLog::events`].
    pub fn replay(
        &self,
        n: usize,
        me: ProcessId,
        genesis: B,
    ) -> Result<RecoveredState<B>, StorageError> {
        let read = self.events()?;
        RecoveredState::replay(&read, n, me, genesis)
    }

    /// WAL activity counters.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Size of every snapshot installed through this handle, in order.
    pub fn snapshot_sizes(&self) -> &[u64] {
        self.wal.snapshot_sizes()
    }

    /// Models the crash of the owning process: drops the in-memory
    /// checksum memo (nothing in memory survives a crash), then applies
    /// the backend's modelled powerloss damage — a no-op for the durable
    /// backends, the injection point for
    /// [`FaultyStorage`](crate::FaultyStorage). A recovering owner calls
    /// this once before replaying.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if applying the modelled damage itself fails.
    pub fn powerloss(&mut self) -> Result<(), StorageError> {
        self.memo.clear();
        self.wal.backend_mut().powerloss()
    }

    /// Number of record checksums held in memory: at most one per
    /// block-carrying record of the latest snapshot plus one per such
    /// record appended since.
    pub fn memoized_checksums(&self) -> usize {
        self.memo.len()
    }

    /// Truncates a torn final record off the log (see
    /// [`Wal::repair_torn_tail`]) — mandatory before a recovered owner
    /// appends again.
    ///
    /// # Errors
    ///
    /// Propagates corruption and I/O errors from the repair.
    pub fn repair_torn_tail(&mut self) -> Result<usize, StorageError> {
        self.wal.repair_torn_tail()
    }

    /// The backend (test hooks: truncation, corruption).
    pub fn backend_mut(&mut self) -> &mut S {
        self.wal.backend_mut()
    }

    /// The backend, read-only.
    pub fn backend(&self) -> &S {
        self.wal.backend()
    }
}

/// Every decoded event plus provenance counters.
#[derive(Clone, Debug)]
pub struct ReadEvents<B> {
    /// The events, snapshot records first, then the log tail.
    pub events: Vec<DagEvent<B>>,
    /// How many of them came from the snapshot area.
    pub from_snapshot: usize,
    /// Torn bytes dropped from the end of the log.
    pub torn_tail_bytes: usize,
}

/// Consensus state rebuilt from a WAL — the data a restarted process needs
/// to rejoin without violating safety.
#[derive(Clone, Debug)]
pub struct RecoveredState<B> {
    /// The local DAG, rebuilt vertex by vertex.
    pub dag: DagStore<B>,
    /// The highest round in which `me` created a vertex (the round counter
    /// to resume from).
    pub own_round: Round,
    /// Every vertex already atomically delivered — the set that prevents
    /// double delivery across the restart.
    pub delivered: BTreeSet<VertexId>,
    /// For each delivered vertex, the wave whose commit ordered it — the
    /// per-wave grouping delivered-state transfer segments ship. `0` only
    /// for deliveries recorded before wave tags were persisted (none in a
    /// log written by this version).
    pub delivered_waves: BTreeMap<VertexId, WaveId>,
    /// Block payloads of delivered vertices *absent from the DAG* (pruned
    /// after delivery, or installed via delivered-state transfer without
    /// ever receiving the vertex) — the transferable residue this process
    /// can still serve to deep laggards.
    pub delivered_blocks: BTreeMap<VertexId, B>,
    /// The commit log of `(wave, leader)` pairs, in commit order.
    pub commit_log: Vec<(WaveId, VertexId)>,
    /// The last decided wave.
    pub decided_wave: WaveId,
    /// Waves whose CONFIRM quorum (`tReady`) had been observed.
    pub confirmed_waves: BTreeSet<WaveId>,
    /// The pruning floor inherited from the snapshot: delivered vertices in
    /// rounds `<= pruned_round` may be absent from `dag` (they were
    /// garbage-collected after delivery). `0` = nothing pruned.
    pub pruned_round: Round,
    /// Total events folded in.
    pub events_total: usize,
    /// Events that came from the snapshot area.
    pub events_from_snapshot: usize,
    /// Torn bytes dropped from the log tail.
    pub torn_tail_bytes: usize,
}

impl<B: BlockCodec + Clone> RecoveredState<B> {
    /// Folds decoded events into recovered state.
    ///
    /// Idempotent per event: duplicate vertex inserts, deliveries, confirms
    /// and already-decided waves are skipped, so snapshot/log overlap after
    /// a mid-compaction crash is harmless.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a vertex event references a parent that
    /// no prior event inserted — an append-order violation that a correct
    /// process can never have written.
    pub fn replay(
        read: &ReadEvents<B>,
        n: usize,
        me: ProcessId,
        genesis: B,
    ) -> Result<Self, StorageError> {
        let mut state = RecoveredState {
            dag: DagStore::with_genesis(n, genesis),
            own_round: 0,
            delivered: BTreeSet::new(),
            delivered_waves: BTreeMap::new(),
            delivered_blocks: BTreeMap::new(),
            commit_log: Vec::new(),
            decided_wave: 0,
            confirmed_waves: BTreeSet::new(),
            pruned_round: 0,
            events_total: read.events.len(),
            events_from_snapshot: read.from_snapshot,
            torn_tail_bytes: read.torn_tail_bytes,
        };
        // Pre-pass: reconstruct the pruned set. An id the log *delivers*
        // but never *inserts* was garbage-collected after delivery — its
        // children must still insert, and only those exact ids may be
        // excused (a round-based floor would also excuse vertices this
        // process simply never received).
        {
            let mut inserted = BTreeSet::new();
            let mut delivered_ids = BTreeSet::new();
            for event in &read.events {
                match event {
                    DagEvent::VertexInserted(v) => {
                        inserted.insert(v.id());
                    }
                    DagEvent::BlockDelivered { id, .. } => {
                        delivered_ids.insert(*id);
                    }
                    _ => {}
                }
            }
            for id in delivered_ids.difference(&inserted) {
                if id.round > 0 {
                    state.dag.note_pruned(*id);
                }
            }
        }
        for (i, event) in read.events.iter().enumerate() {
            match event {
                DagEvent::VertexInserted(v) => {
                    if v.round() == 0 {
                        continue; // genesis is hard-coded, never logged
                    }
                    match state.dag.insert(v.clone()) {
                        Ok(()) => {
                            if v.source() == me {
                                state.own_round = state.own_round.max(v.round());
                            }
                        }
                        Err(DagError::Duplicate(_)) => {}
                        Err(e) => {
                            return Err(StorageError::Corrupt {
                                offset: i,
                                detail: format!("log not replayable in order: {e}"),
                            })
                        }
                    }
                }
                DagEvent::WaveConfirmed { wave } => {
                    state.confirmed_waves.insert(*wave);
                }
                DagEvent::WaveDecided { wave, leader } => {
                    // Every logged wave is <= `decided_wave`, so this alone
                    // skips the duplicates of a snapshot/log overlap.
                    if *wave > state.decided_wave {
                        state.commit_log.push((*wave, *leader));
                    }
                    state.decided_wave = state.decided_wave.max(*wave);
                }
                DagEvent::BlockDelivered { id, wave } => {
                    state.delivered.insert(*id);
                    // Keep the strongest wave tag seen (snapshot/log overlap
                    // after a mid-compaction crash may record both).
                    let tag = state.delivered_waves.entry(*id).or_insert(*wave);
                    if *tag == 0 {
                        *tag = *wave;
                    }
                }
                DagEvent::Pruned { up_to_round } => {
                    // Floor metadata (the pruned *ids* were reconstructed
                    // in the pre-pass above).
                    state.dag.set_pruned_floor(*up_to_round);
                }
                DagEvent::DeliveredBlock { id, block } => {
                    state.delivered_blocks.insert(*id, block.clone());
                }
            }
        }
        state.pruned_round = state.dag.pruned_floor();
        // A pruned own prefix must never shrink the round counter: reusing
        // a round number after recovery would be honest equivocation. The
        // pruning policy only drops rounds strictly below the decided
        // wave's span, so retained own vertices normally dominate; the max
        // is the defensive backstop.
        state.own_round = state.own_round.max(state.pruned_round);
        Ok(state)
    }

    /// Compacts this state into `log` as a snapshot — the minimal event
    /// sequence that replays to it, written by the same snapshot writer a
    /// live process uses, so the two paths cannot drift.
    ///
    /// Layout: a pruned state leads with its [`DagEvent::Pruned`] marker
    /// (the DAG carries the floor, so re-compacting never silently
    /// promises vertices the DAG no longer holds); then vertices in
    /// `(round, source)` order (parents always precede children), then
    /// confirmed waves (sorted), then the commit log in order, then the
    /// delivered set (sorted by id, wave-tagged), then the block residue
    /// ([`DagEvent::DeliveredBlock`], sorted by id) of delivered vertices
    /// absent from the DAG.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the writes.
    pub fn compact_into<S: Storage>(&self, log: &mut EventLog<B, S>) -> Result<(), StorageError> {
        log.install_snapshot(
            &self.dag,
            self.confirmed_waves.iter().copied(),
            &self.commit_log,
            self.delivered
                .iter()
                .map(|id| (*id, self.delivered_waves.get(id).copied().unwrap_or(0))),
            self.delivered_blocks.iter().map(|(id, b)| (*id, b)),
        )
    }

    /// Garbage-collects the delivered prefix: drops every *delivered*
    /// vertex in rounds `<= up_to_round` from the DAG (retaining each
    /// pruned vertex's block in [`RecoveredState::delivered_blocks`], so
    /// the delivered prefix stays transferable as certified outputs) and
    /// ratchets the pruning floor. The delivered set, commit log and
    /// confirmed waves are untouched — they are what keeps re-delivery
    /// impossible — so replay of a subsequently compacted snapshot
    /// reproduces exactly this state.
    /// Undelivered old vertices are retained: they may still enter a later
    /// leader's causal history via weak edges (and every path to an
    /// undelivered vertex runs through undelivered vertices only — a
    /// delivered intermediate would have delivered its whole ancestry —
    /// so pruning the delivered set can never hide one).
    pub fn prune_delivered(&mut self, up_to_round: Round) {
        let delivered = &self.delivered;
        for v in prune_dag(&mut self.dag, |id| delivered.contains(&id), up_to_round) {
            self.delivered_blocks.insert(v.id(), v.into_block());
        }
        self.pruned_round = self.dag.pruned_floor();
    }
}

/// Drops every *delivered* vertex (per `is_delivered`) in rounds
/// `<= up_to_round` from `dag`, recording each pruned identity — the
/// in-place half of WAL pruning, shared by
/// [`RecoveredState::prune_delivered`] and live snapshot compaction.
/// Undelivered old vertices are untouched. Returns the pruned vertices so
/// the caller can harvest their blocks into a transferable delivered-state
/// store (dropping them entirely would make the delivered prefix
/// unservable to deep laggards).
pub fn prune_dag<B>(
    dag: &mut DagStore<B>,
    is_delivered: impl Fn(VertexId) -> bool,
    up_to_round: Round,
) -> Vec<Vertex<B>> {
    if up_to_round == 0 {
        return Vec::new();
    }
    let mut prunable = Vec::new();
    for r in 1..=up_to_round.min(dag.max_round().unwrap_or(0)) {
        prunable.extend(dag.vertices_in_round(r).map(Vertex::id).filter(|id| is_delivered(*id)));
    }
    let pruned = prunable.into_iter().filter_map(|id| dag.prune(id)).collect();
    dag.set_pruned_floor(up_to_round);
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;
    use crate::snapshot::MemoKey;
    use asym_quorum::ProcessSet;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    type Log = EventLog<Vec<u8>, MemStorage>;

    /// Logs a full 4-process DAG of `rounds` rounds plus wave bookkeeping.
    fn populated_log(rounds: u64) -> Log {
        let mut log = Log::new(MemStorage::new()).with_snapshot_every(0);
        for r in 1..=rounds {
            for i in 0..4 {
                log.append(&DagEvent::VertexInserted(Vertex::new(
                    pid(i),
                    r,
                    vec![r as u8, i as u8],
                    ProcessSet::full(4),
                    vec![],
                )))
                .unwrap();
            }
        }
        log.append(&DagEvent::WaveConfirmed { wave: 1 }).unwrap();
        log.append(&DagEvent::WaveDecided { wave: 1, leader: VertexId::new(1, pid(2)) }).unwrap();
        log.append(&DagEvent::BlockDelivered { id: VertexId::new(1, pid(2)), wave: 1 }).unwrap();
        log
    }

    #[test]
    fn replay_rebuilds_dag_and_bookkeeping() {
        let log = populated_log(4);
        let state = log.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(state.dag.len(), 4 + 16, "genesis + 4 rounds");
        assert_eq!(state.own_round, 4);
        assert_eq!(state.decided_wave, 1);
        assert_eq!(state.commit_log, vec![(1, VertexId::new(1, pid(2)))]);
        assert!(state.delivered.contains(&VertexId::new(1, pid(2))));
        assert_eq!(state.confirmed_waves, BTreeSet::from([1]));
        assert_eq!(state.events_from_snapshot, 0);
        assert_eq!(state.torn_tail_bytes, 0);
    }

    #[test]
    fn snapshot_compaction_replays_to_the_same_state() {
        let log = populated_log(8);
        let state = log.replay(4, pid(0), Vec::new()).unwrap();

        let mut compacted = Log::new(MemStorage::new());
        state.compact_into(&mut compacted).unwrap();
        // New activity lands in the log tail after the snapshot.
        compacted
            .append(&DagEvent::VertexInserted(Vertex::new(
                pid(0),
                9,
                vec![9],
                ProcessSet::full(4),
                vec![],
            )))
            .unwrap();
        let re = compacted.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len() + 1);
        assert_eq!(re.own_round, 9);
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.delivered, state.delivered);
        assert_eq!(re.confirmed_waves, state.confirmed_waves);
        assert!(re.events_from_snapshot > 0);
    }

    #[test]
    fn replay_is_idempotent_over_snapshot_log_overlap() {
        // Crash between snapshot write and log truncation: the log still
        // holds events the snapshot already covers.
        let log = populated_log(4);
        let state = log.replay(4, pid(0), Vec::new()).unwrap();
        let mut overlapped = log.clone();
        // Install the snapshot but resurrect the old log bytes afterwards.
        let old_log = log.backend().log_bytes().to_vec();
        state.compact_into(&mut overlapped).unwrap();
        overlapped.backend_mut().append_log_raw(&old_log);
        let re = overlapped.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len());
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.delivered, state.delivered);
    }

    #[test]
    fn pruned_snapshot_replays_to_post_prefix_state() {
        // Build 8 rounds, deliver everything in rounds <= 4, prune, compact
        // and replay: the pruned snapshot must reproduce the post-prefix
        // state exactly and be strictly smaller than the unpruned one.
        let log = populated_log(8);
        let mut state = log.replay(4, pid(1), Vec::new()).unwrap();
        for r in 1..=4u64 {
            for i in 0..4 {
                state.delivered.insert(VertexId::new(r, pid(i)));
            }
        }
        let snapshot_len = |state: &RecoveredState<Vec<u8>>| {
            let mut log = Log::new(MemStorage::new());
            state.compact_into(&mut log).unwrap();
            log.stats().last_snapshot_bytes
        };
        let unpruned_len = snapshot_len(&state);
        state.prune_delivered(4);
        assert_eq!(state.pruned_round, 4);
        assert_eq!(state.dag.pruned_floor(), 4);
        assert_eq!(state.dag.len(), 4 + 16, "genesis + rounds 5..=8 retained");
        let pruned_len = snapshot_len(&state);
        assert!(pruned_len < unpruned_len, "{pruned_len} !< {unpruned_len}");

        let mut compacted = Log::new(MemStorage::new());
        state.compact_into(&mut compacted).unwrap();
        // New activity above the prune horizon still lands in the log tail.
        compacted
            .append(&DagEvent::VertexInserted(Vertex::new(
                pid(1),
                9,
                vec![9],
                ProcessSet::full(4),
                vec![],
            )))
            .unwrap();
        let re = compacted.replay(4, pid(1), Vec::new()).unwrap();
        assert_eq!(re.pruned_round, 4);
        assert_eq!(re.dag.pruned_floor(), 4);
        assert_eq!(re.dag.len(), state.dag.len() + 1);
        assert_eq!(re.own_round, 9, "own rounds above the floor survive");
        assert_eq!(re.delivered, state.delivered, "delivered set is never pruned");
        assert_eq!(re.commit_log, state.commit_log);
        assert_eq!(re.confirmed_waves, state.confirmed_waves);
        // The round-9 vertex inserted although its round-8 parents are in
        // the snapshot and its pruned ancestry is gone — floor semantics.
        assert!(re.dag.get(VertexId::new(9, pid(1))).is_some());
    }

    #[test]
    fn pruning_retains_undelivered_old_vertices() {
        let log = populated_log(4);
        let mut state = log.replay(4, pid(0), Vec::new()).unwrap();
        // Only p2's vertices were delivered; the rest must survive a prune.
        for r in 1..=4u64 {
            state.delivered.insert(VertexId::new(r, pid(2)));
        }
        state.prune_delivered(4);
        assert_eq!(state.dag.len(), 4 + 12, "genesis + 3 undelivered per round");
        for r in 1..=4u64 {
            assert!(!state.dag.contains(VertexId::new(r, pid(2))), "delivered r{r} pruned");
            assert!(state.dag.contains(VertexId::new(r, pid(0))), "undelivered r{r} kept");
        }
        // Re-compaction round-trips the partial prune.
        let mut compacted = Log::new(MemStorage::new());
        state.compact_into(&mut compacted).unwrap();
        let re = compacted.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.dag.len(), state.dag.len());
        assert_eq!(re.pruned_round, 4);
    }

    #[test]
    fn missing_parent_in_log_order_is_corruption() {
        let mut log = Log::new(MemStorage::new());
        // Round-2 vertex whose round-1 parent was never logged.
        log.append(&DagEvent::VertexInserted(Vertex::new(
            pid(0),
            2,
            vec![],
            ProcessSet::from_indices([1]),
            vec![],
        )))
        .unwrap();
        assert!(matches!(log.replay(4, pid(0), Vec::new()), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn overlapping_snapshot_and_log_replay_dedups_decisions() {
        // Decisions for waves 1..=3 in the snapshot, then the old log —
        // which re-decides all of them — resurrected behind it, plus one
        // fresh decision: every wave must be in the commit log once, in
        // order.
        let mut log = Log::new(MemStorage::new()).with_snapshot_every(0);
        for wave in 1..=3 {
            let leader = VertexId::new(4 * wave - 3, pid(wave as usize % 4));
            log.append(&DagEvent::WaveDecided { wave, leader }).unwrap();
        }
        let state = log.replay(4, pid(0), Vec::new()).unwrap();
        let old_log = log.backend().log_bytes().to_vec();
        state.compact_into(&mut log).unwrap();
        log.backend_mut().append_log_raw(&old_log);
        let fresh = (4, VertexId::new(13, pid(1)));
        log.append(&DagEvent::WaveDecided { wave: fresh.0, leader: fresh.1 }).unwrap();
        let re = log.replay(4, pid(0), Vec::new()).unwrap();
        assert_eq!(re.events_from_snapshot, 3);
        assert_eq!(re.events_total, 3 + 3 + 1, "the overlap really is replayed twice");
        let mut expected = state.commit_log.clone();
        expected.push(fresh);
        assert_eq!(re.commit_log, expected);
        assert_eq!(re.decided_wave, 4);
    }

    /// Memo keys of the records a snapshot blob holds.
    fn snapshot_keys(log: &Log) -> BTreeSet<MemoKey> {
        log.wal
            .read()
            .unwrap()
            .snapshot
            .iter()
            .filter_map(|r| match DagEvent::<Vec<u8>>::decode(r).unwrap() {
                DagEvent::VertexInserted(v) => Some(MemoKey::Vertex(v.id())),
                DagEvent::DeliveredBlock { id, .. } => Some(MemoKey::Residue(id)),
                _ => None,
            })
            .collect()
    }

    /// A long pruned run driven the way a live process drives its log:
    /// every vertex appended as it enters the DAG, the delivered prefix
    /// pruned and the state compacted every four rounds.
    fn long_pruned_run(rounds: u64) -> (Log, RecoveredState<Vec<u8>>) {
        let mut log = Log::new(MemStorage::new()).with_snapshot_every(0);
        let mut state = log.replay(4, pid(0), Vec::new()).unwrap();
        for r in 1..=rounds {
            for i in 0..4 {
                let block =
                    if (r + i as u64).is_multiple_of(3) { vec![] } else { vec![r as u8, i as u8] };
                let v = Vertex::new(pid(i), r, block, ProcessSet::full(4), vec![]);
                log.append_vertex(&v).unwrap();
                state.dag.insert(v).unwrap();
            }
            if r % 4 == 0 && r > 4 {
                let wave = r / 4;
                for old in r - 7..=r - 4 {
                    for i in 0..4 {
                        let id = VertexId::new(old, pid(i));
                        log.append(&DagEvent::BlockDelivered { id, wave }).unwrap();
                        state.delivered.insert(id);
                        state.delivered_waves.insert(id, wave);
                    }
                }
                state.prune_delivered(r - 4);
                state.compact_into(&mut log).unwrap();
            }
        }
        (log, state)
    }

    #[test]
    fn checksum_memo_holds_only_the_latest_snapshot_and_empties_at_a_crash() {
        let (mut log, state) = long_pruned_run(64);
        assert!(state.pruned_round >= 56 && state.delivered_blocks.len() >= 200);
        let in_snapshot = snapshot_keys(&log);
        let memo: BTreeSet<MemoKey> = log.memo.keys().collect();
        assert_eq!(memo, in_snapshot, "after a snapshot the memo mirrors it exactly");
        assert_eq!(log.memoized_checksums(), in_snapshot.len());

        // Appends after the snapshot add their own entries, nothing else.
        let v = Vertex::new(pid(2), 65, vec![7], ProcessSet::full(4), vec![]);
        log.append_vertex(&v).unwrap();
        let memo: BTreeSet<MemoKey> = log.memo.keys().collect();
        let mut expected = in_snapshot.clone();
        expected.insert(MemoKey::Vertex(v.id()));
        assert_eq!(memo, expected);

        // A crash loses the memo; recompacting recomputes every checksum
        // and writes the same bytes.
        let before = log.backend().snapshot_bytes().unwrap().to_vec();
        log.powerloss().unwrap();
        assert_eq!(log.memoized_checksums(), 0, "nothing in memory survives a crash");
        state.compact_into(&mut log).unwrap();
        assert_eq!(log.backend().snapshot_bytes().unwrap(), &before[..]);
        assert_eq!(log.memoized_checksums(), in_snapshot.len());
    }

    #[test]
    fn a_poisoned_memo_entry_is_caught_by_replay() {
        let (log, state) = long_pruned_run(32);
        let keys = snapshot_keys(&log);
        let vertex = keys.iter().copied().find(|k| matches!(k, MemoKey::Vertex(_))).unwrap();
        let residue = keys.iter().copied().find(|k| matches!(k, MemoKey::Residue(_))).unwrap();
        for key in [vertex, residue] {
            let mut poisoned = log.clone();
            poisoned.memo.poison(key);
            state.compact_into(&mut poisoned).unwrap();
            match poisoned.replay(4, pid(0), Vec::new()) {
                Err(StorageError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("checksum"), "{key:?}: {detail}");
                }
                other => panic!("{key:?}: a wrong checksum must fail replay, got {other:?}"),
            }
        }
    }

    #[test]
    fn valid_frame_invalid_event_is_corruption() {
        let mut log = Log::new(MemStorage::new());
        let mut framed = Vec::new();
        crate::wal::frame_in_place(&mut framed, |out| out.extend([42, 0, 1]), crate::checksum);
        log.backend_mut().append_log_raw(&framed);
        assert!(matches!(log.events(), Err(StorageError::Corrupt { .. })));
    }

    impl MemStorage {
        /// Test-only raw append (bypasses framing).
        fn append_log_raw(&mut self, bytes: &[u8]) {
            use crate::backend::Storage as _;
            self.append_log(bytes).unwrap();
        }
    }
}
