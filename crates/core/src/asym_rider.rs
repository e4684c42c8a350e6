//! **Asymmetric DAG-Rider** — Algorithms 4, 5 and 6 of the paper: the first
//! randomized asynchronous DAG-based consensus protocol with asymmetric
//! quorums.
//!
//! Every 4-round wave executes the constant-round asymmetric gather
//! (Algorithm 3) *structurally*: round 1 plays the candidate-`S` role, the
//! round-2 vertices are the `DISTRIBUTE_S` step (each delivery is ACKed,
//! Algorithm 6 line 142), the transition into round 3 — the `DISTRIBUTE_T`
//! step — is gated on the ACK → READY → CONFIRM ladder (Algorithm 5), and
//! round 4 corresponds to the `U` sets. The gather guarantee yields a common
//! core of round-1 vertices in every wave, so the coin-elected leader is
//! committable with probability at least `c(Q)/|P|` (Lemmas 4.3, 4.4).
//!
//! Differences from the symmetric baseline, per the paper §4.3:
//!
//! * **round change** — a round completes when the vertices of one of *my
//!   quorums* are in my DAG (not `n − f` vertices);
//! * **round 2 → 3 gating** — additionally requires CONFIRMs from one of my
//!   quorums (`tReady`);
//! * **commit rule** — the leader commits when all round-4 vertices of some
//!   quorum `Q ∈ Q_j` (for *any* process `j`, Algorithm 6 line 148) have
//!   strong paths to it.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use asym_broadcast::BcastMsg;
use asym_crypto::CommonCoin;
use asym_dag::{
    position_in_wave, round_of_wave, wave_of_round, DagStore, Round, Vertex, VertexId, WaveId,
};
use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet};
use asym_sim::{Context, Protocol};
use asym_storage::{DagEvent, RecoveredState, StorageError};

use crate::dagcore::{DagCore, DagLog};
use crate::ordering::{CommitOutcome, WaveCommitter};
use crate::transfer::{TransferState, TransferStats, WaveSegment};
use crate::types::{Block, OrderedVertex, RiderConfig, RiderMetrics};

/// Wire messages of asymmetric DAG-Rider: the arb layer carrying vertices,
/// plus the per-wave ACK/READY/CONFIRM control ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsymRiderMsg {
    /// Asymmetric-reliable-broadcast layer carrying DAG vertices.
    Arb(BcastMsg<Vertex<Block>>),
    /// Acknowledges the arb-delivery of the sender's round-2 vertex of
    /// `wave` (point-to-point to the vertex creator).
    Ack {
        /// Wave the acknowledged round-2 vertex belongs to.
        wave: WaveId,
    },
    /// The sender received ACKs from one of its quorums for `wave`.
    Ready {
        /// Wave this readiness concerns.
        wave: WaveId,
    },
    /// The sender received READYs from a quorum (or CONFIRMs from a kernel)
    /// for `wave`.
    Confirm {
        /// Wave this confirmation concerns.
        wave: WaveId,
    },
    /// A recovering process asks for every DAG vertex above `above_round`
    /// (plus the responder's confirmed waves) — the catch-up half of the
    /// crash-recovery protocol.
    Fetch {
        /// Only vertices in rounds strictly above this are requested.
        above_round: Round,
    },
    /// Point-to-point reply to [`AsymRiderMsg::Fetch`]: the responder's
    /// stored vertices above the requested round (parents first) and the
    /// waves it has CONFIRMed. Fetched vertices bypass reliable broadcast,
    /// so the requester only accepts a vertex once identical copies arrived
    /// from one of its kernels (a set intersecting all its quorums).
    FetchReply {
        /// Vertices from the responder's DAG, in `(round, source)` order.
        vertices: Vec<Vertex<Block>>,
        /// Waves for which the responder has broadcast CONFIRM.
        confirmed: Vec<WaveId>,
    },
    /// Sent alongside a [`AsymRiderMsg::FetchReply`] when the requested
    /// floor lies below the responder's pruning floor: the responder can no
    /// longer serve those rounds as DAG vertices, but offers the delivered
    /// prefix as certified outputs instead (delivered-state transfer — see
    /// [`crate::transfer`]).
    StateOffer {
        /// The responder can ship certified state through this wave.
        decided_wave: WaveId,
        /// The responder's pruning floor (rounds at or below may be gone).
        floor: Round,
    },
    /// A deep laggard accepting a [`AsymRiderMsg::StateOffer`]: asks for
    /// every decided wave above its own watermark.
    StateRequest {
        /// The requester's last decided wave.
        above_wave: WaveId,
    },
    /// Point-to-point reply to [`AsymRiderMsg::StateRequest`]: per-wave
    /// certified segments of the responder's delivered prefix. The
    /// requester installs a segment only after bit-identical copies arrive
    /// from one of **its own** kernels (≥ 1 honest corroborator under its
    /// trust assumption), so a lone equivocator cannot forge state.
    StateChunk {
        /// Decided waves above the requested watermark, in wave order.
        segments: Vec<WaveSegment>,
    },
}

#[derive(Clone, Debug, Default)]
struct WaveControl {
    acks: ProcessSet,
    readys: ProcessSet,
    confirms: ProcessSet,
    sent_ready: bool,
    sent_confirm: bool,
    t_ready: bool,
}

/// One process of asymmetric DAG-Rider (Algorithms 4–6).
///
/// *Input*: blocks to `aa-broadcast`. *Output*: [`OrderedVertex`] events in
/// atomic-broadcast order. All cluster members must share the same
/// `coin_seed` and asymmetric quorum system array.
#[derive(Clone, Debug)]
pub struct AsymDagRider {
    core: DagCore,
    quorums: AsymQuorumSystem,
    committer: WaveCommitter,
    coin: CommonCoin,
    control: HashMap<WaveId, WaveControl>,
    acked_vertices: HashSet<VertexId>,
    /// `true` once this process has restarted from its log at least once;
    /// enables the stalled-buffer refetch heuristic.
    recovering: bool,
    /// Fetched vertices awaiting identical copies from a kernel of mine
    /// (id → the distinct copies seen, each with who vouched for it; one
    /// vote per responder per id, so the list is bounded by `n` and a
    /// Byzantine first responder cannot veto the genuine copy).
    fetch_pending: HashMap<VertexId, Vec<(Vertex<Block>, ProcessSet)>>,
    /// The missing-parent set of the last refetch, to bound refetch traffic.
    last_missing: BTreeSet<VertexId>,
    /// `true` if the most recent fetch replies added vouching votes — the
    /// signal that one more refetch round may complete a kernel.
    fetch_progress: bool,
    /// Receiver-side delivered-state-transfer bookkeeping: per-wave segment
    /// votes awaiting kernel corroboration, plus activity counters.
    transfer: TransferState,
    /// Block payloads of delivered vertices absent from the DAG (pruned
    /// after delivery, or installed via state transfer) — what this process
    /// serves to deep laggards in place of the garbage-collected vertices.
    delivered_blocks: BTreeMap<VertexId, Block>,
}

impl AsymDagRider {
    /// Creates an asymmetric DAG-Rider process.
    pub fn new(
        me: ProcessId,
        quorums: AsymQuorumSystem,
        coin_seed: u64,
        config: RiderConfig,
    ) -> Self {
        let n = quorums.n();
        AsymDagRider {
            core: DagCore::new(me, quorums.clone(), config),
            quorums,
            committer: WaveCommitter::new(),
            coin: CommonCoin::new(coin_seed, n),
            control: HashMap::new(),
            acked_vertices: HashSet::new(),
            recovering: false,
            fetch_pending: HashMap::new(),
            last_missing: BTreeSet::new(),
            fetch_progress: false,
            transfer: TransferState::new(),
            delivered_blocks: BTreeMap::new(),
        }
    }

    /// Attaches a write-ahead log (builder-style): every DAG insertion,
    /// `tReady` milestone, wave decision and atomic delivery is persisted,
    /// and [`Protocol::on_recover`] rebuilds the process from it after a
    /// [`FaultMode::RestartAfter`](asym_sim::FaultMode::RestartAfter) crash.
    #[must_use]
    pub fn with_storage(mut self, log: DagLog) -> Self {
        self.core.set_log(log);
        self
    }

    /// The attached write-ahead log, if any (observer inspection — the
    /// scenario harness replays it to audit WAL/state equivalence).
    pub fn storage(&self) -> Option<&DagLog> {
        self.core.log()
    }

    /// Replays the attached log into recovered state without touching the
    /// live process — what a restart *would* rebuild right now.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError`] from the log (corruption, I/O).
    pub fn replay_storage(&self) -> Option<Result<RecoveredState<Block>, StorageError>> {
        let log = self.core.log()?;
        Some(log.replay(self.quorums.n(), self.core.me(), Block::default()))
    }

    /// `true` once this process has restarted from its log.
    pub fn has_recovered(&self) -> bool {
        self.recovering
    }

    /// The local DAG (observer inspection).
    pub fn dag(&self) -> &DagStore<Block> {
        self.core.dag()
    }

    /// Execution counters.
    pub fn metrics(&self) -> RiderMetrics {
        self.core.metrics()
    }

    /// The last decided wave.
    pub fn decided_wave(&self) -> WaveId {
        self.committer.decided_wave()
    }

    /// The wave-commitment state (observer inspection: commit log, decided
    /// wave, delivered-vertex set) — what the scenario harness's
    /// `delivery_bookkeeping` invariant checker audits.
    pub fn committer(&self) -> &WaveCommitter {
        &self.committer
    }

    /// Commit log of `(wave, leader)` pairs, in commit order.
    pub fn commit_log(&self) -> &[(WaveId, VertexId)] {
        self.committer.log()
    }

    /// Waves whose `tReady` milestone (CONFIRMs from one of this process's
    /// quorums) was reached, in no particular order — the confirmed waves
    /// a snapshot persists.
    pub fn confirmed_waves(&self) -> impl Iterator<Item = WaveId> + '_ {
        self.control.iter().filter(|(_, c)| c.t_ready).map(|(w, _)| *w)
    }

    /// Delivered-state-transfer activity counters (observer inspection —
    /// the scenario harness uses them to prove a deep laggard really
    /// recovered through state transfer rather than plain fetch).
    pub fn transfer_stats(&self) -> TransferStats {
        self.transfer.stats()
    }

    /// The transferable block residue: delivered vertices whose full
    /// vertex this process no longer (or never) holds, `(id, block)` sorted
    /// by id.
    pub fn delivered_block_residue(&self) -> Vec<(VertexId, Block)> {
        self.delivered_blocks.iter().map(|(id, b)| (*id, b.clone())).collect()
    }

    /// The asymmetric commit rule (Algorithm 6, line 148): all round-4
    /// vertices of some quorum of *any* process reach the leader by strong
    /// paths.
    fn commit_rule(quorums: &AsymQuorumSystem, dag: &DagStore<Block>, leader: VertexId) -> bool {
        let w = wave_of_round(leader.round);
        let r4 = round_of_wave(w, 4);
        let committers: ProcessSet = dag
            .sources_in_round(r4)
            .iter()
            .filter(|p| dag.strong_path(VertexId::new(r4, *p), leader))
            .collect();
        quorums.contains_quorum_for_any(&committers).is_some()
    }

    fn wave_ready(&mut self, w: WaveId, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        if w <= self.committer.decided_wave() {
            return;
        }
        self.core.metrics_mut().waves_attempted += 1;
        let quorums = self.quorums.clone();
        let mut out = Vec::new();
        let commits_before = self.committer.log().len();
        let outcome = self.committer.wave_ready(
            self.core.dag(),
            &self.coin,
            w,
            |dag, leader| Self::commit_rule(&quorums, dag, leader),
            &mut out,
        );
        match outcome {
            CommitOutcome::NoLeaderVertex => self.core.metrics_mut().waves_skipped_no_leader += 1,
            CommitOutcome::RuleNotMet => self.core.metrics_mut().waves_skipped_rule += 1,
            CommitOutcome::Committed { .. } => self.core.metrics_mut().waves_committed += 1,
        }
        // Persist the decision and every delivery *before* handing the
        // outputs to the environment: on replay, a delivery the WAL lacks
        // was never observable, and one it has is never re-delivered.
        let decided: Vec<(WaveId, VertexId)> = self.committer.log()[commits_before..].to_vec();
        if let Some(log) = self.core.log_mut() {
            for (wave, leader) in decided {
                log.append(&DagEvent::WaveDecided { wave, leader }).expect("WAL append failed");
            }
            for o in &out {
                log.append(&DagEvent::BlockDelivered { id: o.id, wave: o.committed_in_wave })
                    .expect("WAL append failed");
            }
        }
        for o in out {
            self.core.metrics_mut().vertices_ordered += 1;
            self.core.metrics_mut().txs_ordered += o.block.txs.len() as u64;
            ctx.output(o);
        }
    }

    /// The main loop of Algorithm 4 (lines 94–120), event-driven: advance
    /// through as many rounds as the current DAG and control state allow.
    fn advance(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        loop {
            self.core.drain_buffer();
            let cur = self.core.round();
            if cur >= self.core.config().max_round() {
                break;
            }
            // Pruned round members count as available: they were delivered
            // (hence fully disseminated) before being garbage-collected, so
            // a process resuming above a delivered-state install floor can
            // still assemble its round quorum out of the gc'd prefix.
            let sources = self.core.dag().sources_in_round_or_pruned(cur);
            if !self.quorums.contains_quorum_for(self.core.me(), &sources) {
                break;
            }
            // Lines 109–116: leaving round 2 of a wave additionally requires
            // CONFIRMs from one of my quorums (tReady).
            if cur > 0 && position_in_wave(cur) == 2 {
                let w = wave_of_round(cur);
                if !self.control.entry(w).or_default().t_ready {
                    break;
                }
            }
            // Lines 100–101: crossing a wave boundary runs the commit rule.
            if cur > 0 && cur.is_multiple_of(4) {
                self.wave_ready(cur / 4, ctx);
            }
            for m in self.core.advance_and_broadcast(cur + 1) {
                ctx.broadcast(AsymRiderMsg::Arb(m));
            }
        }
    }

    /// Runs the ACK → READY → CONFIRM ladder of Algorithm 5 for `wave`.
    fn control_step(&mut self, wave: WaveId, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        let me = self.core.me();
        let amplify = self.core.config().kernel_amplification;
        let ctrl = self.control.entry(wave).or_default();

        // Line 123: READY after ACKs from one of my quorums.
        if !ctrl.sent_ready && self.quorums.contains_quorum_for(me, &ctrl.acks) {
            ctrl.sent_ready = true;
            ctx.broadcast(AsymRiderMsg::Ready { wave });
        }
        // Line 127: CONFIRM after READYs from one of my quorums.
        if !ctrl.sent_confirm && self.quorums.contains_quorum_for(me, &ctrl.readys) {
            ctrl.sent_confirm = true;
            ctx.broadcast(AsymRiderMsg::Confirm { wave });
        }
        // Line 131: CONFIRM after CONFIRMs from one of my kernels.
        if amplify && !ctrl.sent_confirm && self.quorums.hits_kernel_for(me, &ctrl.confirms) {
            ctrl.sent_confirm = true;
            ctx.broadcast(AsymRiderMsg::Confirm { wave });
        }
        // Line 135: tReady after CONFIRMs from one of my quorums.
        let became_ready = !ctrl.t_ready && self.quorums.contains_quorum_for(me, &ctrl.confirms);
        if became_ready {
            ctrl.t_ready = true;
            if let Some(log) = self.core.log_mut() {
                log.append(&DagEvent::WaveConfirmed { wave }).expect("WAL append failed");
            }
        }
    }

    /// Installs a snapshot when the WAL's cadence asks for one. With
    /// [`RiderConfig::prune_wal`] set, the delivered prefix below the
    /// decided wave's leader round is garbage-collected first — from the
    /// live DAG and hence from the snapshot — so the *vertex* component of
    /// a snapshot tracks the undelivered frontier, not the whole history.
    /// The delivered-set ids and the commit log are never pruned (they are
    /// what makes re-delivery impossible) and still grow with history —
    /// compacting them safely is an open ROADMAP item, because a
    /// per-source watermark is unsound for Byzantine sources.
    ///
    /// The snapshot is written by [`asym_storage::EventLog::install_snapshot`]
    /// straight from the live state (the DAG, the `tReady` waves, the
    /// committer's log and delivered set, the block residue): nothing is
    /// cloned, and the checksum of each vertex and residue record is
    /// computed once in the record's life, not once per snapshot.
    fn maybe_snapshot(&mut self) {
        if !self.core.log().is_some_and(DagLog::should_snapshot) {
            return;
        }
        if self.core.config().prune_wal {
            let decided = self.committer.decided_wave();
            if decided >= 1 {
                // Everything delivered lives at or below the decided
                // wave's leader round (a wave-w commit orders history of
                // the round-`4(w-1)+1` leader). The pruned vertices' blocks
                // move into the transferable residue, so the delivered
                // prefix stays servable to deep laggards as certified
                // outputs.
                let floor = round_of_wave(decided, 1);
                let committer = &self.committer;
                for v in self.core.prune_delivered(|id| committer.is_delivered(id), floor) {
                    self.delivered_blocks.insert(v.id(), v.into_block());
                }
            }
        }
        let mut log = self.core.take_log().expect("checked above");
        log.install_snapshot(
            self.core.dag(),
            self.confirmed_waves(),
            self.committer.log(),
            self.committer.delivered_waves(),
            self.delivered_blocks.iter().map(|(id, b)| (*id, b)),
        )
        .expect("WAL snapshot failed");
        self.core.set_log(log);
    }

    /// Discards all in-memory state and rebuilds this process from its
    /// write-ahead log, then rejoins the run: re-announces confirmed waves
    /// (unblocking peers stalled mid-ladder), revives its own stalled
    /// broadcast instances, and fetches everything it missed from peers.
    ///
    /// # Panics
    ///
    /// Panics if the log is corrupt or unreadable: a process that cannot
    /// trust its durable state must not rejoin (fail-stop).
    fn restart_from_log(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        let Some(mut log) = self.core.take_log() else {
            return; // no persistence layer: resume with in-memory state
        };
        let me = self.core.me();
        let config = self.core.config();
        // The crash happened *now* as far as storage is concerned: a
        // fault-injecting backend applies its modelled powerloss damage
        // (torn append, lost unsynced suffix, reverted snapshot rename)
        // before we read a single byte back.
        log.powerloss().expect("storage failed while applying crash damage");
        // Repair before the first post-recovery append: a record written
        // after a surviving torn tail would fuse with it into one
        // checksum-mismatching frame, leaving the log unreadable at the
        // *next* restart (found by the powerloss-file matrix cells).
        log.repair_torn_tail().expect("WAL torn-tail repair failed");
        let recovered =
            log.replay(self.quorums.n(), me, Block::default()).expect("WAL replay failed");

        // Everything below derives from static configuration + the log —
        // nothing survives from the pre-crash in-memory state.
        self.core = DagCore::from_recovered(me, self.quorums.clone(), config, &recovered, log);
        self.committer = WaveCommitter::from_parts(
            recovered.decided_wave,
            recovered
                .delivered
                .iter()
                .map(|id| (*id, recovered.delivered_waves.get(id).copied().unwrap_or(0))),
            recovered.commit_log.clone(),
        );
        self.control = HashMap::new();
        self.acked_vertices = HashSet::new();
        self.fetch_pending = HashMap::new();
        self.last_missing = BTreeSet::new();
        self.fetch_progress = false;
        self.transfer = TransferState::new();
        self.delivered_blocks = recovered.delivered_blocks.clone();
        self.recovering = true;
        for w in &recovered.confirmed_waves {
            let ctrl = self.control.entry(*w).or_default();
            ctrl.t_ready = true;
            // Mark the outbound ladder done for finished waves and instead
            // re-announce once, so peers stalled mid-ladder progress and we
            // do not re-broadcast on every late control message.
            ctrl.sent_ready = true;
            ctrl.sent_confirm = true;
            ctx.broadcast(AsymRiderMsg::Confirm { wave: *w });
        }
        for m in self.core.rebroadcast_own() {
            ctx.broadcast(AsymRiderMsg::Arb(m));
        }
        // Full state sync from the pruning floor: most of the reply
        // duplicates the replayed DAG and is discarded on arrival, but any
        // tighter floor can miss old vertices we never held (they surface
        // later as weak edges), forcing refetch round-trips; at simulation
        // sizes the simple, always-correct request wins. Rounds at or
        // below the floor are almost entirely garbage-collected delivered
        // prefix, so they are excluded here; in the rare case an
        // *undelivered* sub-floor vertex is still missing, a buffered
        // child will name it in `missing_parents` and `maybe_refetch`
        // requests it with a matching floor. Replies are cross-validated
        // against a kernel before anything enters the DAG.
        ctx.broadcast(AsymRiderMsg::Fetch { above_round: self.core.dag().pruned_floor() });
        self.advance(ctx);
    }

    /// Builds the reply to a peer's catch-up request.
    fn fetch_reply(&self, above_round: Round) -> AsymRiderMsg {
        let dag = self.core.dag();
        let mut vertices = Vec::new();
        for r in (above_round + 1)..=dag.max_round().unwrap_or(0) {
            vertices.extend(dag.vertices_in_round(r).cloned());
        }
        let mut confirmed: Vec<WaveId> =
            self.control.iter().filter(|(_, c)| c.sent_confirm).map(|(w, _)| *w).collect();
        confirmed.sort_unstable();
        AsymRiderMsg::FetchReply { vertices, confirmed }
    }

    /// Folds one peer's catch-up reply in: every vertex is validated with
    /// the line-140 rule and accepted only once bit-identical copies have
    /// arrived from one of my kernels — a kernel intersects all my quorums,
    /// so at least one vouching process is one my trust assumption counts
    /// on, and a lone equivocator cannot smuggle a forged vertex past
    /// reliable broadcast through the fetch path. Votes are tracked per
    /// *copy* (not just per id), so a forged first reply cannot veto the
    /// genuine copy either; one vote per responder per id bounds the state.
    fn handle_fetch_reply(
        &mut self,
        from: ProcessId,
        vertices: Vec<Vertex<Block>>,
        confirmed: Vec<WaveId>,
        ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>,
    ) {
        let me = self.core.me();
        for v in vertices {
            let id = v.id();
            // Round-0, own, stale (this exact id was delivered and
            // garbage-collected), already-known and quorum-less (line 140)
            // vertices are all discarded unseen. Undelivered old vertices
            // below the pruning floor are *kept*: a later leader can still
            // order them.
            if v.round() == 0
                || self.core.dag().is_pruned(id)
                || v.source() == me
                || self.core.dag().contains(id)
                || self.core.has_buffered(id)
                || self.quorums.contains_quorum_for_any(v.strong_edges()).is_none()
            {
                continue;
            }
            let copies = self.fetch_pending.entry(id).or_default();
            if copies.iter().any(|(_, voters)| voters.contains(from)) {
                continue; // one vote per responder per id (first copy wins)
            }
            let slot = match copies.iter().position(|(copy, _)| *copy == v) {
                Some(i) => i,
                None => {
                    copies.push((v, ProcessSet::new()));
                    copies.len() - 1
                }
            };
            copies[slot].1.insert(from);
            // New evidence arrived: worth one more refetch round if the
            // buffer is still blocked (see `maybe_refetch`).
            self.fetch_progress = true;
            if self.quorums.hits_kernel_for(me, &copies[slot].1) {
                let (v, _) = copies.swap_remove(slot);
                self.fetch_pending.remove(&id);
                self.core.accept_fetched(v);
            }
        }
        for wave in confirmed {
            self.control.entry(wave).or_default().confirms.insert(from);
            self.control_step(wave, ctx);
        }
    }

    /// Builds the per-wave certified segments of this process's delivered
    /// prefix above `above_wave` — the donor half of delivered-state
    /// transfer. Each wave's deliveries are reconstructed in the
    /// deterministic delivery order (sorted ids of the wave's tag group —
    /// see [`WaveCommitter::delivered_in_wave`]); blocks come from the DAG
    /// when the vertex is still stored, and from the transferable residue
    /// when it was garbage-collected. A wave with an unservable block
    /// (impossible for a correct process, defensive) **ends** the chunk:
    /// the receiver installs along the `prev_wave` chain, so segments past
    /// a hole could never install from this donor anyway.
    fn state_chunk(&self, above_wave: WaveId) -> Option<AsymRiderMsg> {
        // One pass over the delivered map groups ids by ordering wave —
        // StateRequests are repeatable and unauthenticated, so the donor
        // must not rescan the whole delivered set once per log entry.
        let mut by_wave: BTreeMap<WaveId, Vec<VertexId>> = BTreeMap::new();
        for (id, wave) in self.committer.delivered_waves() {
            if wave > above_wave {
                by_wave.entry(wave).or_default().push(id);
            }
        }
        let mut segments = Vec::new();
        // Commit logs legitimately skip waves, so each segment names the
        // log entry it chains onto (`prev_wave`) — the receiver installs
        // along this chain, never by wave arithmetic.
        let mut prev = 0;
        for (wave, leader) in self.committer.log() {
            if *wave <= above_wave {
                prev = *wave;
                continue;
            }
            let mut ids = by_wave.remove(wave).unwrap_or_default();
            ids.sort_unstable();
            let mut deliveries = Vec::with_capacity(ids.len());
            let mut servable = true;
            for id in ids {
                let block = self
                    .core
                    .dag()
                    .get(id)
                    .map(|v| v.block().clone())
                    .or_else(|| self.delivered_blocks.get(&id).cloned());
                let Some(block) = block else {
                    servable = false;
                    break;
                };
                deliveries.push((id, block));
            }
            if !servable || deliveries.is_empty() {
                // The receiver installs along the prev_wave chain, so
                // nothing after a hole could ever install from this donor —
                // stop the chunk here rather than ship dead segments.
                break;
            }
            segments.push(WaveSegment {
                wave: *wave,
                prev_wave: prev,
                leader: *leader,
                deliveries,
            });
            prev = *wave;
        }
        (!segments.is_empty()).then_some(AsymRiderMsg::StateChunk { segments })
    }

    /// Shape-and-coin validation of one received segment, before it may
    /// accumulate votes: the wave must still be installable, the leader
    /// must be the coin-elected leader vertex of that wave (a forged
    /// commit-log entry dies here without costing a vote slot), and the
    /// delivery list must be non-empty, strictly `(round, source)`-sorted,
    /// genesis-free and bounded by the leader round — the shape every
    /// honest segment has by construction.
    fn segment_valid(&self, seg: &WaveSegment) -> bool {
        if seg.wave <= self.committer.decided_wave() {
            return false;
        }
        let expected = VertexId::new(round_of_wave(seg.wave, 1), self.coin.leader(seg.wave));
        seg.leader == expected
            && seg.prev_wave < seg.wave
            && !seg.deliveries.is_empty()
            && seg.deliveries.windows(2).all(|w| w[0].0 < w[1].0)
            && seg.deliveries.iter().all(|(id, _)| id.round >= 1 && id.round <= seg.leader.round)
    }

    /// Folds one donor's chunk in (vote per wave per responder) and
    /// installs every contiguously corroborated wave: starting at the
    /// decided-wave watermark, a segment whose copy has votes from one of
    /// my kernels is appended to the commit log, its fresh deliveries are
    /// persisted and output, the missing vertices are recorded as pruned
    /// (their content can never be needed again) and the round counter
    /// fast-forwards past the installed floor. Afterwards the process
    /// resumes normal `Fetch` catch-up just below the new floor.
    fn handle_state_chunk(
        &mut self,
        from: ProcessId,
        segments: Vec<WaveSegment>,
        ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>,
    ) {
        // Unsolicited chunks are dropped before they can pin any state:
        // only donors this process actually sent a StateRequest to may
        // accumulate votes (a forger spraying chunks at everyone gets
        // nothing stored).
        if !self.recovering || !self.transfer.has_requested(from) {
            return;
        }
        for seg in segments {
            self.transfer.note_received();
            if !self.segment_valid(&seg) {
                self.transfer.note_rejected();
                continue;
            }
            self.transfer.vote(from, seg);
        }
        let me = self.core.me();
        let quorums = self.quorums.clone();
        let mut installed_any = false;
        loop {
            let decided = self.committer.decided_wave();
            let Some(seg) = self.transfer.take_ready(decided, &quorums, me) else {
                break;
            };
            let fresh = self.committer.install_wave(seg.wave, seg.leader, &seg.deliveries);
            let absent: Vec<bool> =
                fresh.iter().map(|(id, _)| !self.core.dag().contains(*id)).collect();
            // Persist the decision, every delivery and the block residue of
            // never-received vertices *before* handing outputs to the
            // environment — the same WAL-first discipline as a live commit.
            if let Some(log) = self.core.log_mut() {
                log.append(&DagEvent::WaveDecided { wave: seg.wave, leader: seg.leader })
                    .expect("WAL append failed");
                // The install also earns the wave's tReady milestone (set
                // below) — persist it like every other t_ready transition,
                // or a crash before the next snapshot would silently drop
                // the confirmation a replay cannot re-derive locally.
                log.append(&DagEvent::WaveConfirmed { wave: seg.wave }).expect("WAL append failed");
                for ((id, block), miss) in fresh.iter().zip(&absent) {
                    log.append(&DagEvent::BlockDelivered { id: *id, wave: seg.wave })
                        .expect("WAL append failed");
                    if *miss {
                        log.append(&DagEvent::DeliveredBlock { id: *id, block: block.clone() })
                            .expect("WAL append failed");
                    }
                }
            }
            for ((id, block), miss) in fresh.iter().zip(&absent) {
                if *miss {
                    self.core.note_pruned(*id);
                    self.delivered_blocks.insert(*id, block.clone());
                }
            }
            // Kernel corroboration of the decided wave doubles as its
            // confirmation evidence (the CONFIRM-from-kernel amplification
            // rule): mark the ladder finished so round advancement through
            // the installed wave is not gated on long-gone CONFIRMs.
            let ctrl = self.control.entry(seg.wave).or_default();
            ctrl.t_ready = true;
            ctrl.sent_ready = true;
            ctrl.sent_confirm = true;
            self.transfer.note_installed(fresh.len());
            for (id, block) in fresh {
                self.core.metrics_mut().vertices_ordered += 1;
                self.core.metrics_mut().txs_ordered += block.txs.len() as u64;
                ctx.output(OrderedVertex { id, block, committed_in_wave: seg.wave });
            }
            self.core.fast_forward_round(round_of_wave(seg.wave, 1));
            installed_any = true;
        }
        if installed_any {
            self.transfer.discard_through(self.committer.decided_wave());
            // Resume vertex catch-up one round *below* the new floor: the
            // floor round itself still holds undelivered vertices (only a
            // wave's leader is delivered by its own commit; its round
            // siblings are ordered by the next wave) which the round quorum
            // may need.
            let floor = self.core.dag().pruned_floor();
            ctx.broadcast(AsymRiderMsg::Fetch { above_round: floor.saturating_sub(1) });
        }
    }

    /// If recovery left the insertion buffer blocked on parents nobody has
    /// sent us (a vertex can finish dissemination entirely inside our down
    /// window), ask again. A refetch fires when the missing-parent set
    /// *changes*, or when the last reply round still added vouching votes —
    /// a fetch can race peers that have arb-delivered but not yet inserted
    /// a vertex, so "same missing set but votes grew" must retry until the
    /// kernel threshold is met. Votes per vertex are bounded by `n` and
    /// vertices by the run, so refetch traffic stays finite and the
    /// network still quiesces.
    fn maybe_refetch(&mut self, ctx: &mut Context<'_, AsymRiderMsg, OrderedVertex>) {
        if !self.recovering {
            return;
        }
        let missing = self.core.missing_parents();
        let progress = std::mem::take(&mut self.fetch_progress);
        if missing.is_empty() || (missing == self.last_missing && !progress) {
            return;
        }
        let floor = missing.iter().next().expect("non-empty").round.saturating_sub(1);
        self.last_missing = missing;
        ctx.broadcast(AsymRiderMsg::Fetch { above_round: floor });
    }
}

impl Protocol for AsymDagRider {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.advance(ctx);
        self.maybe_snapshot();
    }

    fn on_input(&mut self, block: Block, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.core.enqueue_block(block);
        self.advance(ctx);
        self.maybe_snapshot();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        self.restart_from_log(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match msg {
            AsymRiderMsg::Arb(inner) => {
                // Line 140: accept a vertex only if its strong edges contain
                // a quorum of some process's quorum system.
                let quorums = self.quorums.clone();
                let (out, fresh) = self.core.handle_arb(from, inner, |v| {
                    quorums.contains_quorum_for_any(v.strong_edges()).is_some()
                });
                for m in out {
                    ctx.broadcast(AsymRiderMsg::Arb(m));
                }
                // Line 142: ACK the creator of every delivered round-2
                // vertex (at most once per vertex).
                for vid in fresh {
                    if position_in_wave(vid.round) == 2 && self.acked_vertices.insert(vid) {
                        let wave = wave_of_round(vid.round);
                        ctx.send(vid.source, AsymRiderMsg::Ack { wave });
                    }
                }
            }
            AsymRiderMsg::Ack { wave } => {
                self.control.entry(wave).or_default().acks.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Ready { wave } => {
                self.control.entry(wave).or_default().readys.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Confirm { wave } => {
                self.control.entry(wave).or_default().confirms.insert(from);
                self.control_step(wave, ctx);
            }
            AsymRiderMsg::Fetch { above_round } => {
                let reply = self.fetch_reply(above_round);
                ctx.send(from, reply);
                // The requester asked for rounds this process has garbage-
                // collected: the FetchReply above cannot contain them, so
                // offer the delivered prefix as certified outputs instead.
                let floor = self.core.dag().pruned_floor();
                if above_round < floor && self.committer.decided_wave() > 0 {
                    ctx.send(
                        from,
                        AsymRiderMsg::StateOffer {
                            decided_wave: self.committer.decided_wave(),
                            floor,
                        },
                    );
                }
            }
            AsymRiderMsg::FetchReply { vertices, confirmed } => {
                self.handle_fetch_reply(from, vertices, confirmed, ctx);
            }
            AsymRiderMsg::StateOffer { decided_wave, .. } => {
                // Only a recovering process installs transferred state, and
                // only offers extending its watermark are worth a request
                // (one per offerer; the chunk carries everything above it).
                if self.recovering
                    && self.transfer.note_offer(from, decided_wave, self.committer.decided_wave())
                {
                    ctx.send(
                        from,
                        AsymRiderMsg::StateRequest { above_wave: self.committer.decided_wave() },
                    );
                }
            }
            AsymRiderMsg::StateRequest { above_wave } => {
                if let Some(chunk) = self.state_chunk(above_wave) {
                    ctx.send(from, chunk);
                }
            }
            AsymRiderMsg::StateChunk { segments } => {
                self.handle_state_chunk(from, segments, ctx);
            }
        }
        self.advance(ctx);
        self.maybe_refetch(ctx);
        self.maybe_snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::{maximal_guild, topology};
    use asym_sim::{scheduler, FaultMode, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn cluster(t: &topology::Topology, waves: WaveId) -> Vec<AsymDagRider> {
        let config = RiderConfig { max_waves: waves, ..Default::default() };
        (0..t.n()).map(|i| AsymDagRider::new(pid(i), t.quorums.clone(), 42, config)).collect()
    }

    fn check_total_order(outputs: &[Vec<OrderedVertex>]) {
        for a in outputs {
            for b in outputs {
                let common = a.len().min(b.len());
                for k in 0..common {
                    assert_eq!(a[k].id, b[k].id, "total order violated at position {k}");
                }
            }
        }
    }

    /// Runs the protocol over a topology with crashes; checks agreement,
    /// total order, integrity and progress for guild members.
    fn run_and_check(
        t: &topology::Topology,
        crashed: &[usize],
        seed: u64,
        waves: WaveId,
    ) -> Vec<Vec<OrderedVertex>> {
        let faulty: ProcessSet = crashed.iter().copied().collect();
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &faulty)
            .expect("test topology must retain a guild");
        let mut sim = Simulation::new(cluster(t, waves), scheduler::Random::new(seed));
        for c in crashed {
            sim = sim.with_fault(pid(*c), FaultMode::CrashedFromStart);
        }
        for i in 0..t.n() {
            if !crashed.contains(&i) {
                sim.input(pid(i), Block::new(vec![7000 + i as u64]));
            }
        }
        let report = sim.run(200_000_000);
        assert!(report.quiescent, "{} seed {seed}: did not quiesce", t.name);

        let outputs: Vec<Vec<OrderedVertex>> =
            (0..t.n()).map(|i| sim.outputs(pid(i)).to_vec()).collect();
        let guild_outputs: Vec<Vec<OrderedVertex>> =
            guild.iter().map(|g| outputs[g.index()].clone()).collect();
        check_total_order(&guild_outputs);
        // Progress: guild members commit within the wave budget.
        for g in &guild {
            assert!(
                !outputs[g.index()].is_empty(),
                "{} seed {seed}: guild member {g} ordered nothing",
                t.name
            );
        }
        // Integrity: no duplicates.
        for o in &outputs {
            let mut seen = HashSet::new();
            for v in o {
                assert!(seen.insert(v.id), "duplicate delivery of {}", v.id);
            }
        }
        outputs
    }

    #[test]
    fn threshold_topology_commits_and_agrees() {
        let t = topology::uniform_threshold(4, 1);
        for seed in 0..4 {
            run_and_check(&t, &[], seed, 6);
        }
    }

    #[test]
    fn threshold_with_crash() {
        let t = topology::uniform_threshold(4, 1);
        for seed in 0..3 {
            run_and_check(&t, &[3], seed, 8);
        }
    }

    #[test]
    fn seven_processes_two_crashes() {
        let t = topology::uniform_threshold(7, 2);
        run_and_check(&t, &[5, 6], 1, 8);
    }

    #[test]
    fn ripple_topology_commits() {
        let t = topology::ripple_unl(10, 8, 1);
        for seed in 0..2 {
            run_and_check(&t, &[], seed, 6);
        }
    }

    #[test]
    fn ripple_topology_with_crash() {
        let t = topology::ripple_unl(10, 8, 1);
        run_and_check(&t, &[4], 3, 8);
    }

    #[test]
    fn stellar_topology_with_leaf_crashes() {
        let t = topology::stellar_tiers(8, 4, 1);
        run_and_check(&t, &[6, 7], 2, 8);
    }

    #[test]
    fn validity_blocks_eventually_ordered() {
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_and_check(&t, &[], 11, 8);
        for (i, out) in outputs.iter().enumerate() {
            let txs: Vec<u64> = out.iter().flat_map(|o| o.block.txs.clone()).collect();
            for tx in 7000..7004 {
                assert!(txs.contains(&tx), "process {i} missing tx {tx}: {txs:?}");
            }
        }
    }

    #[test]
    fn deterministic_replay() {
        let t = topology::uniform_threshold(4, 1);
        let a = run_and_check(&t, &[], 5, 5);
        let b = run_and_check(&t, &[], 5, 5);
        assert_eq!(a, b, "same seed must replay identically");
    }

    #[test]
    fn outputs_respect_causality() {
        // A vertex is always delivered after its whole (non-genesis) causal
        // history: commits deliver leader histories oldest-wave-first and
        // sorted within a commit, so every parent precedes its child.
        let t = topology::uniform_threshold(4, 1);
        let mut sim = Simulation::new(cluster(&t, 6), scheduler::Random::new(2));
        for i in 0..4 {
            sim.input(pid(i), Block::new(vec![i as u64]));
        }
        assert!(sim.run(200_000_000).quiescent);
        for i in 0..4 {
            let out = sim.outputs(pid(i));
            let dag = sim.process(pid(i)).dag();
            let pos: HashMap<VertexId, usize> =
                out.iter().enumerate().map(|(k, o)| (o.id, k)).collect();
            for o in out {
                let v = dag.get(o.id).expect("delivered vertices are stored");
                for parent in v.parents() {
                    if parent.round == 0 {
                        continue;
                    }
                    let pp = pos.get(&parent).unwrap_or_else(|| {
                        panic!("process {i}: parent {parent} of {} not delivered", o.id)
                    });
                    assert!(pp < &pos[&o.id], "process {i}: {parent} after {}", o.id);
                }
            }
        }
    }

    /// Builds a cluster in which process `restarted` persists to a WAL and
    /// crashes/restarts, runs it, and checks the recovery invariants: no
    /// double delivery, prefix consistency with the always-up processes,
    /// and exact WAL/state equivalence at the end of the run.
    fn run_restart(
        t: &topology::Topology,
        restarted: usize,
        crash_at: u64,
        recover_at: u64,
        seed: u64,
        snapshot_every: usize,
    ) -> Vec<Vec<OrderedVertex>> {
        run_restart_config(t, restarted, crash_at, recover_at, seed, snapshot_every, false)
    }

    fn run_restart_config(
        t: &topology::Topology,
        restarted: usize,
        crash_at: u64,
        recover_at: u64,
        seed: u64,
        snapshot_every: usize,
        prune: bool,
    ) -> Vec<Vec<OrderedVertex>> {
        use asym_storage::StorageBackend;

        let mut procs = cluster(t, 6);
        if prune {
            let config = RiderConfig { max_waves: 6, prune_wal: true, ..RiderConfig::default() };
            procs[restarted] = AsymDagRider::new(pid(restarted), t.quorums.clone(), 42, config);
        }
        procs[restarted] = procs[restarted].clone().with_storage(
            crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(snapshot_every),
        );
        let mut sim = Simulation::new(procs, scheduler::Random::new(seed))
            .with_fault(pid(restarted), FaultMode::RestartAfter { crash_at, recover_at });
        for i in 0..t.n() {
            sim.input(pid(i), Block::new(vec![8000 + i as u64]));
        }
        let report = sim.run(200_000_000);
        assert!(report.quiescent, "seed {seed}: did not quiesce");

        let outputs: Vec<Vec<OrderedVertex>> =
            (0..t.n()).map(|i| sim.outputs(pid(i)).to_vec()).collect();
        let r = sim.process(pid(restarted));
        assert!(r.has_recovered(), "restart window never fired");

        // Integrity across the restart: nothing delivered twice.
        let mut seen = HashSet::new();
        for v in &outputs[restarted] {
            assert!(seen.insert(v.id), "{} delivered twice across restart", v.id);
        }
        // Prefix consistency with every always-up process.
        for (i, out) in outputs.iter().enumerate() {
            if i == restarted {
                continue;
            }
            let common = out.len().min(outputs[restarted].len());
            for k in 0..common {
                assert_eq!(out[k].id, outputs[restarted][k].id, "fork at {k} vs p{i}");
            }
        }
        // WAL/state equivalence: replaying the final log reproduces the
        // live state exactly.
        let replayed = r.replay_storage().expect("storage attached").expect("log readable");
        assert_eq!(replayed.dag.len(), r.dag().len());
        assert_eq!(replayed.decided_wave, r.decided_wave());
        assert_eq!(replayed.commit_log, r.commit_log().to_vec());
        let live: std::collections::BTreeSet<VertexId> = r.committer().delivered().collect();
        assert_eq!(replayed.delivered, live);
        outputs
    }

    #[test]
    fn restart_replays_log_and_rejoins() {
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart(&t, 2, 150, 1200, 3, 0);
        assert!(!outputs[2].is_empty(), "restarted process must catch up and deliver");
    }

    #[test]
    fn restart_with_snapshots_matches_restart_without() {
        let t = topology::uniform_threshold(4, 1);
        let plain = run_restart(&t, 1, 100, 800, 7, 0);
        let snapped = run_restart(&t, 1, 100, 800, 7, 16);
        assert_eq!(plain, snapped, "snapshot cadence must not change the execution");
    }

    #[test]
    fn restart_after_quiescence_still_catches_up() {
        // recover_at far beyond the run: recovery is forced at quiescence;
        // the restarted process must rebuild purely from WAL + fetch.
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart(&t, 3, 120, 50_000_000, 11, 0);
        assert!(!outputs[3].is_empty(), "post-quiescence recovery must still deliver");
        // It must reach the same delivered prefix as an always-up process.
        assert!(
            outputs[3].len() >= outputs[0].len() * 2 / 3,
            "recovered process fell too far behind: {} vs {}",
            outputs[3].len(),
            outputs[0].len()
        );
    }

    #[test]
    fn restart_on_ripple_topology() {
        let t = topology::ripple_unl(7, 6, 1);
        let outputs = run_restart(&t, 5, 200, 1500, 5, 32);
        assert!(!outputs[5].is_empty());
    }

    #[test]
    fn pruned_wal_restart_recovers_post_prefix_state() {
        // Pruning on, aggressive snapshot cadence: the delivered prefix is
        // garbage-collected from live DAG + snapshots, and the restart
        // still recovers, catches up and keeps all invariants (the
        // run_restart_config helper checks no-double-delivery, prefix
        // consistency and exact WAL/state equivalence — which with live
        // pruning stays *equality*, both sides lacking the pruned prefix).
        let t = topology::uniform_threshold(4, 1);
        let outputs = run_restart_config(&t, 2, 150, 1200, 3, 16, true);
        assert!(!outputs[2].is_empty(), "pruned-WAL process must still deliver");
        // Same cell without pruning delivers the same observable outputs
        // for the *other* processes... not guaranteed bit-for-bit for the
        // pruned one (weak edges may differ), so compare only delivery
        // multisets of a fault-free process.
        let unpruned = run_restart(&t, 2, 150, 1200, 3, 16);
        let ids = |o: &[OrderedVertex]| o.iter().map(|v| v.id).collect::<Vec<_>>();
        assert_eq!(ids(&outputs[0]).len(), ids(&unpruned[0]).len());
    }

    #[test]
    fn pruning_bounds_the_snapshot() {
        // Directly exercise the rider's prune-at-snapshot path: after a
        // long run the pruned process's DAG and snapshot must not contain
        // the delivered prefix, and its WAL must record a pruning floor.
        use asym_storage::StorageBackend;
        let t = topology::uniform_threshold(4, 1);
        let config = RiderConfig { max_waves: 6, prune_wal: true, ..RiderConfig::default() };
        let mut procs = cluster(&t, 6);
        procs[1] = AsymDagRider::new(pid(1), t.quorums.clone(), 42, config)
            .with_storage(crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(24));
        let mut sim = Simulation::new(procs, scheduler::Random::new(9));
        for i in 0..4 {
            sim.input(pid(i), Block::new(vec![9000 + i as u64]));
        }
        assert!(sim.run(200_000_000).quiescent);
        let r = sim.process(pid(1));
        let floor = r.dag().pruned_floor();
        assert!(floor > 0, "a 6-wave run with cadence 24 must have pruned");
        for round in 1..=floor {
            for v in r.dag().vertices_in_round(round) {
                assert!(
                    !r.committer().is_delivered(v.id()),
                    "delivered {} below the floor survived pruning",
                    v.id()
                );
            }
        }
        let replayed = r.replay_storage().unwrap().unwrap();
        assert_eq!(replayed.pruned_round, floor);
        assert_eq!(replayed.dag.len(), r.dag().len(), "pruned replay = pruned live state");
        // An unpruned twin of the same cell stores strictly more vertices.
        let mut procs = cluster(&t, 6);
        procs[1] = procs[1]
            .clone()
            .with_storage(crate::DagLog::new(StorageBackend::in_memory()).with_snapshot_every(24));
        let mut sim2 = Simulation::new(procs, scheduler::Random::new(9));
        for i in 0..4 {
            sim2.input(pid(i), Block::new(vec![9000 + i as u64]));
        }
        assert!(sim2.run(200_000_000).quiescent);
        assert!(
            r.dag().len() < sim2.process(pid(1)).dag().len(),
            "pruning must actually shrink the stored DAG"
        );
    }

    #[test]
    fn figure1_topology_runs() {
        // The 30-process counterexample system is a valid quorum system; the
        // full consensus protocol must run on it (this is the paper's own
        // setting: all processes correct).
        let t = topology::Topology {
            name: "figure-1".into(),
            fail_prone: asym_quorum::counterexample::fig1_fail_prone(),
            quorums: asym_quorum::counterexample::fig1_quorums(),
        };
        run_and_check(&t, &[], 1, 6);
    }
}
