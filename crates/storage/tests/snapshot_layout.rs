//! Oracle for the snapshot writer: over seeded random consensus states, the
//! blob `EventLog::install_snapshot` writes is byte-identical to the
//! reference encoding (every event materialized, encoded into its own
//! buffer and framed one by one — `support/reference_layout.rs`).
//!
//! Each seed evolves one state through many snapshots on the *same* log, so
//! the writer's checksum memo carries entries from snapshot to snapshot. The
//! states cover a non-zero pruning floor, undelivered vertices kept below
//! it, delivered ids recorded out of order, residue for ids never in the
//! DAG, residue of vertices the DAG still stores, empty blocks, and vertex
//! or residue records that leave the snapshot and come back with different
//! bytes under the same id.

mod support;

use asym_dag::{DagStore, Vertex, VertexId, WaveId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_storage::{prune_dag, EventLog, MemStorage};

use support::reference_layout::reference_blob;

/// splitmix64: a small deterministic stream for the state generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn block(&mut self) -> Vec<u8> {
        if self.chance(25) {
            return Vec::new();
        }
        (0..1 + self.below(40)).map(|_| self.next() as u8).collect()
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

type Log = EventLog<Vec<u8>, MemStorage>;

/// A consensus state evolving the way a live process's does, plus the odd
/// change no honest process makes (a vertex or residue block replaced
/// under the same id after it left a snapshot).
struct World {
    n: usize,
    rng: Rng,
    dag: DagStore<Vec<u8>>,
    /// Delivered ids with their ordering wave, in no particular order.
    delivered: Vec<(VertexId, WaveId)>,
    /// Blocks of delivered vertices, in no particular order.
    residue: Vec<(VertexId, Vec<u8>)>,
    confirmed: Vec<WaveId>,
    commit_log: Vec<(WaveId, VertexId)>,
    top: u64,
    /// A vertex taken out of the DAG, to come back with another block.
    removed: Option<Vertex<Vec<u8>>>,
    /// A residue entry taken out, to come back with another block.
    removed_residue: Option<VertexId>,
    /// Ids delivered with residue but never stored in the DAG.
    never_stored: Vec<VertexId>,
}

/// What the generated states covered, so a generator change cannot quietly
/// stop exercising a case.
#[derive(Default)]
struct Coverage {
    snapshots: usize,
    pruned_floor: usize,
    undelivered_below_floor: usize,
    residue_never_in_dag: usize,
    residue_still_in_dag: usize,
    empty_blocks: usize,
    rekeyed: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let n = 3 + rng.below(5) as usize;
        World {
            n,
            rng,
            dag: DagStore::with_genesis(n, Vec::new()),
            delivered: Vec::new(),
            residue: Vec::new(),
            confirmed: Vec::new(),
            commit_log: Vec::new(),
            top: 0,
            removed: None,
            removed_residue: None,
            never_stored: Vec::new(),
        }
    }

    fn is_delivered(&self, id: VertexId) -> bool {
        self.delivered.iter().any(|(d, _)| *d == id)
    }

    fn add_round(&mut self, log: &mut Log) {
        let r = self.top + 1;
        let below = self.dag.sources_in_round_or_pruned(r - 1);
        for s in 0..self.n {
            if !self.rng.chance(85) {
                continue;
            }
            let mut strong: ProcessSet =
                below.iter().filter(|_| self.rng.chance(70)).collect::<ProcessSet>();
            if strong.is_empty() {
                strong = below.clone();
            }
            let mut weak = Vec::new();
            if r >= 3 {
                for _ in 0..self.rng.below(3) {
                    let wr = 1 + self.rng.below(r - 2);
                    let ws = ProcessId::new(self.rng.below(self.n as u64) as usize);
                    let id = VertexId::new(wr, ws);
                    if (self.dag.contains(id) || self.dag.is_pruned(id)) && !weak.contains(&id) {
                        weak.push(id);
                    }
                }
            }
            let v = Vertex::new(ProcessId::new(s), r, self.rng.block(), strong, weak);
            if self.rng.chance(50) {
                log.append_vertex(&v).unwrap();
            }
            self.dag.insert(v).unwrap();
        }
        self.top = r;
    }

    fn step(&mut self, log: &mut Log) {
        for _ in 0..1 + self.rng.below(2) {
            self.add_round(log);
        }
        // Deliver a random selection of stored vertices, oldest rounds
        // favoured, in random order.
        let wave = self.commit_log.len() as u64 + 1;
        let mut fresh = Vec::new();
        for r in 1..=self.top {
            for v in self.dag.vertices_in_round(r) {
                let odds = if r + 4 < self.top { 60 } else { 10 };
                if !self.is_delivered(v.id()) && self.rng.chance(odds) {
                    fresh.push((v.id(), wave));
                }
            }
        }
        self.rng.shuffle(&mut fresh);
        if let Some(&(leader, _)) = fresh.first() {
            self.commit_log.push((wave, leader));
            if self.rng.chance(70) {
                self.confirmed.push(wave);
            }
        }
        self.delivered.extend(fresh);
        // Residue for an id the DAG never held, as a state install leaves.
        if self.rng.chance(30) && self.top > 1 {
            let r = 1 + self.rng.below(self.top - 1);
            let s = ProcessId::new(self.rng.below(self.n as u64) as usize);
            let id = VertexId::new(r, s);
            if !self.dag.contains(id) && !self.is_delivered(id) {
                self.dag.note_pruned(id);
                self.never_stored.push(id);
                self.delivered.push((id, wave));
                let block = self.rng.block();
                self.residue.push((id, block));
            }
        }
        // A residue entry for a vertex the DAG still stores.
        if self.rng.chance(20) {
            let stored: Vec<VertexId> = self
                .delivered
                .iter()
                .map(|(id, _)| *id)
                .filter(|id| self.dag.contains(*id))
                .collect();
            if !stored.is_empty() {
                let id = stored[self.rng.below(stored.len() as u64) as usize];
                if !self.residue.iter().any(|(r, _)| *r == id) {
                    let block = self.dag.get(id).unwrap().block().clone();
                    self.residue.push((id, block));
                }
            }
        }
        // Prune the delivered prefix below a floor behind the frontier.
        if self.rng.chance(40) && self.top > 4 {
            let floor = self.dag.pruned_floor().max(self.top - 2 - self.rng.below(3));
            let delivered = &self.delivered;
            let is_delivered = |id| delivered.iter().any(|(d, _)| *d == id);
            for v in prune_dag(&mut self.dag, is_delivered, floor) {
                self.residue.retain(|(id, _)| *id != v.id());
                self.residue.push((v.id(), v.into_block()));
            }
        }
        // Bring back what left an earlier snapshot, with different bytes.
        if let Some(v) = self.removed.take() {
            let block = self.rng.block();
            let mut block = block;
            block.push(0xEE);
            let back = Vertex::new(
                v.source(),
                v.round(),
                block,
                v.strong_edges().clone(),
                v.weak_edges().to_vec(),
            );
            if !self.dag.contains(back.id()) && self.dag.parents_present(&back) {
                self.dag.insert(back).unwrap();
            }
        } else if self.rng.chance(30) {
            let candidates: Vec<VertexId> = self
                .dag
                .vertices_in_round(self.top)
                .map(Vertex::id)
                .filter(|id| !self.is_delivered(*id))
                .collect();
            if let Some(&id) = candidates.first() {
                self.removed = self.dag.remove(id);
            }
        }
        if let Some(id) = self.removed_residue.take() {
            let mut block = self.rng.block();
            block.push(0xDD);
            self.residue.push((id, block));
        } else if self.rng.chance(30) {
            let absent: Vec<usize> = (0..self.residue.len())
                .filter(|i| !self.dag.contains(self.residue[*i].0))
                .collect();
            if let Some(&i) = absent.first() {
                self.removed_residue = Some(self.residue.remove(i).0);
            }
        }
        self.rng.shuffle(&mut self.delivered);
        self.rng.shuffle(&mut self.residue);
        self.rng.shuffle(&mut self.confirmed);
    }

    fn observe(&self, cov: &mut Coverage) {
        let floor = self.dag.pruned_floor();
        cov.snapshots += 1;
        cov.pruned_floor += usize::from(floor > 0);
        cov.undelivered_below_floor += usize::from(
            (1..=floor).any(|r| self.dag.vertices_in_round(r).any(|v| !self.is_delivered(v.id()))),
        );
        cov.residue_never_in_dag +=
            usize::from(self.residue.iter().any(|(id, _)| self.never_stored.contains(id)));
        cov.residue_still_in_dag +=
            usize::from(self.residue.iter().any(|(id, _)| self.dag.contains(*id)));
        cov.empty_blocks += usize::from(
            self.residue.iter().any(|(id, b)| b.is_empty() && !self.dag.contains(*id))
                && (1..=self.top)
                    .any(|r| self.dag.vertices_in_round(r).any(|v| v.block().is_empty())),
        );
        cov.rekeyed += usize::from(self.removed.is_some() || self.removed_residue.is_some());
    }

    /// Installs a snapshot through the writer and returns its bytes.
    fn install(&self, log: &mut Log) -> Vec<u8> {
        log.install_snapshot(
            &self.dag,
            self.confirmed.iter().copied(),
            &self.commit_log,
            self.delivered.iter().copied(),
            self.residue.iter().map(|(id, b)| (*id, b)),
        )
        .unwrap();
        log.backend().snapshot_bytes().unwrap().to_vec()
    }

    fn reference(&self) -> Vec<u8> {
        reference_blob(
            &self.dag,
            self.confirmed.iter().copied(),
            &self.commit_log,
            self.delivered.iter().copied(),
            self.residue.iter().cloned(),
        )
    }

    /// Records that carry a block: stored vertices plus residue of absent
    /// vertices — the ones whose checksum the log memoizes.
    fn keyed_records(&self) -> usize {
        let vertices: usize = (1..=self.top).map(|r| self.dag.vertices_in_round(r).count()).sum();
        vertices + self.residue.iter().filter(|(id, _)| !self.dag.contains(*id)).count()
    }
}

#[test]
fn snapshot_blob_matches_reference_layout() {
    let mut cov = Coverage::default();
    for seed in 0..60u64 {
        let mut world = World::new(seed);
        let mut log = Log::new(MemStorage::new()).with_snapshot_every(0);
        for step in 0..30 {
            world.step(&mut log);
            world.observe(&mut cov);
            let blob = world.install(&mut log);
            let reference = world.reference();
            if blob != reference {
                let at = blob.iter().zip(&reference).position(|(a, b)| a != b);
                panic!(
                    "seed {seed} step {step}: writer blob ({} bytes) differs from the reference \
                     ({} bytes), first difference at byte {at:?}",
                    blob.len(),
                    reference.len()
                );
            }
            assert_eq!(
                log.memoized_checksums(),
                world.keyed_records(),
                "seed {seed} step {step}: the memo must hold exactly the latest snapshot's \
                 vertex and residue records"
            );
        }
        let replayed = log.replay(world.n, ProcessId::new(0), Vec::new()).unwrap();
        assert_eq!(replayed.dag.len(), world.dag.len(), "seed {seed}: the blob replays");
    }
    let Coverage {
        snapshots,
        pruned_floor,
        undelivered_below_floor,
        residue_never_in_dag,
        residue_still_in_dag,
        empty_blocks,
        rekeyed,
    } = cov;
    for (what, count) in [
        ("a non-zero pruned floor", pruned_floor),
        ("undelivered vertices below the floor", undelivered_below_floor),
        ("residue for ids never in the DAG", residue_never_in_dag),
        ("residue of vertices the DAG still stores", residue_still_in_dag),
        ("empty blocks", empty_blocks),
        ("records re-keyed after leaving a snapshot", rekeyed),
    ] {
        assert!(
            count * 10 >= snapshots,
            "only {count} of {snapshots} snapshots had {what}: the generator lost a case"
        );
    }
}
