//! Cross-product sweeps: topology × fault plan × scheduler × seed.
//!
//! A [`Matrix`] enumerates [`Scenario`]s, runs every buildable cell under
//! the standard checker suite, and reports each cell as passed (with its
//! measurements), failed (with the reproduction tuple) or unbuildable.
//! Combinations whose fault plan does not fit the topology are counted as
//! skipped rather than silently dropped.

use asym_crypto::{Digest, Sha256};

use crate::checks::{run_and_check_all, ScenarioFailure};
use crate::runner::ScenarioOutcome;
use crate::spec::{Fault, FaultPlan, Scenario, SchedulerSpec, StorageSpec};
use crate::{ByzAttack, TopologySpec};

/// Measurements of one passed cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellStats {
    /// Longest commit log across honest processes (committed waves).
    pub commits: usize,
    /// Vertices ordered at the best-progressed process.
    pub ordered: u64,
    /// Messages handed to the network.
    pub sent: u64,
    /// Delivery steps executed.
    pub steps: u64,
    /// Final simulated clock.
    pub time: u64,
    /// Simulated time per committed wave (`time / commits`; infinite when
    /// nothing committed — legal in safety-only cells).
    pub commit_latency: f64,
    /// SHA-256 over the cell's execution: every process's outputs (vertex
    /// id, ordering wave and block), every commit log, the step count, the
    /// final clock and the network counters. Equal digests across two
    /// builds mean the cell ran identically.
    pub digest: Digest,
}

impl CellStats {
    fn from_outcome(o: &ScenarioOutcome) -> Self {
        let commits = o.max_commits();
        let ordered = o.metrics.iter().map(|m| m.vertices_ordered).max().unwrap_or(0);
        CellStats {
            commits,
            ordered,
            sent: o.net.sent,
            steps: o.steps,
            time: o.time,
            commit_latency: if commits > 0 {
                o.time as f64 / commits as f64
            } else {
                f64::INFINITY
            },
            digest: Self::outcome_digest(o),
        }
    }

    fn outcome_digest(o: &ScenarioOutcome) -> Digest {
        let mut h = Sha256::new();
        let len = |n: usize| (n as u64).to_le_bytes();
        h.update(&len(o.outputs.len()));
        for outs in &o.outputs {
            h.update(&len(outs.len()));
            for v in outs {
                h.update(&v.id.round.to_le_bytes())
                    .update(&len(v.id.source.index()))
                    .update(&v.committed_in_wave.to_le_bytes())
                    .update(&len(v.block.txs.len()))
                    .update(&v.block.encode());
            }
        }
        h.update(&len(o.commit_logs.len()));
        for log in &o.commit_logs {
            h.update(&len(log.len()));
            for (wave, leader) in log {
                h.update(&wave.to_le_bytes())
                    .update(&leader.round.to_le_bytes())
                    .update(&len(leader.source.index()));
            }
        }
        h.update(&o.steps.to_le_bytes())
            .update(&o.time.to_le_bytes())
            .update(&o.net.sent.to_le_bytes())
            .update(&o.net.delivered.to_le_bytes())
            .update(&o.net.dropped.to_le_bytes())
            .update(&len(o.net.max_in_flight));
        h.finalize()
    }
}

/// Result of one matrix cell.
#[derive(Clone, Debug)]
pub enum CellStatus {
    /// All invariants held.
    Passed(CellStats),
    /// An invariant was violated (the failure holds the reproduction tuple).
    Failed(Box<ScenarioFailure>),
    /// The topology spec found no valid system (random families only).
    Unbuildable,
}

/// Outcome of a whole sweep.
#[derive(Debug, Default)]
pub struct MatrixReport {
    /// Every executed cell with its status, in sweep order.
    pub cells: Vec<(Scenario, CellStatus)>,
    /// Combinations skipped because the fault plan targets processes the
    /// topology does not have (reported so coverage gaps stay visible).
    pub skipped_unfit: usize,
}

impl MatrixReport {
    /// Number of cells in which every invariant held.
    pub fn passed(&self) -> usize {
        self.cells.iter().filter(|(_, s)| matches!(s, CellStatus::Passed(_))).count()
    }

    /// The invariant violations, in sweep order.
    pub fn failures(&self) -> Vec<&ScenarioFailure> {
        self.cells
            .iter()
            .filter_map(|(_, s)| match s {
                CellStatus::Failed(f) => Some(f.as_ref()),
                _ => None,
            })
            .collect()
    }

    /// One `cell-label  hex` line per cell, in sweep order: the outcome
    /// digest of a passed cell, `FAILED` or `UNBUILDABLE` otherwise. Two
    /// builds that produce the same listing executed every cell identically.
    pub fn digest_listing(&self) -> String {
        let mut out = String::new();
        for (scenario, status) in &self.cells {
            let value = match status {
                CellStatus::Passed(stats) => stats.digest.to_hex(),
                CellStatus::Failed(_) => "FAILED".into(),
                CellStatus::Unbuildable => "UNBUILDABLE".into(),
            };
            out.push_str(&format!("{}  {value}\n", scenario.cell()));
        }
        out
    }

    /// Number of unbuildable cells.
    pub fn unbuildable(&self) -> usize {
        self.cells.iter().filter(|(_, s)| matches!(s, CellStatus::Unbuildable)).count()
    }

    /// Renders a per-cell summary plus every failure's reproduction tuple.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (scenario, status) in &self.cells {
            match status {
                CellStatus::Passed(stats) => out.push_str(&format!(
                    "PASS {} commits={} ordered={} msgs={} time={} time/commit={:.1}\n",
                    scenario.cell(),
                    stats.commits,
                    stats.ordered,
                    stats.sent,
                    stats.time,
                    stats.commit_latency
                )),
                CellStatus::Failed(f) => out.push_str(&format!("FAIL {}\n{f}\n", scenario.cell())),
                CellStatus::Unbuildable => {
                    out.push_str(&format!("SKIP {} (topology unbuildable)\n", scenario.cell()))
                }
            }
        }
        out.push_str(&format!(
            "{} passed, {} failed, {} unbuildable, {} unfit combinations skipped\n",
            self.passed(),
            self.failures().len(),
            self.unbuildable(),
            self.skipped_unfit
        ));
        out
    }

    /// Panics with every failure's reproduction tuple if any cell failed.
    ///
    /// # Panics
    ///
    /// Panics when at least one cell violated an invariant.
    pub fn assert_all_passed(&self) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        let mut msg = format!("{} scenario cell(s) violated invariants:\n", failures.len());
        for f in failures {
            msg.push_str(&format!("{f}\n"));
        }
        panic!("{msg}");
    }
}

/// A sweep over the cross-product of four axes plus workload knobs.
///
/// Fault plans containing an honest [`Fault::Restart`] additionally sweep
/// the **persistence axis**: one cell per snapshot cadence (paired with
/// the first storage backend) plus one cell per further storage backend
/// (paired with the first cadence) — a cross at the defaults rather than a
/// full product, so the sweep grows linearly in each new axis. Plans
/// without a write-ahead log run once with the defaults.
#[derive(Clone, Debug)]
pub struct Matrix {
    /// Topology families to sweep.
    pub topologies: Vec<TopologySpec>,
    /// Fault plans to sweep.
    pub fault_plans: Vec<FaultPlan>,
    /// Scheduler adversaries to sweep.
    pub schedulers: Vec<SchedulerSpec>,
    /// Seeds per cell.
    pub seeds: Vec<u64>,
    /// Wave budget for every cell.
    pub waves: u64,
    /// Blocks injected per process.
    pub blocks_per_process: usize,
    /// Transactions per block.
    pub txs_per_block: usize,
    /// WAL snapshot cadences for restart plans (first = default; include
    /// `0` to cover the never-snapshot edge).
    pub snapshot_cadences: Vec<usize>,
    /// WAL storage backends for restart plans (first = default).
    pub restart_storages: Vec<StorageSpec>,
    /// Fault plans additionally run as **all-pruned** cells: every honest
    /// process gets a pruning write-ahead log
    /// ([`Scenario::wal_everywhere`]) at an aggressive snapshot cadence, so
    /// no peer retains the full DAG and a deep laggard can only recover
    /// through delivered-state transfer. Each plan here should contain a
    /// deep restart (early `crash_at`, far `recover_at`).
    pub all_pruned_plans: Vec<FaultPlan>,
}

/// Snapshot cadence of all-pruned cells: aggressive enough that every peer
/// prunes below a deep laggard's floor within the default wave budget.
const ALL_PRUNED_CADENCE: usize = 8;

impl Matrix {
    /// The curated tier-1 sub-matrix: every topology family, the core
    /// fault kinds (none, crash, mid-run crash, mute, crash-restart,
    /// Byzantine equivocation) plus the adversarial-recovery plans (a peer
    /// lying to a recovering process, an attacker lying during its *own*
    /// recovery), two scheduler families plus the hard-starvation
    /// adversary, two seeds, and the persistence axis (cadence 64 and the
    /// never-snapshot edge on in-memory WALs, plus a powerloss-injected
    /// cell). Small enough for `cargo test`, wide enough that each axis is
    /// exercised against each other at least once.
    pub fn smoke() -> Self {
        Matrix {
            topologies: vec![
                TopologySpec::UniformThreshold { n: 4, f: 1 },
                TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 },
                TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
                TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 11 },
            ],
            fault_plans: vec![
                FaultPlan::none(),
                FaultPlan::crash_from_start([3]),
                FaultPlan::none().with(1, Fault::CrashAfter(150)),
                FaultPlan::none().with(2, Fault::Mute),
                FaultPlan::none().with(1, Fault::Restart { crash_at: 120, recover_at: 900 }),
                FaultPlan::none().with(3, Fault::Byzantine(ByzAttack::EquivocateVertices)),
                // A Byzantine peer lying to a recovering process: forged
                // fetch replies race the honest catch-up.
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 120, recover_at: 900 })
                    .with(3, Fault::Byzantine(ByzAttack::ForgeFetchReplies)),
                // A Byzantine process lying during its *own* recovery:
                // equivocating re-SENDs + false CONFIRM re-announcements.
                FaultPlan::none().with(
                    3,
                    Fault::ByzantineRestart {
                        attack: ByzAttack::EquivocateVertices,
                        crash_at: 40,
                        recover_at: 600,
                    },
                ),
            ],
            schedulers: vec![
                SchedulerSpec::Random,
                SchedulerSpec::Fifo,
                SchedulerSpec::Starve { victims: vec![0] },
            ],
            seeds: vec![1, 2],
            waves: 5,
            blocks_per_process: 1,
            txs_per_block: 2,
            snapshot_cadences: vec![64, 0],
            restart_storages: vec![StorageSpec::Mem, StorageSpec::PowerlossMem { seed: 7 }],
            all_pruned_plans: vec![
                // A deep laggard: crashes almost immediately, recovers only
                // at quiescence — by then every peer has pruned below its
                // floor, so only delivered-state transfer can serve it.
                FaultPlan::none().with(1, Fault::Restart { crash_at: 60, recover_at: 40_000_000 }),
                // The same cell with a liar: forged offers + forged chunks
                // (correct coin leaders, fabricated deliveries) race the
                // honest transfer; the kernel-matched install must reject
                // them without costing the laggard its liveness.
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 60, recover_at: 40_000_000 })
                    .with(3, Fault::Byzantine(ByzAttack::ForgeStateOffers)),
            ],
        }
    }

    /// The full CI sweep: more sizes per family, all Byzantine attacks
    /// (single and multi-attacker, crossed against *every* scheduler
    /// family including Partition, TargetedDelay and hard Starvation),
    /// combined fault kinds, crash-restart plans with the persistence axis
    /// (cadence sweep incl. never-snapshot, file-backed WALs, powerloss
    /// injection on both backends), the adversarial-recovery plans (lying
    /// peer, lying recoverer, both at once), a guild-destroying plan
    /// (safety-only cells), and three seeds.
    pub fn full() -> Self {
        Matrix {
            topologies: vec![
                TopologySpec::UniformThreshold { n: 4, f: 1 },
                TopologySpec::UniformThreshold { n: 7, f: 2 },
                TopologySpec::UniformThreshold { n: 10, f: 3 },
                TopologySpec::RippleUnl { n: 10, unl: 8, f: 1 },
                TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
                TopologySpec::StellarTiers { n: 12, core: 4, f_core: 1 },
                TopologySpec::RandomSlices { n: 8, slice: 6, f: 1, seed: 11 },
                TopologySpec::RandomSlices { n: 9, slice: 7, f: 1, seed: 23 },
            ],
            fault_plans: vec![
                FaultPlan::none(),
                FaultPlan::crash_from_start([3]),
                FaultPlan::crash_from_start([5, 6]),
                FaultPlan::none().with(1, Fault::CrashAfter(150)),
                FaultPlan::none().with(2, Fault::Mute),
                FaultPlan::none().with(1, Fault::CrashAfter(400)).with(2, Fault::Mute),
                FaultPlan::none().with(3, Fault::Byzantine(ByzAttack::EquivocateVertices)),
                FaultPlan::none().with(3, Fault::Byzantine(ByzAttack::BogusStrongEdges)),
                FaultPlan::none().with(3, Fault::Byzantine(ByzAttack::ConfirmFlood)),
                // Crash-restart: process 1 loses its in-memory state mid-run
                // and rejoins from its write-ahead log.
                FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
                // Restart under churn: two processes with overlapping down
                // windows — both replay, refetch and rejoin while the other
                // is (or was just) down.
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 100, recover_at: 1100 })
                    .with(2, Fault::Restart { crash_at: 300, recover_at: 900 }),
                // A restart racing the partition heal: recover_at 610 lands
                // right on the Partition scheduler's heal_at 600, so the
                // replayed process rejoins into a still-settling network.
                FaultPlan::none().with(1, Fault::Restart { crash_at: 100, recover_at: 610 }),
                // Restart racing a permanent crash (guild-destroying on the
                // small topologies — those cells are safety-only).
                FaultPlan::crash_from_start([3])
                    .with(1, Fault::Restart { crash_at: 200, recover_at: 1500 }),
                // Multi-attacker: two equivocators from different identities.
                FaultPlan::none()
                    .with(2, Fault::Byzantine(ByzAttack::EquivocateVertices))
                    .with(3, Fault::Byzantine(ByzAttack::EquivocateVertices)),
                // Colluders: an equivocator plus a mute process.
                FaultPlan::none()
                    .with(2, Fault::Mute)
                    .with(3, Fault::Byzantine(ByzAttack::EquivocateVertices)),
                // Guild-destroying: beyond-threshold crashes — safety-only.
                FaultPlan::crash_from_start([1, 2]),
                // A Byzantine peer lying to a recovering process (forged
                // fetch replies + false confirmed-wave claims).
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 150, recover_at: 1200 })
                    .with(3, Fault::Byzantine(ByzAttack::ForgeFetchReplies)),
                // An attacker lying during its own recovery: swapped
                // equivocating re-SENDs + false CONFIRM re-announcements.
                FaultPlan::none().with(
                    3,
                    Fault::ByzantineRestart {
                        attack: ByzAttack::EquivocateVertices,
                        crash_at: 100,
                        recover_at: 1000,
                    },
                ),
                // Both at once: an honest process recovering while an
                // attacker "recovers" by poisoning catch-up traffic.
                FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1300 }).with(
                    3,
                    Fault::ByzantineRestart {
                        attack: ByzAttack::ForgeFetchReplies,
                        crash_at: 100,
                        recover_at: 1000,
                    },
                ),
            ],
            schedulers: vec![
                SchedulerSpec::Random,
                SchedulerSpec::Fifo,
                SchedulerSpec::RandomLatency { min: 1, max: 25 },
                SchedulerSpec::TargetedDelay { victims: vec![0] },
                SchedulerSpec::Starve { victims: vec![0] },
                SchedulerSpec::Partition {
                    groups: vec![vec![0, 1, 2], vec![3, 4, 5, 6, 7, 8, 9, 10, 11]],
                    heal_at: 600,
                },
            ],
            seeds: vec![0, 1, 2],
            waves: 5,
            blocks_per_process: 1,
            txs_per_block: 2,
            snapshot_cadences: vec![64, 0],
            // PowerlossMem is exercised by the smoke matrix; the full sweep
            // spends its budget on the real-filesystem variants.
            restart_storages: vec![
                StorageSpec::Mem,
                StorageSpec::File,
                StorageSpec::PowerlossFile { seed: 13 },
            ],
            all_pruned_plans: vec![
                // The deep laggard (see Matrix::smoke).
                FaultPlan::none().with(1, Fault::Restart { crash_at: 60, recover_at: 40_000_000 }),
                // Deep laggard vs forged-state liar.
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 60, recover_at: 40_000_000 })
                    .with(3, Fault::Byzantine(ByzAttack::ForgeStateOffers)),
                // Deep laggard vs a liar that also crashes and revives to
                // push unsolicited forged offers mid-recovery.
                FaultPlan::none()
                    .with(1, Fault::Restart { crash_at: 60, recover_at: 40_000_000 })
                    .with(
                        3,
                        Fault::ByzantineRestart {
                            attack: ByzAttack::ForgeStateOffers,
                            crash_at: 100,
                            recover_at: 1000,
                        },
                    ),
            ],
        }
    }

    /// Enumerates every fitting cell (topology-major order). Fault plans
    /// targeting processes a topology does not have are excluded; callers
    /// needing the skip count should use [`Matrix::run`].
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.scenarios_and_skips().0
    }

    /// The persistence-axis variants a fault plan sweeps: restart plans
    /// cross the cadence list with the default storage plus every further
    /// storage with the default cadence; WAL-less plans run once.
    fn wal_variants(&self, plan: &FaultPlan) -> Vec<(usize, StorageSpec)> {
        let default_cadence = self.snapshot_cadences.first().copied().unwrap_or(64);
        let default_storage = self.restart_storages.first().copied().unwrap_or(StorageSpec::Mem);
        if plan.restarts().next().is_none() {
            return vec![(default_cadence, default_storage)];
        }
        let mut variants: Vec<(usize, StorageSpec)> =
            self.snapshot_cadences.iter().map(|c| (*c, default_storage)).collect();
        variants.extend(self.restart_storages.iter().skip(1).map(|s| (default_cadence, *s)));
        if variants.is_empty() {
            variants.push((default_cadence, default_storage));
        }
        variants
    }

    fn scenarios_and_skips(&self) -> (Vec<Scenario>, usize) {
        let mut cells = Vec::new();
        let mut skipped = 0;
        for topology in &self.topologies {
            for plan in &self.fault_plans {
                let variants = self.wal_variants(plan);
                if plan.max_index().is_some_and(|m| m >= topology.n()) {
                    skipped += self.schedulers.len() * self.seeds.len() * variants.len();
                    continue;
                }
                for scheduler in &self.schedulers {
                    for seed in &self.seeds {
                        for (cadence, storage) in &variants {
                            cells.push(
                                Scenario::new(*topology, plan.clone(), scheduler.clone(), *seed)
                                    .waves(self.waves)
                                    .blocks_per_process(self.blocks_per_process)
                                    .txs_per_block(self.txs_per_block)
                                    .snapshot_every(*cadence)
                                    .storage(*storage),
                            );
                        }
                    }
                }
            }
            // The all-pruned cells: every honest process gets a pruning
            // WAL at an aggressive cadence (one cell per plan — the
            // cadence/storage cross is spent on the regular restart plans).
            for plan in &self.all_pruned_plans {
                if plan.max_index().is_some_and(|m| m >= topology.n()) {
                    skipped += self.schedulers.len() * self.seeds.len();
                    continue;
                }
                for scheduler in &self.schedulers {
                    for seed in &self.seeds {
                        cells.push(
                            Scenario::new(*topology, plan.clone(), scheduler.clone(), *seed)
                                .waves(self.waves)
                                .blocks_per_process(self.blocks_per_process)
                                .txs_per_block(self.txs_per_block)
                                .snapshot_every(ALL_PRUNED_CADENCE)
                                .wal_everywhere(true),
                        );
                    }
                }
            }
        }
        (cells, skipped)
    }

    /// Runs every cell under the standard checker suite. Cells are
    /// independent deterministic executions, so they are spread across a
    /// worker pool; the report lists them in sweep order regardless.
    pub fn run(&self) -> MatrixReport {
        let (cells, skipped_unfit) = self.scenarios_and_skips();
        let statuses = run_cells(&cells);
        MatrixReport { cells: cells.into_iter().zip(statuses).collect(), skipped_unfit }
    }
}

/// Executes cells on a worker pool (one worker per available core, capped by
/// the cell count) and returns their statuses in input order.
fn run_cells(cells: &[Scenario]) -> Vec<CellStatus> {
    let run_one = |scenario: &Scenario| match run_and_check_all(scenario) {
        Ok(outcome) => CellStatus::Passed(CellStats::from_outcome(&outcome)),
        Err(failure) if failure.check == "build" => CellStatus::Unbuildable,
        Err(failure) => CellStatus::Failed(Box::new(failure)),
    };
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, cells.len().max(1));
    if workers <= 1 {
        return cells.iter().map(run_one).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut statuses: Vec<Option<CellStatus>> = vec![None; cells.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= cells.len() {
                            return local;
                        }
                        local.push((i, run_one(&cells[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, status) in handle.join().expect("matrix worker panicked") {
                statuses[i] = Some(status);
            }
        }
    });
    statuses.into_iter().map(|s| s.expect("every cell executed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_covers_the_acceptance_axes() {
        let m = Matrix::smoke();
        let families: std::collections::HashSet<_> =
            m.topologies.iter().map(|t| t.family()).collect();
        assert!(families.len() >= 3, "≥3 topology families");
        assert!(m.fault_plans.len() >= 3, "≥3 fault plans");
        assert!(m.schedulers.len() >= 2, "≥2 schedulers");
        assert!(m.seeds.len() >= 2, "multiple seeds");
        assert!(
            m.fault_plans.iter().any(|p| p.restarts().next().is_some()),
            "tier-1 matrix must sweep the crash-restart axis"
        );
        // The adversarial-recovery axes (this PR's tentpole) stay covered.
        let cells = m.scenarios();
        assert!(
            cells.iter().any(|s| {
                s.faults.restarts().next().is_some()
                    && s.faults.byzantine().any(|(_, a)| a == ByzAttack::ForgeFetchReplies)
            }),
            "no cell with a Byzantine peer lying to a recovering process"
        );
        assert!(
            cells.iter().any(|s| s.faults.byz_restarts().next().is_some()),
            "no cell with a Byzantine process lying during its own recovery"
        );
        assert!(
            cells.iter().any(|s| s.storage.is_powerloss() && s.faults.restarts().next().is_some()),
            "no powerloss-injected restart cell"
        );
        assert!(
            cells.iter().any(|s| s.snapshot_every == 0 && s.faults.restarts().next().is_some()),
            "the never-snapshot cadence edge is not swept"
        );
        assert!(
            cells.iter().any(|s| s.scheduler.needs_flush()),
            "no hard-starvation scheduler cell"
        );
        // The all-pruned delivered-state-transfer axis (this PR's tentpole):
        // a deep laggard with every peer pruning, with and without a
        // forged-state liar.
        assert!(
            cells.iter().any(|s| {
                s.wal_everywhere && s.prune_wal && s.faults.restarts().next().is_some()
            }),
            "no all-pruned deep-catch-up cell"
        );
        assert!(
            cells.iter().any(|s| {
                s.wal_everywhere
                    && s.faults.byzantine().any(|(_, a)| a == ByzAttack::ForgeStateOffers)
            }),
            "no forged-state-offer cell in an all-pruned sweep"
        );
    }

    #[test]
    fn full_matrix_crosses_attacks_with_every_scheduler_family() {
        // The ROADMAP once listed "Byzantine × Partition / TargetedDelay"
        // and "multi-attacker plans" as uncovered; pin the coverage so it
        // cannot silently regress.
        let m = Matrix::full();
        let cells = m.scenarios();
        for scheduler in ["partition", "targeted-delay", "fifo", "random", "latency", "starve"] {
            assert!(
                cells.iter().any(|s| {
                    s.scheduler.name() == scheduler && s.faults.byzantine().next().is_some()
                }),
                "no Byzantine cell under the {scheduler} scheduler"
            );
            assert!(
                cells.iter().any(|s| {
                    s.scheduler.name() == scheduler && s.faults.restarts().next().is_some()
                }),
                "no crash-restart cell under the {scheduler} scheduler"
            );
        }
        assert!(
            cells.iter().any(|s| s.faults.byzantine().count() >= 2),
            "no multi-attacker cell in the full matrix"
        );
        assert!(
            cells.iter().any(|s| {
                s.faults.byzantine().next().is_some()
                    && s.faults.assignments().iter().any(|(_, f)| matches!(f, Fault::Mute))
            }),
            "no equivocator+mute colluder cell in the full matrix"
        );
        // The persistence axis: every configured storage backend and
        // cadence appears on some restart cell (powerloss-mem lives in the
        // smoke matrix).
        for storage in ["mem", "file", "powerloss-file"] {
            assert!(
                cells.iter().any(|s| {
                    s.storage.name() == storage && s.faults.restarts().next().is_some()
                }),
                "no restart cell on the {storage} backend"
            );
        }
        assert!(cells.iter().any(|s| s.snapshot_every == 0));
        // Both-recovering: an honest restart racing a Byzantine restart.
        assert!(
            cells.iter().any(|s| {
                s.faults.restarts().next().is_some() && s.faults.byz_restarts().next().is_some()
            }),
            "no cell with honest and Byzantine recovery racing each other"
        );
        // Restart under churn (once an open ROADMAP gap): overlapping down
        // windows, and a restart whose recovery races the partition heal.
        assert!(
            cells.iter().any(|s| s.faults.restarts().count() >= 2),
            "no overlapping-down-window churn cell"
        );
        assert!(
            cells.iter().any(|s| {
                s.scheduler.name() == "partition"
                    && s.faults.assignments().iter().any(|(_, f)| {
                        matches!(f, Fault::Restart { recover_at, .. } if *recover_at == 610)
                    })
            }),
            "no restart-races-the-heal cell under the partition scheduler"
        );
        // All-pruned deep catch-up, including the lying-recoverer variant.
        assert!(
            cells.iter().any(|s| s.wal_everywhere && s.faults.restarts().next().is_some()),
            "no all-pruned cell in the full sweep"
        );
        assert!(
            cells.iter().any(|s| {
                s.wal_everywhere
                    && s.faults.byz_restarts().any(|(_, a)| a == ByzAttack::ForgeStateOffers)
            }),
            "no all-pruned cell with a forged-state liar that itself restarts"
        );
    }

    #[test]
    fn unfit_plans_are_counted_not_silently_dropped() {
        let m = Matrix {
            topologies: vec![TopologySpec::UniformThreshold { n: 4, f: 1 }],
            fault_plans: vec![FaultPlan::crash_from_start([9])],
            schedulers: vec![SchedulerSpec::Fifo],
            seeds: vec![1, 2],
            waves: 3,
            blocks_per_process: 1,
            txs_per_block: 1,
            snapshot_cadences: vec![64],
            restart_storages: vec![StorageSpec::Mem],
            all_pruned_plans: vec![],
        };
        let (cells, skipped) = m.scenarios_and_skips();
        assert!(cells.is_empty());
        assert_eq!(skipped, 2);
    }

    #[test]
    fn tiny_matrix_runs_and_reports() {
        let m = Matrix {
            topologies: vec![TopologySpec::UniformThreshold { n: 4, f: 1 }],
            fault_plans: vec![FaultPlan::none(), FaultPlan::crash_from_start([3])],
            schedulers: vec![SchedulerSpec::Fifo],
            seeds: vec![1],
            waves: 4,
            blocks_per_process: 1,
            txs_per_block: 1,
            snapshot_cadences: vec![64],
            restart_storages: vec![StorageSpec::Mem],
            all_pruned_plans: vec![],
        };
        let report = m.run();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.passed(), 2, "{}", report.render());
        report.assert_all_passed();
        assert!(report.render().contains("PASS"));
        // The digest listing replays exactly and tells the two cells apart.
        let listing = report.digest_listing();
        assert_eq!(listing, m.run().digest_listing());
        let digests: Vec<&str> = listing.lines().map(|l| l.rsplit("  ").next().unwrap()).collect();
        assert_eq!(digests.len(), 2);
        assert!(digests.iter().all(|d| d.len() == 64), "{listing}");
        assert_ne!(digests[0], digests[1], "crashing p3 changes the execution");
    }

    #[test]
    fn wal_variants_cross_at_the_defaults_not_the_full_product() {
        let m = Matrix {
            topologies: vec![TopologySpec::UniformThreshold { n: 4, f: 1 }],
            fault_plans: vec![
                FaultPlan::none(),
                FaultPlan::none().with(1, Fault::Restart { crash_at: 10, recover_at: 100 }),
            ],
            schedulers: vec![SchedulerSpec::Fifo],
            seeds: vec![1],
            waves: 3,
            blocks_per_process: 1,
            txs_per_block: 1,
            snapshot_cadences: vec![64, 0],
            restart_storages: vec![StorageSpec::Mem, StorageSpec::File],
            all_pruned_plans: vec![],
        };
        let cells = m.scenarios();
        // 1 (fault-free, defaults only) + restart plan × (2 cadences + 1
        // extra storage) = 4.
        assert_eq!(cells.len(), 4);
        let restart_cells: Vec<_> =
            cells.iter().filter(|s| s.faults.restarts().next().is_some()).collect();
        assert_eq!(restart_cells.len(), 3);
        assert!(restart_cells
            .iter()
            .any(|s| s.snapshot_every == 0 && s.storage == StorageSpec::Mem));
        assert!(restart_cells
            .iter()
            .any(|s| s.snapshot_every == 64 && s.storage == StorageSpec::File));
    }
}
