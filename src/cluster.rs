//! High-level cluster harness: build a trust topology, pick an adversary,
//! inject a workload, run to quiescence, and get checked results back.
//!
//! This is the API the examples and experiment binaries drive; it glues the
//! substrate crates together so a downstream user never has to wire the
//! simulator by hand.

use asym_core::{AsymDagRider, Block, DagRider, OrderedVertex, RiderConfig, RiderMetrics};
use asym_quorum::{maximal_guild, topology::Topology, ProcessId, ProcessSet};
use asym_sim::{FaultMode, NetStats, Protocol, Simulation};

pub use asym_sim::Adversary;

/// Everything a finished cluster run reports.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Atomic-broadcast outputs, per process, in delivery order.
    pub outputs: Vec<Vec<OrderedVertex>>,
    /// Per-process protocol counters.
    pub metrics: Vec<RiderMetrics>,
    /// Network counters (message complexity).
    pub net: NetStats,
    /// Delivery steps executed.
    pub steps: u64,
    /// Final simulated clock (equals steps except under `Latency`).
    pub time: u64,
    /// Whether the run ended in quiescence (vs. budget exhaustion).
    pub quiescent: bool,
    /// The maximal guild of the configured failure set, if any.
    pub guild: Option<ProcessSet>,
}

impl ClusterReport {
    /// Asserts pairwise prefix consistency of the outputs of the given
    /// processes (the atomic-broadcast total-order property): at every common
    /// position both delivered the same vertex id *and* the same block.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if two sequences diverge.
    pub fn assert_total_order(&self, members: &ProcessSet) {
        for a in members {
            for b in members {
                let (oa, ob) = (&self.outputs[a.index()], &self.outputs[b.index()]);
                let common = oa.len().min(ob.len());
                for k in 0..common {
                    assert_eq!(
                        oa[k].id, ob[k].id,
                        "total order violated between {a} and {b} at position {k}"
                    );
                    assert_eq!(
                        oa[k].block, ob[k].block,
                        "{a} and {b} delivered {} at position {k} with different blocks",
                        oa[k].id
                    );
                }
            }
        }
    }

    /// Transactions delivered by a process, in order.
    pub fn delivered_txs(&self, p: ProcessId) -> Vec<u64> {
        self.outputs[p.index()].iter().flat_map(|o| o.block.txs.clone()).collect()
    }

    /// Total committed transactions at the best-progressed process.
    pub fn max_txs_ordered(&self) -> u64 {
        self.metrics.iter().map(|m| m.txs_ordered).max().unwrap_or(0)
    }

    /// Average number of waves per direct commit across processes that
    /// attempted at least one wave — the Lemma 4.4 observable.
    pub fn waves_per_commit(&self) -> Option<f64> {
        let (attempted, committed): (u64, u64) = self
            .metrics
            .iter()
            .fold((0, 0), |(a, c), m| (a + m.waves_attempted, c + m.waves_committed));
        (committed > 0).then(|| attempted as f64 / committed as f64)
    }
}

/// Builder for one consensus execution over a trust topology.
///
/// # Examples
///
/// ```
/// use asym_dag_rider::{Adversary, Cluster};
/// use asym_quorum::{topology, ProcessSet};
///
/// let report = Cluster::new(topology::uniform_threshold(4, 1))
///     .adversary(Adversary::Random(7))
///     .waves(4)
///     .blocks_per_process(1)
///     .run_asymmetric();
/// assert!(report.quiescent);
/// report.assert_total_order(&ProcessSet::full(4));
/// ```
#[derive(Clone, Debug)]
pub struct Cluster {
    topology: Topology,
    adversary: Adversary,
    coin_seed: u64,
    waves: u64,
    crashed: ProcessSet,
    blocks_per_process: usize,
    txs_per_block: usize,
    kernel_amplification: bool,
    max_steps: u64,
}

impl Cluster {
    /// Starts a cluster description over a topology.
    pub fn new(topology: Topology) -> Self {
        Cluster {
            topology,
            adversary: Adversary::Random(1),
            coin_seed: 42,
            waves: 6,
            crashed: ProcessSet::new(),
            blocks_per_process: 1,
            txs_per_block: 4,
            kernel_amplification: true,
            max_steps: 500_000_000,
        }
    }

    /// Selects the delivery adversary (default: `Random(1)`).
    pub fn adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the shared coin seed (default 42).
    pub fn coin_seed(mut self, seed: u64) -> Self {
        self.coin_seed = seed;
        self
    }

    /// Bounds the execution to this many waves (default 6).
    pub fn waves(mut self, waves: u64) -> Self {
        self.waves = waves;
        self
    }

    /// Crashes the given processes from the start.
    pub fn crash<I: IntoIterator<Item = usize>>(mut self, ids: I) -> Self {
        self.crashed = ids.into_iter().collect();
        self
    }

    /// Number of blocks each correct process `aa-broadcast`s (default 1).
    pub fn blocks_per_process(mut self, blocks: usize) -> Self {
        self.blocks_per_process = blocks;
        self
    }

    /// Transactions per injected block (default 4).
    pub fn txs_per_block(mut self, txs: usize) -> Self {
        self.txs_per_block = txs;
        self
    }

    /// Toggles the CONFIRM-from-kernel amplification (ablation ABL).
    pub fn kernel_amplification(mut self, on: bool) -> Self {
        self.kernel_amplification = on;
        self
    }

    /// Overrides the delivery-step budget.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// The topology under test.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn config(&self) -> RiderConfig {
        RiderConfig {
            max_waves: self.waves,
            allow_empty_blocks: true,
            kernel_amplification: self.kernel_amplification,
            ..RiderConfig::default()
        }
    }

    fn run_generic<P>(&self, procs: Vec<P>) -> ClusterReport
    where
        P: Protocol<Input = Block, Output = OrderedVertex> + HasMetrics,
        P::Msg: Clone + core::fmt::Debug + 'static,
    {
        let n = procs.len();
        let mut sim = Simulation::new(procs, self.adversary.build::<P::Msg>());
        for c in &self.crashed {
            sim = sim.with_fault(c, FaultMode::CrashedFromStart);
        }
        let mut tx = 0u64;
        for b in 0..self.blocks_per_process {
            for i in 0..n {
                if self.crashed.contains(ProcessId::new(i)) {
                    continue;
                }
                let txs: Vec<u64> = (0..self.txs_per_block)
                    .map(|_| {
                        tx += 1;
                        tx
                    })
                    .collect();
                sim.input(ProcessId::new(i), Block::new(txs));
                let _ = b;
            }
        }
        let report = sim.run(self.max_steps);
        let outputs: Vec<Vec<OrderedVertex>> =
            (0..n).map(|i| sim.outputs(ProcessId::new(i)).to_vec()).collect();
        let metrics: Vec<RiderMetrics> =
            (0..n).map(|i| sim.process(ProcessId::new(i)).metrics()).collect();
        ClusterReport {
            outputs,
            metrics,
            net: sim.stats(),
            steps: report.steps,
            time: sim.now(),
            quiescent: report.quiescent,
            guild: maximal_guild(&self.topology.fail_prone, &self.topology.quorums, &self.crashed),
        }
    }

    /// Runs **asymmetric DAG-Rider** (Algorithms 4–6) on this cluster.
    pub fn run_asymmetric(&self) -> ClusterReport {
        let procs: Vec<AsymDagRider> = (0..self.topology.n())
            .map(|i| {
                AsymDagRider::new(
                    ProcessId::new(i),
                    self.topology.quorums.clone(),
                    self.coin_seed,
                    self.config(),
                )
            })
            .collect();
        self.run_generic(procs)
    }

    /// Runs the **symmetric DAG-Rider baseline** with threshold `f`
    /// (ignores the topology's quorums; uses `n − f` thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f`.
    pub fn run_baseline(&self, f: usize) -> ClusterReport {
        let n = self.topology.n();
        let procs: Vec<DagRider> = (0..n)
            .map(|i| DagRider::new(ProcessId::new(i), n, f, self.coin_seed, self.config()))
            .collect();
        self.run_generic(procs)
    }
}

/// Internal glue: both protocol variants expose their counters.
pub trait HasMetrics {
    /// The process's execution counters.
    fn metrics(&self) -> RiderMetrics;
}

impl HasMetrics for AsymDagRider {
    fn metrics(&self) -> RiderMetrics {
        AsymDagRider::metrics(self)
    }
}

impl HasMetrics for DagRider {
    fn metrics(&self) -> RiderMetrics {
        DagRider::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;

    #[test]
    fn asymmetric_run_reports_consistent_numbers() {
        let report = Cluster::new(topology::uniform_threshold(4, 1))
            .adversary(Adversary::Random(3))
            .waves(4)
            .run_asymmetric();
        assert!(report.quiescent);
        assert_eq!(report.outputs.len(), 4);
        assert_eq!(report.guild, Some(ProcessSet::full(4)));
        report.assert_total_order(&ProcessSet::full(4));
        assert!(report.net.sent >= report.net.delivered);
        assert!(report.waves_per_commit().is_some());
    }

    #[test]
    #[should_panic(expected = "with different blocks")]
    fn total_order_check_catches_a_same_id_block_fork() {
        let mut report = Cluster::new(topology::uniform_threshold(4, 1))
            .adversary(Adversary::Random(3))
            .waves(4)
            .run_asymmetric();
        report.outputs[1][0].block = Block::new(vec![424_242]);
        report.assert_total_order(&ProcessSet::full(4));
    }

    #[test]
    fn baseline_runs_on_same_harness() {
        let report = Cluster::new(topology::uniform_threshold(4, 1))
            .adversary(Adversary::Fifo)
            .waves(4)
            .run_baseline(1);
        assert!(report.quiescent);
        report.assert_total_order(&ProcessSet::full(4));
    }

    #[test]
    fn crashes_shrink_the_guild() {
        let report =
            Cluster::new(topology::uniform_threshold(7, 2)).crash([5, 6]).waves(5).run_asymmetric();
        let guild = report.guild.clone().unwrap();
        assert_eq!(guild, ProcessSet::from_indices([0, 1, 2, 3, 4]));
        report.assert_total_order(&guild);
        for g in &guild {
            assert!(!report.outputs[g.index()].is_empty(), "{g} made no progress");
        }
    }

    #[test]
    fn latency_adversary_reports_simulated_time() {
        let report = Cluster::new(topology::uniform_threshold(4, 1))
            .adversary(Adversary::Latency { seed: 5, min: 10, max: 100 })
            .waves(3)
            .run_asymmetric();
        assert!(report.quiescent);
        assert!(report.time > report.steps, "latency model inflates the clock");
    }

    #[test]
    fn delivered_txs_contain_workload() {
        let report = Cluster::new(topology::uniform_threshold(4, 1))
            .blocks_per_process(2)
            .waves(8)
            .run_asymmetric();
        let txs = report.delivered_txs(ProcessId::new(0));
        // 4 processes × 2 blocks × 4 txs = 32 injected transactions.
        assert!(txs.len() >= 16, "most of the workload must be ordered, got {}", txs.len());
        assert!(report.max_txs_ordered() >= txs.len() as u64);
    }
}
