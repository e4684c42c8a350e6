//! One execution of a workload, split into the phases the benchmark times:
//! set-up (processes and inputs over a built topology), the run (first
//! delivery to quiescence, catch-up included) and the harvest into a
//! [`ScenarioOutcome`] for the checker suite; and [`full_set_up`], which
//! also builds the topology (trust validation included).
//!
//! The phases mirror `Scenario::try_run`, with the topology built once, so
//! an execution here is the same execution the scenario runner produces
//! (the self-tests compare fingerprints).

use std::time::Instant;

use asym_core::{AsymDagRider, AsymRiderMsg, Block, DagLog, OrderedVertex, RiderConfig};
use asym_crypto::Sha256;
use asym_quorum::topology::Topology;
use asym_quorum::{maximal_guild, ProcessId, ProcessSet};
use asym_scenarios::{checks, Fault, Scenario, ScenarioOutcome, StorageSpec};
use asym_sim::{Protocol, Scheduler, Simulation};
use asym_storage::{StorageBackend, WalStats};

use crate::alloc;
use crate::trace::{SharedTrace, TimedScheduler, Traced};

/// Steps between two polls of every process's decided wave.
pub const POLL_STEPS: u64 = 32;

/// A protocol instance the harness can observe as an [`AsymDagRider`].
pub trait Rider: Protocol<Msg = AsymRiderMsg, Input = Block, Output = OrderedVertex> {
    /// The observed process.
    fn rider(&self) -> &AsymDagRider;
}

impl Rider for AsymDagRider {
    fn rider(&self) -> &AsymDagRider {
        self
    }
}

impl Rider for Traced {
    fn rider(&self) -> &AsymDagRider {
        &self.inner
    }
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A set-up execution, ready to run.
pub struct Prepared<P: Protocol, S> {
    sim: Simulation<P, S>,
    topology: Topology,
    injected: Vec<Vec<Block>>,
    heap_base: usize,
}

/// Builds the scenario's topology, trust validation included.
///
/// # Panics
///
/// Panics if the topology cannot be built.
pub fn build_topology(scenario: &Scenario) -> Topology {
    scenario.topology.build().expect("workload topologies are buildable")
}

/// Constructs the processes over a copy of `topology` (each wrapped by
/// `wrap`), the scheduler (`sched` gets the scenario's scheduler and `n`)
/// and injects every process's blocks. Restarts the heap high-water mark
/// first, so the copy counts towards the execution's peak heap.
///
/// # Panics
///
/// Panics if the scenario needs a feature the benchmark's workloads do not
/// use: Byzantine or crashed-from-start processes, file or powerloss
/// storage, a starving scheduler.
pub fn set_up<P, S>(
    scenario: &Scenario,
    topology: &Topology,
    wrap: impl Fn(AsymDagRider) -> P,
    sched: impl FnOnce(Box<dyn Scheduler<AsymRiderMsg>>, usize) -> S,
) -> Prepared<P, S>
where
    P: Rider,
    S: Scheduler<AsymRiderMsg>,
{
    assert!(
        scenario.faults.byzantine().next().is_none()
            && !scenario.faults.assignments().iter().any(|(_, f)| matches!(f, Fault::Crash))
            && scenario.storage == StorageSpec::Mem
            && !scenario.scheduler.needs_flush(),
        "benchmark workloads run honest processes on in-memory WALs: {}",
        scenario.cell()
    );
    let heap_base = alloc::reset_peak();
    let topology = topology.clone();
    let n = topology.n();
    let config = RiderConfig {
        max_waves: scenario.waves,
        prune_wal: scenario.prune_wal,
        ..Default::default()
    };
    let restarts: Vec<usize> = scenario.faults.restarts().collect();
    let procs: Vec<P> = (0..n)
        .map(|i| {
            let mut rider =
                AsymDagRider::new(pid(i), topology.quorums.clone(), scenario.coin_seed(), config);
            if restarts.contains(&i) || scenario.wal_everywhere {
                rider = rider.with_storage(
                    DagLog::new(StorageBackend::in_memory())
                        .with_snapshot_every(scenario.snapshot_every),
                );
            }
            wrap(rider)
        })
        .collect();
    let scheduler = sched(scenario.scheduler.adversary(scenario.seed).build(), n);
    let mut sim = Simulation::new(procs, scheduler).with_faults(
        scenario.faults.assignments().iter().map(|(i, f)| (pid(*i), f.network_mode())),
    );
    // Transaction ids as the scenario runner assigns them: block b of
    // process i carries (b·n + i)·txs_per_block + 1 ..= +txs_per_block.
    let mut injected: Vec<Vec<Block>> = vec![Vec::new(); n];
    for b in 0..scenario.blocks_per_process {
        for (i, blocks) in injected.iter_mut().enumerate() {
            let base = ((b * n + i) * scenario.txs_per_block) as u64;
            let block = Block::new((1..=scenario.txs_per_block as u64).map(|t| base + t).collect());
            blocks.push(block.clone());
            sim.input(pid(i), block);
        }
    }
    Prepared { sim, topology, injected, heap_base }
}

/// The timed set-up: builds the topology, then sets up an execution over it
/// and drops the execution. Returns the wall seconds and the topology.
pub fn full_set_up(scenario: &Scenario) -> (f64, Topology) {
    let t = Instant::now();
    let topology = build_topology(scenario);
    drop(set_up(scenario, &topology, |r| r, |s, _| s));
    (t.elapsed().as_secs_f64(), topology)
}

/// A restarted process's catch-up: from its `on_recover` until its decided
/// wave equals the highest decided wave of the correct processes.
#[derive(Clone, Copy, Debug)]
pub struct Catchup {
    /// Wall milliseconds.
    pub ms: f64,
    /// Delivery steps.
    pub steps: u64,
}

/// What the run loop observed from outside the processes.
#[derive(Clone, Debug, Default)]
pub struct RunObs {
    /// Wall seconds from the first delivery to quiescence.
    pub run_s: f64,
    /// Delivery steps.
    pub steps: u64,
    /// `true` if the run ended in quiescence.
    pub quiescent: bool,
    /// Wall seconds since the first delivery at every poll; the last poll
    /// is at quiescence. Executions with equal fingerprints poll at the same
    /// steps, so their timelines align poll by poll.
    pub polls: Vec<f64>,
    /// `(correct process, poll, waves)`: at that poll the process's decided
    /// wave had advanced by `waves` since its previous advance.
    pub decisions: Vec<(usize, usize, u64)>,
    /// `(mean decided wave of the correct processes, live heap bytes above
    /// the set-up baseline)` at every poll.
    pub heap: Vec<(f64, f64)>,
    /// Peak live heap above the baseline, set-up included.
    pub peak_heap_bytes: usize,
    /// The restarted process's catch-up, if one restarted and caught up.
    pub catchup: Option<Catchup>,
    /// Highest wave any correct process decided.
    pub waves: u64,
}

/// Runs to quiescence (or the scenario's step budget), polling every
/// correct process's decided wave every [`POLL_STEPS`] steps. With `trace`,
/// every step's wall time is also charged to it.
pub fn run<P: Rider, S: Scheduler<AsymRiderMsg>>(
    prep: &mut Prepared<P, S>,
    scenario: &Scenario,
    trace: Option<&SharedTrace>,
) -> RunObs {
    let heap_base = prep.heap_base;
    let sim = &mut prep.sim;
    let n = sim.n();
    let correct: Vec<usize> =
        scenario.faults.faulty_set().complement(n).iter().map(|p| p.index()).collect();
    let restarted = scenario.faults.restarts().next();
    let decided = |sim: &Simulation<P, S>, i: usize| sim.process(pid(i)).rider().decided_wave();
    let top = |sim: &Simulation<P, S>| correct.iter().map(|i| decided(sim, *i)).max().unwrap_or(0);

    let mut obs = RunObs::default();
    let mut last: Vec<u64> = correct.iter().map(|i| decided(sim, *i)).collect();
    let mut recovery: Option<(Instant, u64)> = None;
    let start = Instant::now();
    let poll = |sim: &Simulation<P, S>, obs: &mut RunObs, last: &mut [u64]| {
        obs.polls.push(start.elapsed().as_secs_f64());
        let mut sum = 0;
        for (slot, (seen, i)) in last.iter_mut().zip(&correct).enumerate() {
            let w = decided(sim, *i);
            sum += w;
            if w > *seen {
                obs.decisions.push((slot, obs.polls.len() - 1, w - *seen));
                *seen = w;
            }
        }
        let live = alloc::live_bytes().saturating_sub(heap_base);
        obs.heap.push((sum as f64 / correct.len() as f64, live as f64));
    };

    while obs.steps < scenario.max_steps {
        let t = Instant::now();
        let progressed = sim.step();
        if let Some(tr) = trace {
            let mut tr = tr.borrow_mut();
            tr.step_ns += t.elapsed().as_nanos() as u64;
            tr.steps += 1;
        }
        if !progressed {
            obs.quiescent = true;
            break;
        }
        obs.steps += 1;
        if let Some(r) = restarted {
            match recovery {
                None if sim.was_recovered(pid(r)) => recovery = Some((t, obs.steps - 1)),
                Some((t0, s0)) if obs.catchup.is_none() && decided(sim, r) >= top(sim) => {
                    obs.catchup = Some(Catchup {
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                        steps: obs.steps - s0,
                    });
                }
                _ => {}
            }
        }
        if obs.steps % POLL_STEPS == 0 {
            poll(sim, &mut obs, &mut last);
        }
    }
    poll(sim, &mut obs, &mut last);
    obs.run_s = obs.polls.last().copied().unwrap_or_default();
    obs.peak_heap_bytes = alloc::peak_bytes().saturating_sub(heap_base);
    obs.waves = top(sim);
    obs
}

impl RunObs {
    /// Wall ms per decided wave at every correct process, on `timeline`
    /// (this execution's `polls`, or a fastest-repeat timeline of executions with
    /// the same fingerprint): a poll interval in which a process's decided
    /// wave advanced by k gives k samples of interval / k.
    pub fn wave_ms(&self, timeline: &[f64]) -> Vec<f64> {
        let mut since: Vec<f64> = Vec::new();
        let mut out = Vec::new();
        for &(slot, poll, waves) in &self.decisions {
            if since.len() <= slot {
                since.resize(slot + 1, 0.0);
            }
            let per_wave = (timeline[poll] - since[slot]) * 1e3 / waves as f64;
            out.extend(std::iter::repeat_n(per_wave, waves as usize));
            since[slot] = timeline[poll];
        }
        out
    }
}

/// Storage observations made while harvesting.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageObs {
    /// WAL-equipped processes.
    pub wal_processes: usize,
    /// Summed wall ms of `replay_storage()` over them.
    pub replay_ms: f64,
    /// Bytes their in-memory WALs hold (log plus snapshot).
    pub mem_bytes: u64,
    /// WAL bytes appended, summed over them.
    pub wal_bytes: u64,
    /// WAL records appended, summed over them.
    pub wal_records: u64,
    /// Largest most-recent snapshot among them.
    pub snapshot_bytes_last: u64,
    /// Mean final DAG size over all processes.
    pub dag_vertices_mean: f64,
}

/// Collects everything the checker suite audits, as the scenario runner
/// does, timing `replay_storage()` on every WAL process.
pub fn harvest<P: Rider, S: Scheduler<AsymRiderMsg>>(
    prep: Prepared<P, S>,
    scenario: &Scenario,
    obs: &RunObs,
) -> (ScenarioOutcome, StorageObs) {
    let Prepared { sim, topology, injected, .. } = prep;
    let n = sim.n();
    let mut st = StorageObs::default();
    let mut outcome = ScenarioOutcome {
        scenario: scenario.clone(),
        topology: topology.clone(),
        quiescent: obs.quiescent,
        steps: obs.steps,
        time: sim.now(),
        net: sim.stats(),
        outputs: (0..n).map(|i| sim.outputs(pid(i)).to_vec()).collect(),
        commit_logs: Vec::with_capacity(n),
        committers: Vec::with_capacity(n),
        dags: Vec::with_capacity(n),
        metrics: Vec::with_capacity(n),
        wal_replays: Vec::with_capacity(n),
        wal_stats: Vec::with_capacity(n),
        wal_snapshot_sizes: Vec::with_capacity(n),
        recovered: Vec::with_capacity(n),
        transfers: Vec::with_capacity(n),
        restart_fired: (0..n).map(|i| sim.was_recovered(pid(i))).collect(),
        injected,
        honest: ProcessSet::full(n),
        correct: scenario.faults.faulty_set().complement(n),
        guild: maximal_guild(
            &topology.fail_prone,
            &topology.quorums,
            &scenario.faults.faulty_set(),
        ),
    };
    for i in 0..n {
        let r = sim.process(pid(i)).rider();
        outcome.commit_logs.push(r.commit_log().to_vec());
        outcome.committers.push(Some(r.committer().clone()));
        outcome.dags.push(Some(r.dag().clone()));
        outcome.metrics.push(r.metrics());
        let t = Instant::now();
        let replay = r.replay_storage().map(|res| res.map_err(|e| e.to_string()));
        if let Some(log) = r.storage() {
            st.wal_processes += 1;
            st.replay_ms += t.elapsed().as_secs_f64() * 1e3;
            if let StorageBackend::Mem(m) = log.backend() {
                st.mem_bytes +=
                    (m.log_bytes().len() + m.snapshot_bytes().map_or(0, <[u8]>::len)) as u64;
            }
        }
        outcome.wal_replays.push(replay);
        outcome.wal_stats.push(r.storage().map(DagLog::stats));
        outcome.wal_snapshot_sizes.push(r.storage().map(|l| l.snapshot_sizes().to_vec()));
        outcome.recovered.push(r.has_recovered());
        outcome.transfers.push(Some(r.transfer_stats()));
    }
    for w in outcome.wal_stats.iter().flatten() {
        st.wal_bytes += w.bytes_appended;
        st.wal_records += w.records_appended;
        st.snapshot_bytes_last = st.snapshot_bytes_last.max(w.last_snapshot_bytes);
    }
    st.dag_vertices_mean =
        outcome.dags.iter().flatten().map(|d| d.len() as f64).sum::<f64>() / n as f64;
    (outcome, st)
}

/// Audits an outcome with the standard checker suite minus
/// `same_seed_determinism`, which would re-run the cell; the benchmark
/// checks determinism itself by comparing fingerprints across repeats.
///
/// # Errors
///
/// The first violated invariant, with the reproduction tuple.
pub fn audit(outcome: &ScenarioOutcome) -> Result<(), String> {
    let suite: Vec<_> = checks::standard_checks()
        .into_iter()
        .filter(|(name, _)| *name != "same_seed_determinism")
        .collect();
    checks::check_outcome(outcome, &suite).map_err(|f| f.to_string())
}

/// Exact counts and an output digest identifying one execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Delivery steps.
    pub steps: u64,
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Commit-log entries, summed over processes.
    pub committed_waves: u64,
    /// Transactions delivered, summed over processes.
    pub txs_ordered: u64,
    /// WAL records appended, summed over processes.
    pub wal_records: u64,
    /// Waves installed by delivered-state transfer, summed over processes.
    pub waves_installed: u64,
    /// SHA-256 over every process's outputs: vertex ids, waves and blocks.
    pub sha256: String,
}

impl Fingerprint {
    /// Fingerprints an outcome.
    pub fn of(o: &ScenarioOutcome) -> Fingerprint {
        let mut h = Sha256::new();
        let mut txs = 0;
        for (i, outs) in o.outputs.iter().enumerate() {
            h.update(&(i as u64).to_le_bytes()).update(&(outs.len() as u64).to_le_bytes());
            for v in outs {
                h.update(&v.id.round.to_le_bytes())
                    .update(&(v.id.source.index() as u64).to_le_bytes())
                    .update(&v.committed_in_wave.to_le_bytes())
                    .update(&(v.block.txs.len() as u64).to_le_bytes());
                for tx in &v.block.txs {
                    h.update(&tx.to_le_bytes());
                }
                txs += v.block.txs.len() as u64;
            }
        }
        Fingerprint {
            steps: o.steps,
            msgs_sent: o.net.sent,
            committed_waves: o.commit_logs.iter().map(|l| l.len() as u64).sum(),
            txs_ordered: txs,
            wal_records: o.wal_stats.iter().flatten().map(|s: &WalStats| s.records_appended).sum(),
            waves_installed: o.transfers.iter().flatten().map(|t| t.waves_installed).sum(),
            sha256: h.finalize().to_hex(),
        }
    }
}

impl core::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "steps={} msgs_sent={} committed_waves={} txs_ordered={} wal_records={} \
             waves_installed={} sha256={}",
            self.steps,
            self.msgs_sent,
            self.committed_waves,
            self.txs_ordered,
            self.wal_records,
            self.waves_installed,
            self.sha256
        )
    }
}

/// One audited execution.
pub struct Execution {
    /// The run's observations.
    pub run: RunObs,
    /// Harvest-time storage observations.
    pub storage: StorageObs,
    /// The outcome's fingerprint.
    pub fingerprint: Fingerprint,
    /// The audit verdict.
    pub audit: Result<(), String>,
}

fn finish<P: Rider, S: Scheduler<AsymRiderMsg>>(
    mut prep: Prepared<P, S>,
    scenario: &Scenario,
    trace: Option<&SharedTrace>,
) -> (Execution, ScenarioOutcome) {
    let run = run(&mut prep, scenario, trace);
    let (outcome, storage) = harvest(prep, scenario, &run);
    let ex =
        Execution { run, storage, fingerprint: Fingerprint::of(&outcome), audit: audit(&outcome) };
    (ex, outcome)
}

/// Sets up over `topology`, runs, harvests and audits one untraced
/// execution; also returns the audited outcome.
pub fn execute(scenario: &Scenario, topology: &Topology) -> (Execution, ScenarioOutcome) {
    let prep = set_up(scenario, topology, |r| r, |s, _| s);
    finish(prep, scenario, None)
}

/// The same execution with every layer call timed into `trace`.
pub fn execute_traced(
    scenario: &Scenario,
    topology: &Topology,
    trace: &SharedTrace,
) -> (Execution, ScenarioOutcome) {
    let prep = set_up(
        scenario,
        topology,
        |r| Traced::new(r, trace.clone()),
        |s, n| TimedScheduler::new(s, n, trace.clone()),
    );
    finish(prep, scenario, Some(trace))
}
