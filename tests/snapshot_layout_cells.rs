//! Every snapshot blob a live process installs is byte-identical to the
//! reference encoding of the state it was taken from.
//!
//! Runs the tier-1 restart, pruned, all-pruned state-transfer and powerloss
//! cells step by step. A rider installs a snapshot as the last action of a
//! handler, so right after the step that wrote it, the rider's DAG,
//! confirmed waves, commit log, delivered set and block residue are
//! exactly the state the blob was written from; the reference encoding
//! (`crates/storage/tests/support/reference_layout.rs`) of that state must
//! equal the stored blob byte for byte.

#[path = "../crates/storage/tests/support/reference_layout.rs"]
mod reference_layout;

use asym_core::{AsymDagRider, Block, DagLog, RiderConfig};
use asym_quorum::ProcessId;
use asym_scenarios::{Fault, FaultPlan, Scenario, SchedulerSpec, StorageSpec, TopologySpec};
use asym_sim::{Scheduler, Simulation};
use asym_storage::{PowerlossPlan, Storage, StorageBackend};

use reference_layout::reference_blob;

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The WAL backend of process `i`, built the way the scenario runner
/// builds it (same powerloss seed mixing), so the cell is the same
/// execution.
fn backend(cell: &Scenario, i: usize, dirs: &mut Vec<std::path::PathBuf>) -> StorageBackend {
    let backend = if cell.storage.is_file() {
        let dir = std::env::temp_dir().join(format!(
            "asym-snapshot-cells-{}-{}-p{i}",
            std::process::id(),
            dirs.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dirs.push(dir.clone());
        StorageBackend::file(&dir).unwrap()
    } else {
        StorageBackend::in_memory()
    };
    match cell.storage {
        StorageSpec::PowerlossMem { seed } | StorageSpec::PowerlossFile { seed } => {
            let mixed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            backend.with_powerloss(PowerlossPlan::fsync_barriers(mixed, pid(i)))
        }
        StorageSpec::Mem | StorageSpec::File => backend,
    }
}

/// What a checked run observed.
struct Checked {
    outputs: Vec<Vec<asym_core::OrderedVertex>>,
    snapshots: u64,
    with_residue: u64,
    waves_installed: u64,
}

type Sim = Simulation<AsymDagRider, Box<dyn Scheduler<asym_core::AsymRiderMsg>>>;

/// Compares every snapshot written since the last call against the
/// reference encoding of its process's current state.
fn check_new_snapshots(sim: &Sim, seen: &mut [u64], checked: &mut Checked, cell: &Scenario) {
    for (i, last) in seen.iter_mut().enumerate() {
        let rider = sim.process(pid(i));
        let Some(log) = rider.storage() else { continue };
        let written = log.stats().snapshots_written;
        if written == *last {
            continue;
        }
        *last = written;
        let backend = log.backend();
        assert!(
            backend.read_log().unwrap().is_empty(),
            "{}: p{i} logged after its snapshot within the step",
            cell.cell()
        );
        let blob = backend.read_snapshot().unwrap().expect("a snapshot was written");
        let residue = rider.delivered_block_residue();
        let reference = reference_blob(
            rider.dag(),
            rider.confirmed_waves(),
            rider.commit_log(),
            rider.committer().delivered_waves(),
            residue.iter().cloned(),
        );
        assert!(
            blob == reference,
            "{}: p{i}'s snapshot #{written} ({} bytes) differs from the reference encoding of \
             its state ({} bytes)",
            cell.cell(),
            blob.len(),
            reference.len()
        );
        checked.snapshots += 1;
        checked.with_residue += u64::from(residue.iter().any(|(id, _)| !rider.dag().contains(*id)));
    }
}

/// Runs `cell` (honest processes only) one delivery at a time, checking
/// every snapshot as it is installed.
fn run_checked(cell: &Scenario) -> Checked {
    let topology = cell.topology.build().expect("cell topology builds");
    let n = topology.n();
    let config =
        RiderConfig { max_waves: cell.waves, prune_wal: cell.prune_wal, ..Default::default() };
    let restarts: Vec<usize> = cell.faults.restarts().collect();
    let mut dirs = Vec::new();
    let procs: Vec<AsymDagRider> = (0..n)
        .map(|i| {
            let rider =
                AsymDagRider::new(pid(i), topology.quorums.clone(), cell.coin_seed(), config);
            if restarts.contains(&i) || cell.wal_everywhere {
                rider.with_storage(
                    DagLog::new(backend(cell, i, &mut dirs))
                        .with_snapshot_every(cell.snapshot_every),
                )
            } else {
                rider
            }
        })
        .collect();
    let mut sim: Sim = Simulation::new(procs, cell.scheduler.adversary(cell.seed).build())
        .with_faults(cell.faults.assignments().iter().map(|(i, f)| (pid(*i), f.network_mode())));
    let mut seen = vec![0; n];
    let mut checked =
        Checked { outputs: Vec::new(), snapshots: 0, with_residue: 0, waves_installed: 0 };
    for b in 0..cell.blocks_per_process {
        for i in 0..n {
            let base = ((b * n + i) * cell.txs_per_block) as u64;
            sim.input(
                pid(i),
                Block::new((1..=cell.txs_per_block as u64).map(|t| base + t).collect()),
            );
            check_new_snapshots(&sim, &mut seen, &mut checked, cell);
        }
    }
    let mut steps = 0;
    while steps < cell.max_steps && sim.step() {
        check_new_snapshots(&sim, &mut seen, &mut checked, cell);
        steps += 1;
    }
    checked.outputs = (0..n).map(|i| sim.outputs(pid(i)).to_vec()).collect();
    checked.waves_installed =
        (0..n).map(|i| sim.process(pid(i)).transfer_stats().waves_installed).sum();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    checked
}

fn restart_cell(seed: u64) -> Scenario {
    Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
        SchedulerSpec::Random,
        seed,
    )
}

fn all_pruned_cells() -> Vec<Scenario> {
    let laggard = |i, crash_at| {
        FaultPlan::none().with(i, Fault::Restart { crash_at, recover_at: 40_000_000 })
    };
    vec![
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            laggard(1, 60),
            SchedulerSpec::Random,
            1,
        ),
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            laggard(1, 60),
            SchedulerSpec::Random,
            3,
        ),
        Scenario::new(
            TopologySpec::RippleUnl { n: 7, unl: 6, f: 1 },
            laggard(2, 80),
            SchedulerSpec::Random,
            2,
        ),
        Scenario::new(
            TopologySpec::StellarTiers { n: 8, core: 4, f_core: 1 },
            laggard(5, 80),
            SchedulerSpec::Fifo,
            4,
        ),
    ]
    .into_iter()
    .map(|c| c.snapshot_every(8).wal_everywhere(true))
    .collect()
}

/// Checks `cell` and confirms the step-by-step run is the very execution
/// the scenario runner produces.
fn check_cell(cell: &Scenario) -> Checked {
    let checked = run_checked(cell);
    assert_eq!(checked.outputs, cell.run().outputs, "{}: not the runner's execution", cell.cell());
    assert!(checked.snapshots > 0, "{}: no snapshot was taken", cell.cell());
    checked
}

#[test]
fn restart_and_pruned_cells_install_reference_blobs() {
    for seed in [3, 8] {
        for prune in [false, true] {
            check_cell(&restart_cell(seed).snapshot_every(8).prune_wal(prune));
        }
        check_cell(&restart_cell(seed));
    }
}

#[test]
fn all_pruned_transfer_cells_install_reference_blobs() {
    let mut with_residue = 0;
    for cell in all_pruned_cells() {
        let checked = check_cell(&cell);
        assert!(checked.waves_installed > 0, "{}: no state transfer happened", cell.cell());
        with_residue += checked.with_residue;
    }
    assert!(with_residue > 0, "no checked snapshot carried block residue");
}

#[test]
fn powerloss_cells_install_reference_blobs() {
    for seed in [3, 8] {
        for storage in
            [StorageSpec::PowerlossMem { seed: 13 }, StorageSpec::PowerlossFile { seed: 13 }]
        {
            check_cell(&restart_cell(seed).storage(storage).snapshot_every(8));
            check_cell(&restart_cell(seed).storage(storage));
        }
    }
}
