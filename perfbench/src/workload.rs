//! The benchmark's workloads: fixed topology, fault plan and payload per
//! workload; the seed argument feeds only the scheduler and the coin
//! (`Scenario::seed`). `README.md` records why each one was chosen.

use asym_quorum::topology::TopologySpec;
use asym_scenarios::{Fault, FaultPlan, Scenario, SchedulerSpec, StorageSpec};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["latency-n10", "slices-n16", "restart-payload-n10"];

/// The process `restart-payload-n10` crashes and restarts.
pub const LAGGARD: usize = 1;

/// Full size (what the benchmark measures) or shrunken (self-tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// Few waves and a light payload: same layers, a fraction of the work.
    Shrunk,
}

/// The scenario one workload runs under `seed`, or `None` for an unknown
/// name.
pub fn scenario(name: &str, seed: u64, size: Size) -> Option<Scenario> {
    let shrunk = size == Size::Shrunk;
    let waves = |full: u64| if shrunk { 4 } else { full };
    let s = match name {
        "latency-n10" => Scenario::new(
            TopologySpec::UniformThreshold { n: 10, f: 3 },
            FaultPlan::none(),
            SchedulerSpec::RandomLatency { min: 1, max: 20 },
            seed,
        )
        .waves(waves(16)),
        "slices-n16" => Scenario::new(
            TopologySpec::RandomSlices { n: 16, slice: 12, f: 2, seed: 11 },
            FaultPlan::none(),
            SchedulerSpec::Random,
            seed,
        )
        .waves(waves(16)),
        "restart-payload-n10" => Scenario::new(
            TopologySpec::UniformThreshold { n: 10, f: 3 },
            // recover_at lies far beyond the run: the laggard restarts only
            // once the network drains, after every peer has pruned, so it
            // can catch up only through delivered-state transfer.
            FaultPlan::none()
                .with(LAGGARD, Fault::Restart { crash_at: 60, recover_at: 40_000_000 }),
            SchedulerSpec::Random,
            seed,
        )
        .waves(waves(24))
        .blocks_per_process(if shrunk { 8 } else { 64 })
        .txs_per_block(if shrunk { 8 } else { 64 })
        .storage(StorageSpec::Mem)
        .snapshot_every(8)
        .prune_wal(true)
        .wal_everywhere(true),
        _ => return None,
    };
    Some(s)
}
