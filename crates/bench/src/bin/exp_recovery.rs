//! REC: the persistence & crash-recovery experiment — WAL append
//! throughput (in-memory and file backends), snapshot size vs. DAG height
//! with and without delivered-prefix pruning, recovery (replay) latency
//! vs. DAG height, an end-to-end restart scenario reporting how much work
//! recovery actually performed, and the per-snapshot size sequence of a
//! live pruned run (bounded sawtooth) vs. an unpruned one (monotone
//! growth).
//!
//! Exits non-zero if any replayed state diverges from its source.
//!
//! ```bash
//! cargo run --release -p asym-bench --bin exp_recovery            # full sweep
//! cargo run --release -p asym-bench --bin exp_recovery -- --smoke # CI subset
//! ```

use std::time::Instant;

use asym_bench::{render_table, Row};
use asym_core::Block;
use asym_dag::{Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_scenarios::{checks, Fault, FaultPlan, Scenario, SchedulerSpec, TopologySpec};
use asym_storage::{DagEvent, EventLog, RecoveredState, StorageBackend, RECORD_HEADER_BYTES};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

type Log = EventLog<Block, StorageBackend>;

/// The event stream of a full `n`-process DAG of `rounds` rounds, with one
/// delivery + decision per wave — the synthetic workload all measurements
/// share.
fn workload(n: usize, rounds: u64) -> Vec<DagEvent<Block>> {
    let mut events = Vec::new();
    for r in 1..=rounds {
        for i in 0..n {
            events.push(DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                Block::new(vec![r * 100 + i as u64, r, i as u64]),
                ProcessSet::full(n),
                vec![],
            )));
        }
        if r.is_multiple_of(4) {
            let wave = r / 4;
            let leader = VertexId::new(4 * (wave - 1) + 1, pid((wave as usize) % n));
            events.push(DagEvent::WaveConfirmed { wave });
            events.push(DagEvent::WaveDecided { wave, leader });
            events.push(DagEvent::BlockDelivered { id: leader, wave });
        }
    }
    events
}

/// Compacts `state` into a fresh in-memory log, returning the log and the
/// install time in µs.
fn cold_install(state: &RecoveredState<Block>) -> (Log, f64) {
    let mut log = Log::new(StorageBackend::in_memory());
    let t = Instant::now();
    state.compact_into(&mut log).expect("snapshot");
    (log, t.elapsed().as_secs_f64() * 1e6)
}

fn append_all(log: &mut Log, events: &[DagEvent<Block>]) {
    for ev in events {
        log.append(ev).expect("append");
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = 8;
    let heights: &[u64] = if smoke { &[8, 16] } else { &[8, 16, 32, 64, 128] };
    let throughput_rounds = if smoke { 32 } else { 256 };

    // ── WAL append throughput, per backend ────────────────────────────────
    let events = workload(n, throughput_rounds);
    let total_bytes: u64 =
        events.iter().map(|e| (e.encode().len() + RECORD_HEADER_BYTES) as u64).sum();
    let mut rows = Vec::new();
    let file_dir = std::env::temp_dir().join(format!("exp-recovery-{}", std::process::id()));
    let backends: Vec<(&str, Log)> = vec![
        ("mem", Log::new(StorageBackend::in_memory()).with_snapshot_every(0)),
        (
            "file",
            Log::new(StorageBackend::file(&file_dir).expect("temp dir writable"))
                .with_snapshot_every(0),
        ),
    ];
    for (name, mut log) in backends {
        let start = Instant::now();
        append_all(&mut log, &events);
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        rows.push(Row {
            label: format!("append/{name}"),
            values: vec![
                ("events".into(), events.len() as f64),
                ("kB".into(), total_bytes as f64 / 1024.0),
                ("events/ms".into(), events.len() as f64 / (dt * 1e3)),
                ("MB/s".into(), total_bytes as f64 / (1024.0 * 1024.0) / dt),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "REC-1 — WAL append throughput (n={n}, {throughput_rounds} rounds; \
                 framed little-endian records, FNV-1a-64 checksums)"
            ),
            &rows
        )
    );

    // ── Snapshot size and recovery latency vs. DAG height ─────────────────
    let mut rows = Vec::new();
    for &h in heights {
        let events = workload(n, h);
        let mut log = Log::new(StorageBackend::in_memory()).with_snapshot_every(0);
        append_all(&mut log, &events);
        let log_bytes = log.stats().bytes_appended;

        let t0 = Instant::now();
        let replayed = log.replay(n, pid(0), Block::default()).expect("replay");
        let replay_log_us = t0.elapsed().as_secs_f64() * 1e6;
        assert_eq!(replayed.dag.len(), n + (n as u64 * h) as usize, "replay lost vertices");

        // Compact into a snapshot and measure its install time, its size
        // and how fast recovery gets when it replays the snapshot instead
        // of the log.
        let (snapped, snap_us) = cold_install(&replayed);
        let snap_bytes = snapped.stats().last_snapshot_bytes;
        let t1 = Instant::now();
        let re = snapped.replay(n, pid(0), Block::default()).expect("replay snapshot");
        let replay_snap_us = t1.elapsed().as_secs_f64() * 1e6;
        assert_eq!(re.dag.len(), replayed.dag.len(), "snapshot replay diverged");
        assert_eq!(re.delivered, replayed.delivered, "snapshot lost deliveries");

        // Prune the delivered prefix the way a long-running node would
        // (everything below the decided wave's leader round delivered) and
        // measure the snapshot again: the pruned blob carries only the
        // undelivered frontier plus bookkeeping.
        let mut pruned_state = replayed.clone();
        let decided = pruned_state.decided_wave;
        let floor = if decided >= 1 { asym_dag::round_of_wave(decided, 1) } else { 0 };
        for r in 1..=floor {
            for i in 0..n {
                pruned_state.delivered.insert(VertexId::new(r, pid(i)));
            }
        }
        pruned_state.prune_delivered(floor);
        let (mut pruned_log, pruned_us) = cold_install(&pruned_state);
        let pruned_bytes = pruned_log.stats().last_snapshot_bytes;
        // The steady state of a live process: the same state compacted
        // again through the same log, whose checksum memo already holds
        // every vertex and residue record.
        let t2 = Instant::now();
        pruned_state.compact_into(&mut pruned_log).expect("pruned re-snapshot");
        let resnap_us = t2.elapsed().as_secs_f64() * 1e6;
        assert_eq!(pruned_log.stats().last_snapshot_bytes, pruned_bytes, "re-snapshot differs");
        assert!(
            floor == 0 || pruned_bytes < snap_bytes,
            "pruning must shrink the snapshot ({pruned_bytes} !< {snap_bytes})"
        );
        // Pruned replay still reproduces the post-prefix state exactly.
        let rep = pruned_log.replay(n, pid(0), Block::default()).expect("replay pruned");
        assert_eq!(rep.dag.len(), pruned_state.dag.len(), "pruned replay diverged");
        assert_eq!(rep.pruned_round, floor, "pruning marker lost");
        assert_eq!(rep.delivered, pruned_state.delivered, "pruned replay lost deliveries");
        assert_eq!(rep.commit_log, pruned_state.commit_log, "pruned replay lost commits");

        rows.push(Row {
            label: format!("height={h} ({} waves)", h / 4),
            values: vec![
                ("log kB".into(), log_bytes as f64 / 1024.0),
                ("snap kB".into(), snap_bytes as f64 / 1024.0),
                ("pruned kB".into(), pruned_bytes as f64 / 1024.0),
                ("residue".into(), pruned_state.delivered_blocks.len() as f64),
                ("snap µs".into(), snap_us),
                ("pruned snap µs".into(), pruned_us),
                ("re-snap µs".into(), resnap_us),
                ("replay µs".into(), replay_log_us),
                ("snap-replay µs".into(), replay_snap_us),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            &format!(
                "REC-2 — snapshot size and recovery latency vs. DAG height (n={n}).\n\
                 replay µs = folding the raw WAL back into DAG + delivered set + commit log;\n\
                 pruned kB = the same snapshot after garbage-collecting the delivered prefix,\n\
                 whose blocks stay as `residue` records;\n\
                 snap µs / pruned snap µs = installing each snapshot into a fresh log (every\n\
                 record checksummed); re-snap µs = installing the pruned one again (checksums\n\
                 of vertex and residue records come from the log's memo, as in a live process)"
            ),
            &rows
        )
    );

    // ── End-to-end: a restart cell, with recovery work accounting ─────────
    let waves = if smoke { 5 } else { 6 };
    let scenario = Scenario::new(
        TopologySpec::UniformThreshold { n: 4, f: 1 },
        FaultPlan::none().with(1, Fault::Restart { crash_at: 150, recover_at: 1200 }),
        SchedulerSpec::Random,
        3,
    )
    .waves(waves);
    let t0 = Instant::now();
    let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| {
        eprintln!("restart scenario violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.wal_stats[1].expect("restart process has a WAL");
    let replay = outcome.wal_replays[1].as_ref().unwrap().as_ref().unwrap();
    let rows = vec![Row {
        label: scenario.cell(),
        values: vec![
            ("wall ms".into(), wall_ms),
            ("wal records".into(), stats.records_appended as f64),
            ("wal kB".into(), stats.bytes_appended as f64 / 1024.0),
            ("snapshots".into(), stats.snapshots_written as f64),
            ("delivered".into(), outcome.outputs[1].len() as f64),
            ("replay dag".into(), replay.dag.len() as f64),
        ],
    }];
    println!(
        "{}",
        render_table(
            "REC-3 — end-to-end restart cell (crash at 150 deliveries, recover at step 1200):\n\
             the process rebuilds from its WAL, refetches, and rejoins — all invariant\n\
             checkers (incl. no-double-delivery and WAL/state equivalence) pass",
            &rows
        )
    );

    // ── REC-4: snapshot size over a live run — pruning bounds the sequence ─
    let mk = |prune: bool| {
        Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at: 120, recover_at: 900 }),
            SchedulerSpec::Random,
            5,
        )
        .waves(if smoke { 6 } else { 8 })
        .snapshot_every(12)
        .prune_wal(prune)
    };
    let pruned_outcome = checks::run_and_check_all(&mk(true)).unwrap_or_else(|e| {
        eprintln!("pruned REC-4 cell violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let unpruned_outcome = checks::run_and_check_all(&mk(false)).unwrap_or_else(|e| {
        eprintln!("unpruned REC-4 cell violated an invariant:\n{e}");
        std::process::exit(1);
    });
    let pruned_sizes = pruned_outcome.wal_snapshot_sizes[1].clone().expect("WAL attached");
    let unpruned_sizes = unpruned_outcome.wal_snapshot_sizes[1].clone().expect("WAL attached");
    println!("REC-4 — per-snapshot blob sizes over one restart cell (cadence 12):");
    println!("  pruned   : {pruned_sizes:?}");
    println!("  unpruned : {unpruned_sizes:?}");
    assert!(
        unpruned_sizes.windows(2).all(|w| w[1] >= w[0]),
        "without pruning the snapshot sequence grows monotonically"
    );
    // Pruning drops the delivered vertices' *edges* but — since the
    // delivered-state-transfer PR — retains their blocks as transferable
    // residue (DagEvent::DeliveredBlock), so the pruned sequence still
    // grows with history; the claim is that it grows strictly slower and
    // the per-snapshot savings widen as more history is pruned. (Squeezing
    // the residue further via watermark + exception lists is the open
    // delivered-set-growth ROADMAP item.)
    let common = pruned_sizes.len().min(unpruned_sizes.len());
    assert!(common > 2, "need a few snapshots to compare");
    for k in 1..common {
        assert!(
            pruned_sizes[k] < unpruned_sizes[k],
            "pruned snapshot {k} not smaller: {} !< {}",
            pruned_sizes[k],
            unpruned_sizes[k]
        );
    }
    let savings: Vec<i64> =
        (0..common).map(|k| unpruned_sizes[k] as i64 - pruned_sizes[k] as i64).collect();
    assert!(
        savings.last() > savings.first(),
        "pruning savings must widen with history: {savings:?}"
    );
    assert!(
        pruned_sizes.iter().max() < unpruned_sizes.iter().max(),
        "the pruned sequence must stay below the unpruned peak"
    );
    println!(
        "  pruned peak {} B < unpruned peak {} B; savings widen {} B → {} B ✓",
        pruned_sizes.iter().max().unwrap(),
        unpruned_sizes.iter().max().unwrap(),
        savings.first().unwrap(),
        savings.last().unwrap()
    );

    // ── REC-5: deep catch-up latency vs. lag depth (all-pruned cells) ─────
    // Every honest process prunes (wal_everywhere + cadence 8); the laggard
    // crashes after `crash_at` deliveries and recovers only at quiescence.
    // Smaller crash_at = deeper lag below the common pruning floor, so more
    // of the recovery arrives via delivered-state transfer instead of
    // fetch. `xfer waves`/`xfer blocks` = state installed through
    // StateChunk segments; `delivered` = the laggard's total output.
    let depths: &[u64] = if smoke { &[30, 150] } else { &[30, 80, 150, 400] };
    let mut rows = Vec::new();
    for &crash_at in depths {
        let scenario = Scenario::new(
            TopologySpec::UniformThreshold { n: 4, f: 1 },
            FaultPlan::none().with(1, Fault::Restart { crash_at, recover_at: 40_000_000 }),
            SchedulerSpec::Random,
            3,
        )
        .waves(waves)
        .snapshot_every(8)
        .wal_everywhere(true);
        let t0 = Instant::now();
        let outcome = checks::run_and_check_all(&scenario).unwrap_or_else(|e| {
            eprintln!("all-pruned catch-up cell violated an invariant:\n{e}");
            std::process::exit(1);
        });
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = outcome.transfers[1].expect("honest laggard has transfer counters");
        rows.push(Row {
            label: format!("crash_at={crash_at}"),
            values: vec![
                ("xfer waves".into(), stats.waves_installed as f64),
                ("xfer blocks".into(), stats.deliveries_installed as f64),
                ("offers".into(), stats.offers_received as f64),
                ("delivered".into(), outcome.outputs[1].len() as f64),
                ("steps".into(), outcome.steps as f64),
                ("wall ms".into(), wall_ms),
            ],
        });
    }
    println!(
        "{}",
        render_table(
            "REC-5 — deep catch-up vs. lag depth: every peer prunes (all-pruned cells), the\n\
             laggard recovers at quiescence. Deeper lag (smaller crash_at) ⇒ more state\n\
             arrives as certified outputs (delivered-state transfer) instead of DAG vertices",
            &rows
        )
    );

    let _ = std::fs::remove_dir_all(&file_dir);
    println!("REC: all replays equivalent; recovery invariants hold ✓");
}
