//! Property coverage of the powerloss fault injector: for arbitrary event
//! sequences, snapshot points and damage seeds, replay of a
//! powerloss-damaged store — in-memory **and** file-backed — either
//! recovers a consistent *prefix* of the pre-damage history or hard-errors.
//! It never silently diverges: no reordering, no mid-log gaps, no events
//! that were never appended.

use proptest::prelude::*;

use asym_dag::Vertex;
use asym_quorum::{ProcessId, ProcessSet};
use asym_storage::{
    DagEvent, EventLog, FaultyStorage, FileStorage, MemStorage, PowerlossPlan, Storage,
    StorageBackend, StorageError,
};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// A replayable event stream: full rounds of a 3-process DAG with
/// bookkeeping interleaved at wave boundaries (insert order respects
/// parents, which is what makes any *prefix* of it replayable too).
fn workload(rounds: u64) -> Vec<DagEvent<Vec<u8>>> {
    let mut events = Vec::new();
    for r in 1..=rounds {
        for i in 0..3 {
            events.push(DagEvent::VertexInserted(Vertex::new(
                pid(i),
                r,
                vec![r as u8, i as u8],
                ProcessSet::full(3),
                vec![],
            )));
        }
        if r.is_multiple_of(4) {
            events.push(DagEvent::WaveConfirmed { wave: r / 4 });
        }
    }
    events
}

/// Applies the scenario under test to any backend: append everything,
/// optionally snapshot at `snapshot_at` (then keep appending), powerloss,
/// and return the damaged store's replay result.
fn damage_and_replay<S: Storage + Clone>(
    backend: S,
    events: &[DagEvent<Vec<u8>>],
    snapshot_at: Option<usize>,
    plan: PowerlossPlan,
) -> Result<usize, StorageError> {
    let mut log: EventLog<Vec<u8>, FaultyStorage<S>> =
        EventLog::new(FaultyStorage::new(backend, plan)).with_snapshot_every(0);
    for (k, ev) in events.iter().enumerate() {
        log.append(ev).unwrap();
        if snapshot_at == Some(k) {
            let state = log.replay(3, pid(0), Vec::new()).unwrap();
            state.compact_into(&mut log).unwrap();
        }
    }
    log.powerloss().unwrap();
    let state = log.replay(3, pid(0), Vec::new())?;
    Ok(state.dag.len())
}

/// The consistency oracle: the damaged replay must equal the replay of
/// some prefix of the original event sequence (idempotent duplicates from
/// snapshot overlap collapse, so "prefix" is measured in surviving DAG
/// height/content, which grows monotonically with the prefix).
fn assert_prefix_or_error<S: Storage + Clone>(
    backend: S,
    events: &[DagEvent<Vec<u8>>],
    snapshot_at: Option<usize>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let result = damage_and_replay(backend, events, snapshot_at, PowerlossPlan::all_volatile(seed));
    match result {
        // A hard error (corruption, I/O) is a legal outcome — the process
        // fail-stops instead of diverging.
        Err(_) => Ok(()),
        Ok(dag_len) => {
            // Enumerate the DAG sizes every prefix replays to; the damaged
            // replay must land on one of them.
            let mut valid = std::collections::HashSet::new();
            for cut in 0..=events.len() {
                let mut log: EventLog<Vec<u8>, MemStorage> =
                    EventLog::new(MemStorage::new()).with_snapshot_every(0);
                for ev in &events[..cut] {
                    log.append(ev).unwrap();
                }
                valid.insert(log.replay(3, pid(0), Vec::new()).unwrap().dag.len());
            }
            prop_assert!(
                valid.contains(&dag_len),
                "damaged replay reached {dag_len} vertices, not any prefix state {valid:?}"
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-memory backend: damaged replay is a prefix or a hard error.
    #[test]
    fn mem_powerloss_recovers_a_prefix_or_errors(
        rounds in 1u64..8,
        snapshot_seed in 0usize..40,
        seed in 0u64..10_000,
    ) {
        let events = workload(rounds);
        let snapshot_at =
            (snapshot_seed < events.len()).then_some(snapshot_seed);
        assert_prefix_or_error(MemStorage::new(), &events, snapshot_at, seed)?;
    }

    /// File backend: the same property against real `std::fs` files.
    #[test]
    fn file_powerloss_recovers_a_prefix_or_errors(
        rounds in 1u64..6,
        snapshot_seed in 0usize..30,
        seed in 0u64..10_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "asym-powerloss-prop-{}-{seed}-{rounds}-{snapshot_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let events = workload(rounds);
        let snapshot_at = (snapshot_seed < events.len()).then_some(snapshot_seed);
        let result = assert_prefix_or_error(
            FileStorage::open(&dir).unwrap(),
            &events,
            snapshot_at,
            seed,
        );
        let _ = std::fs::remove_dir_all(&dir);
        result?;
    }
}

#[test]
fn powerloss_through_the_backend_enum_fires_once() {
    // The StorageBackend::Faulty plumbing end-to-end: wrap, damage, reopen.
    let backend = StorageBackend::in_memory().with_powerloss(PowerlossPlan::all_volatile(11));
    let mut log: EventLog<Vec<u8>, StorageBackend> = EventLog::new(backend).with_snapshot_every(0);
    for ev in workload(4) {
        log.append(&ev).unwrap();
    }
    let before = log.replay(3, pid(0), Vec::new()).unwrap().dag.len();
    log.powerloss().unwrap();
    let after = log.replay(3, pid(0), Vec::new()).unwrap().dag.len();
    assert!(after <= before);
    // Idempotent: a second powerloss (e.g. a second crash of the same
    // incarnation) changes nothing.
    log.powerloss().unwrap();
    assert_eq!(log.replay(3, pid(0), Vec::new()).unwrap().dag.len(), after);
}
