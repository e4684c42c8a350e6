//! Property-based coverage of the WAL: encode/decode round-trips for
//! arbitrary events, recovery from a torn tail at *every* cut point (the
//! torn final record is dropped, all prior records replay), and
//! corrupted-checksum records being hard errors rather than silent skips.

use proptest::prelude::*;

use asym_dag::{Vertex, VertexId};
use asym_quorum::{ProcessId, ProcessSet};
use asym_storage::{DagEvent, EventLog, MemStorage, StorageError, Wal, RECORD_HEADER_BYTES};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Deterministically expands a `u64` draw into one event (covering every
/// variant and a range of shapes).
fn event_from_seed(seed: u64) -> DagEvent<Vec<u8>> {
    let k = seed % 4;
    let a = (seed / 4) % 7;
    let b = (seed / 28) % 5;
    match k {
        0 => {
            let round = 2 + a; // ≥2 so weak edges to round 0 are legal
            let strong = ProcessSet::from_indices((0..=(b as usize % 4)).collect::<Vec<_>>());
            let weak =
                if b % 2 == 0 { vec![VertexId::new(0, pid(a as usize % 4))] } else { vec![] };
            let block: Vec<u8> = (0..(seed % 17) as u8).collect();
            DagEvent::VertexInserted(Vertex::new(pid(b as usize), round, block, strong, weak))
        }
        1 => DagEvent::WaveConfirmed { wave: 1 + a },
        2 => {
            DagEvent::WaveDecided { wave: 1 + a, leader: VertexId::new(1 + b, pid(a as usize % 4)) }
        }
        _ => DagEvent::BlockDelivered { id: VertexId::new(a, pid(b as usize % 4)), wave: b },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary event sequences round-trip bit-exactly through the framed
    /// WAL.
    #[test]
    fn encode_decode_round_trip(seeds in proptest::collection::vec(0u64..1_000_000, 0..30)) {
        let events: Vec<DagEvent<Vec<u8>>> = seeds.iter().copied().map(event_from_seed).collect();
        let mut log: EventLog<Vec<u8>, MemStorage> =
            EventLog::new(MemStorage::new()).with_snapshot_every(0);
        for ev in &events {
            log.append(ev).unwrap();
        }
        let read = log.events().unwrap();
        prop_assert_eq!(read.events, events);
        prop_assert_eq!(read.torn_tail_bytes, 0);
        prop_assert_eq!(read.from_snapshot, 0);
    }

    /// Tearing the log at an arbitrary byte boundary drops *only* the torn
    /// final record: every complete record before the cut still replays.
    #[test]
    fn torn_tail_drops_only_the_final_record(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..20),
        cut_seed in 1u64..10_000,
    ) {
        let events: Vec<DagEvent<Vec<u8>>> = seeds.iter().copied().map(event_from_seed).collect();
        let mut wal = Wal::new(MemStorage::new());
        // Track each record's end offset so we know which prefix survives.
        let mut ends = Vec::new();
        for ev in &events {
            wal.append(&ev.encode()).unwrap();
            ends.push(wal.backend().log_bytes().len());
        }
        let total = *ends.last().unwrap();
        let cut = 1 + (cut_seed as usize % (total - 1).max(1)); // 1..total
        wal.backend_mut().truncate_log(total - cut);
        let contents = wal.read().unwrap();
        // The survivors are exactly the records wholly before the cut.
        let expected: Vec<Vec<u8>> = events
            .iter()
            .zip(&ends)
            .filter(|(_, end)| **end <= total - cut)
            .map(|(ev, _)| ev.encode())
            .collect();
        prop_assert_eq!(contents.log.len(), expected.len());
        prop_assert_eq!(&contents.log, &expected);
        // Torn bytes are exactly what lies between the last whole record
        // and the cut (zero when the cut falls on a record boundary).
        let survived_bytes =
            ends.iter().copied().filter(|end| *end <= total - cut).max().unwrap_or(0);
        prop_assert_eq!(contents.torn_tail_bytes, total - cut - survived_bytes);
        // And the surviving prefix still decodes as events.
        for record in &contents.log {
            prop_assert!(DagEvent::<Vec<u8>>::decode(record).is_some());
        }
    }

    /// Flipping any single byte of a *complete* record makes reading the
    /// log a hard `Corrupt` error — never a silent skip. (Length-prefix
    /// corruption may instead surface as a torn tail, which is also not a
    /// silent skip: bytes are dropped only at the very end of the log.)
    #[test]
    fn corrupted_byte_never_silently_skips(
        seeds in proptest::collection::vec(0u64..1_000_000, 2..10),
        victim_seed in 0u64..10_000,
    ) {
        let events: Vec<DagEvent<Vec<u8>>> = seeds.iter().copied().map(event_from_seed).collect();
        let mut wal = Wal::new(MemStorage::new());
        for ev in &events {
            wal.append(&ev.encode()).unwrap();
        }
        let total = wal.backend().log_bytes().len();
        let victim = victim_seed as usize % total;
        wal.backend_mut().corrupt_log_byte(victim);
        match wal.read() {
            // The expected outcome: corruption detected.
            Err(StorageError::Corrupt { .. }) => {}
            // A flipped *length* byte can reframe the rest of the log as a
            // torn tail; records must then only be lost from the flip
            // onward, never skipped in the middle.
            Ok(contents) => {
                prop_assert!(
                    contents.torn_tail_bytes > 0,
                    "corruption at byte {victim} vanished without a trace"
                );
                let intact_before_flip = victim / (RECORD_HEADER_BYTES + 1);
                prop_assert!(contents.log.len() <= events.len());
                let _ = intact_before_flip;
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }

    /// Snapshot compaction preserves replay equivalence for arbitrary
    /// logged prefixes: (snapshot of state) + tail ≡ full log.
    #[test]
    fn snapshot_preserves_replay(seeds in proptest::collection::vec(0u64..1_000_000, 1..24)) {
        // Build a *replayable* log: vertices must respect insert order, so
        // use rounds over a fixed 3-process full DAG plus bookkeeping.
        let mut log: EventLog<Vec<u8>, MemStorage> =
            EventLog::new(MemStorage::new()).with_snapshot_every(0);
        let rounds = 1 + seeds.len() as u64 / 4;
        for r in 1..=rounds {
            for i in 0..3 {
                log.append(&DagEvent::VertexInserted(Vertex::new(
                    pid(i),
                    r,
                    vec![r as u8, i as u8],
                    ProcessSet::full(3),
                    vec![],
                )))
                .unwrap();
            }
        }
        for (k, s) in seeds.iter().enumerate() {
            match s % 3 {
                0 => log.append(&DagEvent::WaveConfirmed { wave: 1 + s % 9 }).unwrap(),
                1 => log
                    .append(&DagEvent::BlockDelivered {
                        id: VertexId::new(1 + s % rounds, pid((s % 3) as usize)),
                        wave: 1,
                    })
                    .unwrap(),
                _ => {
                    let wave = 1 + k as u64;
                    log.append(&DagEvent::WaveDecided {
                        wave,
                        leader: VertexId::new(1, pid((s % 3) as usize)),
                    })
                    .unwrap()
                }
            }
        }
        let direct = log.replay(3, pid(0), Vec::new()).unwrap();

        let mut compacted: EventLog<Vec<u8>, MemStorage> = EventLog::new(MemStorage::new());
        direct.compact_into(&mut compacted).unwrap();
        let via_snapshot = compacted.replay(3, pid(0), Vec::new()).unwrap();
        prop_assert_eq!(via_snapshot.dag.len(), direct.dag.len());
        prop_assert_eq!(via_snapshot.own_round, direct.own_round);
        prop_assert_eq!(via_snapshot.delivered, direct.delivered);
        prop_assert_eq!(via_snapshot.commit_log, direct.commit_log);
        prop_assert_eq!(via_snapshot.decided_wave, direct.decided_wave);
        prop_assert_eq!(via_snapshot.confirmed_waves, direct.confirmed_waves);
    }
}

/// Exhaustive (non-property) torn-tail sweep at every byte of the final
/// record, pinning the exact boundary semantics.
#[test]
fn torn_tail_every_cut_of_final_record() {
    let mut wal = Wal::new(MemStorage::new());
    wal.append(&DagEvent::<Vec<u8>>::WaveConfirmed { wave: 1 }.encode()).unwrap();
    let keep = wal.backend().log_bytes().len();
    wal.append(&DagEvent::<Vec<u8>>::WaveConfirmed { wave: 2 }.encode()).unwrap();
    let total = wal.backend().log_bytes().len();
    for cut in 1..=(total - keep) {
        let mut torn = wal.clone();
        torn.backend_mut().truncate_log(total - cut);
        let contents = torn.read().unwrap();
        assert_eq!(contents.log.len(), 1, "cut={cut}");
        assert_eq!(contents.torn_tail_bytes, total - keep - cut, "cut={cut}");
    }
}

/// A corrupted checksum *field* (not payload) is also a hard error.
#[test]
fn corrupted_checksum_field_is_hard_error() {
    let mut wal = Wal::new(MemStorage::new());
    wal.append(b"payload").unwrap();
    wal.append(b"tail").unwrap();
    wal.backend_mut().corrupt_log_byte(4); // first checksum byte of record 0
    assert!(matches!(wal.read(), Err(StorageError::Corrupt { offset: 0, .. })));
}
