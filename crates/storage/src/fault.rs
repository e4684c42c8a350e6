//! Powerloss fault injection: a [`Storage`] wrapper that models what a
//! power failure leaves on disk.
//!
//! `MemStorage` tests tear *bytes*; real crashes damage storage along
//! different seams, all of which [`FaultyStorage`] reproduces
//! deterministically from a seed at the moment [`Storage::powerloss`] is
//! invoked (a recovering owner calls it once before replaying):
//!
//! * **torn final append** — the last surviving record keeps only a strict
//!   prefix of its framed bytes (the process died mid-`write`);
//! * **dropped unsynced suffix** — a run of trailing appends vanishes
//!   entirely (they were buffered, never flushed). The damage window is
//!   governed by a [`VolatilePolicy`]: either *everything* is volatile
//!   (storage-layer proptests) or records a correct process must have
//!   fsynced before acting on them serve as barriers the damage cannot
//!   cross;
//! * **snapshot rename lost** — the most recent
//!   [`Storage::write_snapshot`] never happened: the previous snapshot and
//!   the never-truncated log come back;
//! * **snapshot rename reordered** — the new snapshot persisted but the
//!   subsequent log truncation was lost, leaving snapshot and log
//!   overlapping (replay must be idempotent over the overlap).
//!
//! In every case the surviving log is a *prefix* of what was appended
//! (possibly re-extended by pre-snapshot history), so a correct replay
//! recovers a consistent earlier state or hard-errors — it never silently
//! diverges. The property tests in `tests/powerloss_properties.rs` pin
//! exactly that, over both the in-memory and the file backend.

use asym_quorum::ProcessId;

use crate::backend::{Storage, StorageError};
use crate::event::payload_is_volatile;
use crate::wal::RECORD_HEADER_BYTES;

/// Which records a powerloss may destroy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolatilePolicy {
    /// Every appended record may be torn or dropped — the storage-layer
    /// adversary. Replay must still yield a consistent prefix or a hard
    /// error; higher layers may observe lost-but-externalized state.
    AllVolatile,
    /// Only records whose loss process `me` survives without observable
    /// divergence (see [`payload_is_volatile`]): decisions, deliveries and
    /// `me`'s own vertices act as fsync barriers the damage cannot cross —
    /// the discipline a correct process must implement anyway (fsync before
    /// externalizing an output or broadcasting an own vertex).
    FsyncBarriers {
        /// The process whose write-ahead log this is.
        me: ProcessId,
    },
}

impl VolatilePolicy {
    fn is_volatile(&self, payload: &[u8]) -> bool {
        match self {
            VolatilePolicy::AllVolatile => true,
            VolatilePolicy::FsyncBarriers { me } => payload_is_volatile(payload, *me),
        }
    }
}

/// A deterministic, seed-driven powerloss: which damage modes fire and how
/// deep they cut is derived from `seed` alone, so a damaged execution
/// replays bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerlossPlan {
    /// Drives every damage decision (splitmix64 stream).
    pub seed: u64,
    /// The records the damage may touch.
    pub policy: VolatilePolicy,
}

impl PowerlossPlan {
    /// A plan damaging anything (storage-layer proptests).
    pub fn all_volatile(seed: u64) -> Self {
        PowerlossPlan { seed, policy: VolatilePolicy::AllVolatile }
    }

    /// A plan respecting process `me`'s fsync barriers (scenario cells).
    pub fn fsync_barriers(seed: u64, me: ProcessId) -> Self {
        PowerlossPlan { seed, policy: VolatilePolicy::FsyncBarriers { me } }
    }
}

/// splitmix64: tiny, dependency-free, well-distributed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shadow of the state a snapshot rename may revert to.
#[derive(Clone, Debug)]
struct SnapshotShadow {
    /// The snapshot area before the latest `write_snapshot` (`None` if
    /// there was none; reverting then writes an empty blob, which decodes
    /// to zero records).
    prev_snapshot: Option<Vec<u8>>,
    /// The log bytes at the instant of the latest `write_snapshot` — what
    /// a lost truncation resurrects.
    log_at_install: Vec<u8>,
}

/// A [`Storage`] wrapper that applies a [`PowerlossPlan`] when
/// [`Storage::powerloss`] fires (once; later crashes of an already-damaged
/// store change nothing). All other operations pass straight through.
#[derive(Clone, Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: PowerlossPlan,
    shadow: Option<SnapshotShadow>,
    fired: bool,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner` so the next [`Storage::powerloss`] applies `plan`.
    pub fn new(inner: S, plan: PowerlossPlan) -> Self {
        FaultyStorage { inner, plan, shadow: None, fired: false }
    }

    /// The configured plan.
    pub fn plan(&self) -> PowerlossPlan {
        self.plan
    }

    /// `true` once the powerloss damage has been applied.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The wrapped backend (test observability).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Byte offsets `(start, end)` of every *complete* frame in `log`
    /// (an existing torn tail is left alone — it is already damage).
    fn frames(log: &[u8]) -> Vec<(usize, usize)> {
        let mut frames = Vec::new();
        let mut offset = 0usize;
        while log.len() - offset >= RECORD_HEADER_BYTES {
            let len =
                u32::from_le_bytes(log[offset..offset + 4].try_into().expect("4 bytes")) as usize;
            let end = offset + RECORD_HEADER_BYTES + len;
            if end > log.len() {
                break;
            }
            frames.push((offset, end));
            offset = end;
        }
        frames
    }

    /// Captures the revert shadow *before* a snapshot rename happens.
    fn capture_shadow(&mut self) -> Result<(), StorageError> {
        self.shadow = Some(SnapshotShadow {
            prev_snapshot: self.inner.read_snapshot()?,
            log_at_install: self.inner.read_log()?,
        });
        Ok(())
    }

    fn apply_powerloss(&mut self) -> Result<(), StorageError> {
        let mut rng = Rng(self.plan.seed);
        // 1. The most recent snapshot rename may be lost or reordered.
        if let Some(shadow) = self.shadow.take() {
            match rng.next() % 4 {
                0 => {
                    // Rename lost: the pre-install snapshot returns and the
                    // log was never truncated. Appends that happened after
                    // the install survive at the tail.
                    let tail = self.inner.read_log()?;
                    let mut log = shadow.log_at_install;
                    log.extend_from_slice(&tail);
                    self.inner.write_snapshot(&shadow.prev_snapshot.unwrap_or_default())?;
                    self.inner.replace_log(&log)?;
                }
                1 => {
                    // Rename reordered: the new snapshot persisted but the
                    // log truncation was lost — snapshot and log overlap.
                    let tail = self.inner.read_log()?;
                    let mut log = shadow.log_at_install;
                    log.extend_from_slice(&tail);
                    self.inner.replace_log(&log)?;
                }
                _ => {}
            }
        }
        // 2. A trailing run of volatile records is dropped (the unsynced
        //    buffer), and the write that died mid-flight may leave a torn
        //    prefix of the first dropped frame.
        let log = self.inner.read_log()?;
        let frames = Self::frames(&log);
        let window = frames
            .iter()
            .rev()
            .take_while(|(s, e)| self.plan.policy.is_volatile(&log[s + RECORD_HEADER_BYTES..*e]))
            .count();
        let dropped = if window == 0 { 0 } else { (rng.next() as usize) % (window + 1) };
        if dropped > 0 {
            let (first_start, first_end) = frames[frames.len() - dropped];
            let mut new_log = log[..first_start].to_vec();
            if rng.next() % 2 == 0 {
                let frame = &log[first_start..first_end];
                let torn = 1 + (rng.next() as usize) % (frame.len() - 1);
                new_log.extend_from_slice(&frame[..torn]);
            }
            self.inner.replace_log(&new_log)?;
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.append_log(bytes)
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        self.inner.read_log()
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.replace_log(bytes)
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.capture_shadow()?;
        self.inner.write_snapshot(bytes)
    }

    fn write_snapshot_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
        self.capture_shadow()?;
        self.inner.write_snapshot_with(fill)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read_snapshot()
    }

    fn powerloss(&mut self) -> Result<(), StorageError> {
        if self.fired {
            return Ok(());
        }
        self.fired = true;
        self.apply_powerloss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;
    use crate::wal::{checksum, frame_in_place, Wal};

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame_in_place(&mut out, |o| o.extend_from_slice(payload), checksum);
        out
    }

    #[test]
    fn powerloss_is_deterministic_per_seed() {
        let build = |seed| {
            let mut s = FaultyStorage::new(MemStorage::new(), PowerlossPlan::all_volatile(seed));
            for i in 0u8..6 {
                s.append_log(&framed(&[i; 5])).unwrap();
            }
            s.powerloss().unwrap();
            s.read_log().unwrap()
        };
        assert_eq!(build(7), build(7), "same seed, same damage");
        let distinct: std::collections::HashSet<Vec<u8>> = (0..32).map(build).collect();
        assert!(distinct.len() > 1, "seeds must actually vary the damage");
    }

    #[test]
    fn all_volatile_drop_leaves_a_prefix() {
        // For every seed, after powerloss the surviving complete records
        // are a prefix of what was appended.
        let payloads: Vec<Vec<u8>> = (0u8..7).map(|i| vec![i; 3 + i as usize]).collect();
        for seed in 0..64u64 {
            let mut wal =
                Wal::new(FaultyStorage::new(MemStorage::new(), PowerlossPlan::all_volatile(seed)));
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.backend_mut().powerloss().unwrap();
            let contents = wal.read().unwrap();
            assert!(contents.log.len() <= payloads.len(), "seed {seed}");
            for (i, rec) in contents.log.iter().enumerate() {
                assert_eq!(rec, &payloads[i], "seed {seed}: record {i} is not a prefix match");
            }
        }
    }

    #[test]
    fn second_powerloss_is_a_no_op() {
        let mut s = FaultyStorage::new(MemStorage::new(), PowerlossPlan::all_volatile(3));
        s.append_log(&framed(b"a")).unwrap();
        s.append_log(&framed(b"b")).unwrap();
        s.powerloss().unwrap();
        let after_first = s.read_log().unwrap();
        s.powerloss().unwrap();
        assert_eq!(s.read_log().unwrap(), after_first);
        assert!(s.fired());
    }

    #[test]
    fn snapshot_rename_faults_revert_or_overlap() {
        // Find seeds exercising both rename-fault arms and verify the
        // resulting (snapshot, log) pair is one of the three legal states.
        let mut seen_lost = false;
        let mut seen_reordered = false;
        for seed in 0..64u64 {
            let mut wal =
                Wal::new(FaultyStorage::new(MemStorage::new(), PowerlossPlan::all_volatile(seed)))
                    .with_snapshot_every(0);
            wal.append(b"old-1").unwrap();
            wal.append(b"old-2").unwrap();
            wal.install_snapshot(&[b"snap"]).unwrap();
            wal.append(b"new-1").unwrap();
            wal.backend_mut().powerloss().unwrap();
            let contents = wal.read().unwrap();
            match (contents.snapshot.len(), contents.log.first().map(Vec::as_slice)) {
                // Rename lost: empty snapshot, full old log back.
                (0, first) => {
                    seen_lost = true;
                    if let Some(first) = first {
                        assert_eq!(first, b"old-1", "seed {seed}");
                    }
                }
                // Rename survived; the log either overlaps (reordered) or
                // holds only post-snapshot appends (no fault).
                (1, Some(first)) => {
                    assert_eq!(contents.snapshot[0], b"snap", "seed {seed}");
                    if first == b"old-1" {
                        seen_reordered = true;
                    } else {
                        assert_eq!(first, b"new-1", "seed {seed}");
                    }
                }
                (1, None) => assert_eq!(contents.snapshot[0], b"snap", "seed {seed}"),
                other => panic!("seed {seed}: impossible state {other:?}"),
            }
        }
        assert!(seen_lost, "no seed exercised the rename-lost arm");
        assert!(seen_reordered, "no seed exercised the rename-reordered arm");
    }

    #[test]
    fn fsync_barriers_stop_the_damage() {
        use crate::event::DagEvent;
        use asym_quorum::ProcessId;
        // Log: [other-vertex][DELIVERED][confirmed][confirmed] — the
        // delivered record is a barrier, so at most the two trailing
        // confirms may be damaged, for every seed.
        let me = ProcessId::new(1);
        let other = DagEvent::VertexInserted(asym_dag::Vertex::new(
            ProcessId::new(0),
            1,
            vec![1u8],
            asym_quorum::ProcessSet::from_indices([0, 1, 2]),
            vec![],
        ));
        let delivered = DagEvent::<Vec<u8>>::BlockDelivered {
            id: asym_dag::VertexId::new(1, ProcessId::new(0)),
            wave: 1,
        };
        let confirms =
            [DagEvent::<Vec<u8>>::WaveConfirmed { wave: 1 }, DagEvent::WaveConfirmed { wave: 2 }];
        for seed in 0..64u64 {
            let mut wal = Wal::new(FaultyStorage::new(
                MemStorage::new(),
                PowerlossPlan::fsync_barriers(seed, me),
            ));
            wal.append(&other.encode()).unwrap();
            wal.append(&delivered.encode()).unwrap();
            for c in &confirms {
                wal.append(&c.encode()).unwrap();
            }
            wal.backend_mut().powerloss().unwrap();
            let contents = wal.read().unwrap();
            assert!(contents.log.len() >= 2, "seed {seed}: damage crossed a barrier");
            assert_eq!(contents.log[0], other.encode(), "seed {seed}");
            assert_eq!(contents.log[1], delivered.encode(), "seed {seed}");
        }
    }
}
