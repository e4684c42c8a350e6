//! Record framing: the length-prefixed, checksummed write-ahead log.
//!
//! Every record is stored as
//!
//! ```text
//! ┌───────────┬─────────────────┬───────────────┐
//! │ len: u32  │ checksum: u64   │ payload bytes │
//! │ (LE)      │ FNV-1a-64 (LE)  │ (len bytes)   │
//! └───────────┴─────────────────┴───────────────┘
//! ```
//!
//! and the read path distinguishes the two corruption modes a crash can
//! leave behind:
//!
//! * a **torn tail** — the final record's bytes end early (the process died
//!   mid-`write`). The torn bytes are dropped and everything before them
//!   replays; this is the expected shape of a crash.
//! * a **checksum mismatch** on a *complete* record — bit rot or a foreign
//!   writer. This is a hard [`StorageError::Corrupt`] error, never a silent
//!   skip: replaying *around* a corrupt record would silently fork the
//!   recovered state from what the process had acknowledged.
//!
//! A [`Wal`] pairs the framing with a [`Storage`] backend and a snapshot
//! area: [`Wal::install_snapshot`] rewrites the snapshot blob (itself a
//! sequence of framed records) and truncates the log, bounding recovery
//! work. The snapshot area tolerates no torn tail — it is written
//! atomically, so any damage there is real corruption.

use crate::backend::{Storage, StorageError};

/// Bytes of framing overhead per record (`u32` length + `u64` checksum).
pub const RECORD_HEADER_BYTES: usize = 4 + 8;

/// FNV-1a 64-bit checksum — small, fast, dependency-free, and plenty to
/// detect torn writes and bit rot (this is not a cryptographic integrity
/// boundary; vertices carry content digests at the protocol layer).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one framed record to `out`, encoding its payload in place: the
/// header is reserved, `encode` appends the payload behind it, then the
/// length and the checksum are back-patched. `sum` receives the payload
/// bytes and returns their checksum (a caller that already knows it may
/// skip the computation). Returns the checksum written.
pub(crate) fn frame_in_place(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
    sum: impl FnOnce(&[u8]) -> u64,
) -> u64 {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_BYTES]);
    encode(out);
    let payload = start + RECORD_HEADER_BYTES;
    let len = (out.len() - payload) as u32;
    let sum = sum(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..payload].copy_from_slice(&sum.to_le_bytes());
    sum
}

/// Result of decoding one framed area.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedArea {
    /// The payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn (incomplete) final record that were dropped.
    pub torn_tail_bytes: usize,
}

/// Decodes a framed byte area.
///
/// `allow_torn_tail` is `true` for the log area (crashes tear tails) and
/// `false` for the snapshot area (written atomically; a short read there is
/// corruption).
///
/// # Errors
///
/// [`StorageError::Corrupt`] on a checksum mismatch of a complete record,
/// or on a torn tail when `allow_torn_tail` is `false`.
pub fn decode_area(bytes: &[u8], allow_torn_tail: bool) -> Result<DecodedArea, StorageError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_BYTES {
            return torn(offset, remaining, allow_torn_tail, records);
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let expected = u64::from_le_bytes(
            bytes[offset + 4..offset + RECORD_HEADER_BYTES].try_into().expect("8 bytes"),
        );
        if remaining - RECORD_HEADER_BYTES < len {
            return torn(offset, remaining, allow_torn_tail, records);
        }
        let start = offset + RECORD_HEADER_BYTES;
        let payload = &bytes[start..start + len];
        if checksum(payload) != expected {
            return Err(StorageError::Corrupt {
                offset,
                detail: format!(
                    "checksum mismatch on a complete {len}-byte record (stored {expected:#x}, \
                     computed {:#x})",
                    checksum(payload)
                ),
            });
        }
        records.push(payload.to_vec());
        offset = start + len;
    }
    Ok(DecodedArea { records, torn_tail_bytes: 0 })
}

fn torn(
    offset: usize,
    remaining: usize,
    allow: bool,
    records: Vec<Vec<u8>>,
) -> Result<DecodedArea, StorageError> {
    if allow {
        Ok(DecodedArea { records, torn_tail_bytes: remaining })
    } else {
        Err(StorageError::Corrupt {
            offset,
            detail: format!("area ends mid-record ({remaining} trailing bytes)"),
        })
    }
}

/// Counters a [`Wal`] keeps about its own activity (the `exp_recovery`
/// bench reads these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since this handle was created.
    pub records_appended: u64,
    /// Framed bytes appended since this handle was created.
    pub bytes_appended: u64,
    /// Snapshots installed since this handle was created.
    pub snapshots_written: u64,
    /// Size in bytes of the most recent snapshot blob.
    pub last_snapshot_bytes: u64,
}

/// Everything persisted: the snapshot records followed by the log tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalContents {
    /// Records restored from the snapshot area (empty if no snapshot).
    pub snapshot: Vec<Vec<u8>>,
    /// Records from the log tail, in append order.
    pub log: Vec<Vec<u8>>,
    /// Torn bytes dropped from the end of the log.
    pub torn_tail_bytes: usize,
}

impl WalContents {
    /// Snapshot records followed by log records — full replay order.
    pub fn all_records(&self) -> impl Iterator<Item = &[u8]> {
        self.snapshot.iter().chain(self.log.iter()).map(Vec::as_slice)
    }

    /// Total number of persisted records.
    pub fn len(&self) -> usize {
        self.snapshot.len() + self.log.len()
    }

    /// `true` when nothing is persisted.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_empty() && self.log.is_empty()
    }
}

/// A framed write-ahead log with a snapshot area over any [`Storage`].
///
/// # Examples
///
/// ```
/// use asym_storage::{MemStorage, Wal};
///
/// let mut wal = Wal::new(MemStorage::new());
/// wal.append(b"event-1")?;
/// wal.append(b"event-2")?;
/// let contents = wal.read()?;
/// assert_eq!(contents.log.len(), 2);
/// assert_eq!(contents.log[0], b"event-1");
/// # Ok::<(), asym_storage::StorageError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Wal<S> {
    backend: S,
    stats: WalStats,
    records_since_snapshot: usize,
    snapshot_every: usize,
    /// Size in bytes of every snapshot blob installed through this handle,
    /// in order — the observable behind "pruning bounds snapshot size"
    /// (without pruning this sequence grows monotonically; with pruning it
    /// is a sawtooth).
    snapshot_sizes: Vec<u64>,
    /// Reused framing buffer for appends (holds at most one record).
    scratch: Vec<u8>,
}

/// Default snapshot cadence: one snapshot per this many appended records.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

impl<S: Storage> Wal<S> {
    /// Wraps a backend with the default snapshot cadence.
    pub fn new(backend: S) -> Self {
        Wal {
            backend,
            stats: WalStats::default(),
            records_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            snapshot_sizes: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Overrides the snapshot cadence: [`Wal::should_snapshot`] suggests a
    /// compaction once `every` records accumulated since the last snapshot.
    ///
    /// **`every == 0` means "never"**: `should_snapshot` stays `false`
    /// forever and the log grows without bound (replay work is then linear
    /// in the whole history). Callers may still [`Wal::install_snapshot`]
    /// manually.
    #[must_use]
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// The configured snapshot cadence (`0` = never).
    pub fn snapshot_every(&self) -> usize {
        self.snapshot_every
    }

    /// The backend (test/bench observability).
    pub fn backend(&self) -> &S {
        &self.backend
    }

    /// Mutable backend access (test hooks: truncation, corruption).
    pub fn backend_mut(&mut self) -> &mut S {
        &mut self.backend
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends one payload as a framed record.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects the write.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        self.append_with(|out| out.extend_from_slice(payload)).map(|_| ())
    }

    /// Appends one record whose payload `encode` writes straight into the
    /// framing buffer — one encode, one backend write. Returns the
    /// record's checksum.
    pub(crate) fn append_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, StorageError> {
        let mut framed = std::mem::take(&mut self.scratch);
        framed.clear();
        let sum = frame_in_place(&mut framed, encode, checksum);
        let written = self.backend.append_log(&framed);
        let len = framed.len() as u64;
        self.scratch = framed;
        written?;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += len;
        // Saturating: with the cadence disabled (`0` = never snapshot) this
        // counter is never reset, and a pathological `usize::MAX` wrap
        // would otherwise turn "overdue for a snapshot" into "just took
        // one" (or panic in debug builds).
        self.records_since_snapshot = self.records_since_snapshot.saturating_add(1);
        Ok(sum)
    }

    /// `true` once enough records accumulated since the last snapshot that
    /// the owner should compact state into [`Wal::install_snapshot`]. A
    /// cadence of `0` means never: this always returns `false` then.
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.records_since_snapshot >= self.snapshot_every
    }

    /// Replaces the snapshot area with `records` (a compacted encoding of
    /// the owner's full state) and truncates the log.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the backend rejects either write. A crash
    /// between the two writes leaves the old log alongside the new
    /// snapshot; replay is idempotent, so recovery still converges.
    pub fn install_snapshot<R: AsRef<[u8]>>(&mut self, records: &[R]) -> Result<(), StorageError> {
        self.install_snapshot_with(|blob| {
            blob.reserve_exact(
                records.iter().map(|r| RECORD_HEADER_BYTES + r.as_ref().len()).sum(),
            );
            for r in records {
                frame_in_place(blob, |out| out.extend_from_slice(r.as_ref()), checksum);
            }
        })
    }

    /// Replaces the snapshot area with the framed records `fill` appends
    /// to an empty buffer (the backend's own, where it keeps one — see
    /// [`Storage::write_snapshot_with`]) and truncates the log.
    pub(crate) fn install_snapshot_with(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StorageError> {
        let mut len = 0;
        self.backend.write_snapshot_with(|blob| {
            fill(blob);
            len = blob.len() as u64;
        })?;
        self.backend.replace_log(&[])?;
        self.stats.snapshots_written += 1;
        self.stats.last_snapshot_bytes = len;
        self.snapshot_sizes.push(len);
        self.records_since_snapshot = 0;
        Ok(())
    }

    /// Size of every snapshot installed through this handle, in order.
    pub fn snapshot_sizes(&self) -> &[u64] {
        &self.snapshot_sizes
    }

    /// Truncates a torn final record off the log area, returning how many
    /// bytes were dropped — the repair a recovering process **must** apply
    /// before it resumes appending. Reading tolerates a torn tail, but a
    /// fresh record appended *after* torn bytes fuses with them into one
    /// complete-looking frame whose checksum cannot match, turning a
    /// survivable crash into unreadable corruption on the next restart
    /// (found by the powerloss-file matrix cells).
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a complete record fails its checksum
    /// (the log is damaged beyond a torn tail — fail-stop, do not append);
    /// [`StorageError::Io`] if the backend cannot be read or rewritten.
    pub fn repair_torn_tail(&mut self) -> Result<usize, StorageError> {
        let bytes = self.backend.read_log()?;
        let torn = decode_area(&bytes, true)?.torn_tail_bytes;
        if torn > 0 {
            self.backend.replace_log(&bytes[..bytes.len() - torn])?;
        }
        Ok(torn)
    }

    /// Reads and verifies everything persisted: the snapshot records, the
    /// log tail, and how many torn tail bytes were dropped.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] if a complete record fails its checksum
    /// (either area) or the snapshot area is torn; [`StorageError::Io`] if
    /// the backend cannot be read.
    pub fn read(&self) -> Result<WalContents, StorageError> {
        let snapshot = match self.backend.read_snapshot()? {
            Some(bytes) => decode_area(&bytes, false)?.records,
            None => Vec::new(),
        };
        let log_area = decode_area(&self.backend.read_log()?, true)?;
        Ok(WalContents {
            snapshot,
            log: log_area.records,
            torn_tail_bytes: log_area.torn_tail_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemStorage;

    #[test]
    fn empty_wal_reads_empty() {
        let wal = Wal::new(MemStorage::new());
        let c = wal.read().unwrap();
        assert!(c.is_empty());
        assert_eq!(c.torn_tail_bytes, 0);
    }

    #[test]
    fn append_read_round_trip() {
        let mut wal = Wal::new(MemStorage::new());
        for payload in [&b"a"[..], &b""[..], &[0xFFu8; 100][..]] {
            wal.append(payload).unwrap();
        }
        let c = wal.read().unwrap();
        assert_eq!(c.log.len(), 3);
        assert_eq!(c.log[0], b"a");
        assert_eq!(c.log[1], b"");
        assert_eq!(c.log[2], vec![0xFF; 100]);
        assert_eq!(wal.stats().records_appended, 3);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"keep-me").unwrap();
        wal.append(b"torn-me").unwrap();
        let full = wal.backend().log_bytes().len();
        // Tear the final record at every possible byte boundary.
        for cut in 1..(RECORD_HEADER_BYTES + 7) {
            let mut torn = wal.clone();
            torn.backend_mut().truncate_log(full - cut);
            let c = torn.read().unwrap();
            assert_eq!(c.log, vec![b"keep-me".to_vec()], "cut={cut}");
            assert_eq!(c.torn_tail_bytes, RECORD_HEADER_BYTES + 7 - cut, "cut={cut}");
        }
    }

    #[test]
    fn corrupt_complete_record_is_a_hard_error() {
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"good").unwrap();
        wal.append(b"bad!").unwrap();
        // Flip a payload byte of the *first* record: complete + wrong sum.
        wal.backend_mut().corrupt_log_byte(RECORD_HEADER_BYTES);
        match wal.read() {
            Err(StorageError::Corrupt { offset: 0, detail }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_truncates_log_and_replays_first() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(2);
        wal.append(b"e1").unwrap();
        assert!(!wal.should_snapshot());
        wal.append(b"e2").unwrap();
        assert!(wal.should_snapshot());
        wal.install_snapshot(&[b"compact-state"]).unwrap();
        assert!(!wal.should_snapshot());
        wal.append(b"e3").unwrap();
        let c = wal.read().unwrap();
        assert_eq!(c.snapshot, vec![b"compact-state".to_vec()]);
        assert_eq!(c.log, vec![b"e3".to_vec()]);
        let replayed: Vec<&[u8]> = c.all_records().collect();
        assert_eq!(replayed, vec![&b"compact-state"[..], &b"e3"[..]]);
        assert_eq!(wal.stats().snapshots_written, 1);
        assert!(wal.stats().last_snapshot_bytes > 0);
    }

    #[test]
    fn appending_after_a_torn_tail_requires_repair() {
        // The bug the powerloss-file matrix cells found: a torn tail is
        // survivable to *read*, but appending after it fuses torn bytes
        // with the new record into one complete-looking frame whose
        // checksum mismatches — unreadable corruption at the next restart.
        let mut wal = Wal::new(MemStorage::new());
        wal.append(b"durable").unwrap();
        wal.append(b"torn-me-please").unwrap();
        let full = wal.backend().log_bytes().len();
        wal.backend_mut().truncate_log(full - 5);

        // Without repair: the post-recovery append corrupts the log.
        let mut unrepaired = wal.clone();
        unrepaired.append(b"post-recovery").unwrap();
        assert!(
            matches!(unrepaired.read(), Err(StorageError::Corrupt { .. })),
            "the fused frame must fail its checksum"
        );

        // With repair: the torn bytes are dropped first and appends resume
        // on a clean boundary.
        let dropped = wal.repair_torn_tail().unwrap();
        assert_eq!(dropped, RECORD_HEADER_BYTES + 14 - 5);
        assert_eq!(wal.repair_torn_tail().unwrap(), 0, "repair is idempotent");
        wal.append(b"post-recovery").unwrap();
        let contents = wal.read().unwrap();
        assert_eq!(contents.log, vec![b"durable".to_vec(), b"post-recovery".to_vec()]);
        assert_eq!(contents.torn_tail_bytes, 0);
    }

    #[test]
    fn snapshot_cadence_zero_means_never() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(0);
        assert_eq!(wal.snapshot_every(), 0);
        for _ in 0..(4 * DEFAULT_SNAPSHOT_EVERY) {
            wal.append(b"e").unwrap();
            assert!(!wal.should_snapshot(), "cadence 0 must never suggest a snapshot");
        }
        // Manual compaction still works and resets nothing it shouldn't.
        wal.install_snapshot(&[b"state"]).unwrap();
        assert!(!wal.should_snapshot());
        assert_eq!(wal.stats().snapshots_written, 1);
    }

    #[test]
    fn records_since_snapshot_saturates_instead_of_wrapping() {
        let mut wal = Wal::new(MemStorage::new()).with_snapshot_every(8);
        wal.records_since_snapshot = usize::MAX;
        wal.append(b"overflow-me").unwrap();
        assert!(wal.should_snapshot(), "an overdue log must stay overdue at usize::MAX");
        wal.install_snapshot(&[b"s"]).unwrap();
        assert!(!wal.should_snapshot(), "the snapshot resets the counter");
    }

    #[test]
    fn torn_snapshot_area_is_corruption() {
        let mut wal = Wal::new(MemStorage::new());
        wal.install_snapshot(&[b"state"]).unwrap();
        // Manually shorten the snapshot blob: atomic writes cannot tear, so
        // a short snapshot must be reported as corruption.
        let snap = wal.backend().snapshot_bytes().unwrap().to_vec();
        wal.backend_mut().write_snapshot(&snap[..snap.len() - 2]).unwrap();
        assert!(matches!(wal.read(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }
}
