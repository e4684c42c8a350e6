//! Storage backends: where WAL bytes physically live.
//!
//! The [`Wal`](crate::Wal) framing layer is backend-agnostic; a [`Storage`]
//! implementation only has to provide two byte areas — an append-only *log*
//! and an atomically-replaced *snapshot* blob. Two backends ship:
//!
//! * [`MemStorage`] — a deterministic in-memory backend for the simulator
//!   (and for modelling crashes: clone the bytes, drop the process);
//! * [`FileStorage`] — a file-backed backend (`wal.log` + `snapshot.bin` in
//!   a directory) built on `std::fs` only, so it needs no extra
//!   dependencies.
//!
//! [`StorageBackend`] packs both behind one concrete type so protocol state
//! machines can hold "some storage" without becoming generic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Why a storage operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// An I/O error from the backing medium (message of the OS error).
    Io(String),
    /// The stored bytes are unreadable: a complete record failed its
    /// checksum, or a snapshot/log area is structurally invalid.
    Corrupt {
        /// Byte offset (within the failing area) of the bad record.
        offset: usize,
        /// What exactly was wrong.
        detail: String,
    },
}

impl core::fmt::Display for StorageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// An append-only log area plus an atomically-replaced snapshot area.
///
/// Implementations must preserve append order and must make
/// [`Storage::write_snapshot`] + [`Storage::replace_log`] appear atomic
/// *per call*; the [`Wal`](crate::Wal) layer tolerates a crash between the
/// two calls (replay is idempotent).
pub trait Storage {
    /// Appends raw bytes to the end of the log area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the entire log area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium cannot be read.
    fn read_log(&self) -> Result<Vec<u8>, StorageError>;

    /// Replaces the log area wholesale (used to truncate after a snapshot).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Atomically replaces the snapshot area.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError>;

    /// Atomically replaces the snapshot area with the bytes `fill`
    /// appends to an empty buffer. The default builds a fresh buffer and
    /// hands it to [`Storage::write_snapshot`]; a backend that owns its
    /// snapshot bytes may instead refill its own buffer in place, so a
    /// snapshot costs no allocation and no copy.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium rejects the write.
    fn write_snapshot_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError>
    where
        Self: Sized,
    {
        let mut bytes = Vec::new();
        fill(&mut bytes);
        self.write_snapshot(&bytes)
    }

    /// Reads the snapshot area (`None` if no snapshot was ever written).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the medium cannot be read.
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError>;

    /// Models the volatile-state loss of a power failure at the instant the
    /// hosting process crashed — called once by a recovering owner *before*
    /// it replays. Durable backends lose nothing and do nothing (the
    /// default); fault-injecting wrappers
    /// ([`FaultyStorage`](crate::FaultyStorage)) apply their configured
    /// damage here.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if applying the modelled damage itself fails.
    fn powerloss(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Deterministic in-memory backend: the simulator's default.
///
/// "Durability" is the lifetime of the owning value — exactly right for a
/// simulated process whose crash is modelled as dropping its in-memory
/// protocol state while keeping the (notionally on-disk) log value.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStorage {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

impl MemStorage {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Raw log bytes (test/bench observability).
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Raw snapshot bytes (test/bench observability).
    pub fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    /// Truncates the log to its first `len` bytes — the test hook that
    /// simulates a torn (partially persisted) final record.
    pub fn truncate_log(&mut self, len: usize) {
        self.log.truncate(len);
    }

    /// Flips one byte of the log — the test hook that simulates bit rot.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    pub fn corrupt_log_byte(&mut self, offset: usize) {
        self.log[offset] ^= 0xFF;
    }
}

impl Storage for MemStorage {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log.extend_from_slice(bytes);
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        Ok(self.log.clone())
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log = bytes.to_vec();
        Ok(())
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    /// Refills the held snapshot buffer in place: its pages are already
    /// mapped, so only growth beyond the last snapshot allocates. (An
    /// in-memory write cannot be torn, so in-place is still atomic.)
    fn write_snapshot_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
        let buffer = self.snapshot.get_or_insert_with(Vec::new);
        buffer.clear();
        fill(buffer);
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        Ok(self.snapshot.clone())
    }
}

/// File-backed backend: `wal.log` (append-only) and `snapshot.bin`
/// (written to a temp file, then renamed) inside one directory.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Kept open so appends do not reopen the file per record.
    log: File,
}

impl FileStorage {
    /// Opens (creating if needed) a file store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or log file cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log = OpenOptions::new().create(true).append(true).open(dir.join("wal.log"))?;
        Ok(FileStorage { dir, log })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }
}

impl Clone for FileStorage {
    /// Clones share the underlying files (a fresh append handle is opened).
    /// Two live clones appending concurrently would interleave records;
    /// clone only to hand the store to a restarted process.
    fn clone(&self) -> Self {
        FileStorage::open(&self.dir).expect("reopening an existing file store")
    }
}

impl Storage for FileStorage {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.log.write_all(bytes)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        let mut bytes = Vec::new();
        File::open(self.log_path())?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join("wal.log.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.log_path())?;
        self.log = OpenOptions::new().create(true).append(true).open(self.log_path())?;
        Ok(())
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.dir.join("snapshot.bin.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.snapshot_path())?;
        Ok(())
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        match File::open(self.snapshot_path()) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// One concrete type over both backends, so protocol state machines can own
/// "some storage" without a generic parameter.
#[derive(Clone, Debug)]
pub enum StorageBackend {
    /// Deterministic in-memory storage (the simulator default).
    Mem(MemStorage),
    /// File-backed storage.
    File(FileStorage),
    /// Powerloss-injecting wrapper around either backend.
    Faulty(Box<crate::FaultyStorage<StorageBackend>>),
}

impl StorageBackend {
    /// A fresh in-memory backend.
    pub fn in_memory() -> Self {
        StorageBackend::Mem(MemStorage::new())
    }

    /// A file backend rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory or log file cannot be created.
    pub fn file(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(StorageBackend::File(FileStorage::open(dir)?))
    }

    /// Wraps this backend in a [`FaultyStorage`](crate::FaultyStorage):
    /// the next [`Storage::powerloss`] applies `plan`'s damage.
    #[must_use]
    pub fn with_powerloss(self, plan: crate::PowerlossPlan) -> Self {
        StorageBackend::Faulty(Box::new(crate::FaultyStorage::new(self, plan)))
    }
}

impl Storage for StorageBackend {
    fn append_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.append_log(bytes),
            StorageBackend::File(s) => s.append_log(bytes),
            StorageBackend::Faulty(s) => s.append_log(bytes),
        }
    }

    fn read_log(&self) -> Result<Vec<u8>, StorageError> {
        match self {
            StorageBackend::Mem(s) => s.read_log(),
            StorageBackend::File(s) => s.read_log(),
            StorageBackend::Faulty(s) => s.read_log(),
        }
    }

    fn replace_log(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.replace_log(bytes),
            StorageBackend::File(s) => s.replace_log(bytes),
            StorageBackend::Faulty(s) => s.replace_log(bytes),
        }
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.write_snapshot(bytes),
            StorageBackend::File(s) => s.write_snapshot(bytes),
            StorageBackend::Faulty(s) => s.write_snapshot(bytes),
        }
    }

    fn write_snapshot_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(s) => s.write_snapshot_with(fill),
            StorageBackend::File(s) => s.write_snapshot_with(fill),
            StorageBackend::Faulty(s) => s.write_snapshot_with(fill),
        }
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StorageError> {
        match self {
            StorageBackend::Mem(s) => s.read_snapshot(),
            StorageBackend::File(s) => s.read_snapshot(),
            StorageBackend::Faulty(s) => s.read_snapshot(),
        }
    }

    fn powerloss(&mut self) -> Result<(), StorageError> {
        match self {
            StorageBackend::Mem(_) | StorageBackend::File(_) => Ok(()),
            StorageBackend::Faulty(s) => s.powerloss(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("asym-storage-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        s.append_log(b"ab").unwrap();
        s.append_log(b"cd").unwrap();
        assert_eq!(s.read_log().unwrap(), b"abcd");
        assert_eq!(s.read_snapshot().unwrap(), None);
        s.write_snapshot(b"snap").unwrap();
        assert_eq!(s.read_snapshot().unwrap().unwrap(), b"snap");
        s.replace_log(b"").unwrap();
        assert!(s.read_log().unwrap().is_empty());
    }

    #[test]
    fn file_storage_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let mut s = FileStorage::open(&dir).unwrap();
            s.append_log(b"hello ").unwrap();
            s.append_log(b"world").unwrap();
            s.write_snapshot(b"snap-v1").unwrap();
        }
        // A "restarted process": a fresh handle over the same directory.
        let s = FileStorage::open(&dir).unwrap();
        assert_eq!(s.read_log().unwrap(), b"hello world");
        assert_eq!(s.read_snapshot().unwrap().unwrap(), b"snap-v1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_storage_replace_log_truncates() {
        let dir = temp_dir("truncate");
        let mut s = FileStorage::open(&dir).unwrap();
        s.append_log(b"old-old-old").unwrap();
        s.replace_log(b"new").unwrap();
        assert_eq!(s.read_log().unwrap(), b"new");
        // The fresh append handle continues after the replacement.
        s.append_log(b"+tail").unwrap();
        assert_eq!(s.read_log().unwrap(), b"new+tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_enum_delegates() {
        let mut b = StorageBackend::in_memory();
        b.append_log(b"x").unwrap();
        assert_eq!(b.read_log().unwrap(), b"x");
        assert!(b.read_snapshot().unwrap().is_none());
    }
}
