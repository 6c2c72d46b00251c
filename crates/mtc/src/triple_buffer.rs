//! The three-file covariance protocol, in memory.
//!
//! Paper §4.1: "To fully decouple the loops without introducing a race
//! condition on the covariance matrix file between its reading for the
//! SVD and its writing by diff, we employ three files: a safe one for
//! SVD to use and a live alternating pair for diff to write to, with the
//! safe one being updated by the appropriate member of the pair."
//!
//! [`TripleBuffer`] reproduces those semantics with locks instead of
//! files: the writer (differ) alternates between two live slots and
//! publishes completed versions to the safe slot; the reader (SVD) takes
//! the safe slot without ever blocking the writer for long. The paper's
//! invariant holds: the reader always sees a *complete, consistent*
//! version, never a half-written one, and the writer never overwrites
//! the version currently being read. [`DiskTripleBuffer`] runs the same
//! protocol on real files, each a sealed `COVARIANCE` record of the
//! framing envelope ([`esse_core::durable::envelope`]).

use esse_core::durable::envelope::{self, COVARIANCE};
use esse_core::durable::{atomic_write, fsync_dir};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A versioned value published through the safe/live-pair protocol.
pub struct TripleBuffer<T> {
    /// The "safe file": the latest complete version for readers.
    safe: Mutex<Option<Arc<T>>>,
    /// Version counter of the safe slot.
    safe_version: AtomicU64,
}

impl<T> Default for TripleBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TripleBuffer<T> {
    /// Empty buffer (no version published yet).
    pub fn new() -> Self {
        TripleBuffer { safe: Mutex::new(None), safe_version: AtomicU64::new(0) }
    }

    /// Writer side: publish a freshly completed version. The two "live"
    /// copies of the file protocol collapse to the value being
    /// constructed by the caller plus the one being swapped in here; the
    /// old safe version stays alive (Arc) for any reader still using it.
    pub fn publish(&self, value: T, version: u64) {
        let mut slot = crate::lock(&self.safe);
        *slot = Some(Arc::new(value));
        self.safe_version.store(version, Ordering::Release);
    }

    /// Reader side: take the latest complete version, if any. The Arc
    /// keeps it consistent even while newer versions are published.
    pub fn read(&self) -> Option<(Arc<T>, u64)> {
        let slot = crate::lock(&self.safe);
        slot.as_ref().map(|v| (Arc::clone(v), self.safe_version.load(Ordering::Acquire)))
    }

    /// Latest published version number (0 = nothing yet).
    pub fn version(&self) -> u64 {
        self.safe_version.load(Ordering::Acquire)
    }
}

/// The paper §4.1 three-file safe/live covariance protocol on real
/// disk: the writer (differ) alternates between two *live* files —
/// chosen by version parity, so the file currently being rewritten is
/// never the newest complete one — and publishes each completed version
/// to the *safe* file via durable atomic rename. Readers (SVD, or a
/// resumed coordinator) only ever trust frames that validate against
/// their CRC-32 trailer, so a writer killed mid-`publish` leaves at
/// worst one torn live file and a stale-but-intact safe file.
///
/// A record's body is the `u64` version counter, the `u64` payload
/// length and the payload. The payload is opaque (the workflow stores
/// an encoded error subspace).
pub struct DiskTripleBuffer {
    dir: PathBuf,
    write_lock: Mutex<()>,
}

impl DiskTripleBuffer {
    /// File name of the safe (atomically published) covariance file.
    pub const SAFE: &'static str = "cov.safe";
    /// File names of the two alternating live covariance files.
    pub const LIVE: [&'static str; 2] = ["cov.live.a", "cov.live.b"];

    /// Attach to `dir` (created if missing).
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DiskTripleBuffer { dir, write_lock: Mutex::new(()) })
    }

    /// Path of the safe file.
    pub fn safe_path(&self) -> PathBuf {
        self.dir.join(Self::SAFE)
    }

    fn live_path(&self, version: u64) -> PathBuf {
        self.dir.join(Self::LIVE[(version % 2) as usize])
    }

    fn encode(payload: &[u8], version: u64) -> Vec<u8> {
        envelope::seal(COVARIANCE, 16 + payload.len(), |out| {
            esse_obs::put_le!(out, version, payload.len() as u64);
            out.extend_from_slice(payload);
        })
    }

    fn decode(raw: &[u8]) -> Option<(Vec<u8>, u64)> {
        let frame = envelope::open_with(COVARIANCE, raw, |r| {
            let (version, len) = (r.u64()?, r.u64()?);
            Ok((r.take(usize::try_from(len).unwrap_or(usize::MAX))?.to_vec(), version))
        });
        frame.ok()
    }

    /// Writer side: write the frame to the live file selected by the
    /// version's parity (fsynced in place), then publish it to the safe
    /// file by durable atomic rename. A crash between the two steps
    /// leaves a valid live frame that [`recover`](Self::recover) will
    /// still find.
    pub fn publish(&self, payload: &[u8], version: u64) -> io::Result<()> {
        let _guard = crate::lock(&self.write_lock);
        let frame = Self::encode(payload, version);
        {
            let mut f = fs::File::create(self.live_path(version))?;
            io::Write::write_all(&mut f, &frame)?;
            f.sync_all()?;
        }
        fsync_dir(&self.dir)?;
        atomic_write(self.safe_path(), &frame)
    }

    /// Reader side: the latest frame published to the safe file, if it
    /// exists and validates.
    pub fn read_safe(&self) -> io::Result<Option<(Vec<u8>, u64)>> {
        match fs::read(self.safe_path()) {
            Ok(raw) => Ok(Self::decode(&raw)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Garbage collection: remove live-slot files that the safe file
    /// supersedes — a live frame whose version is at or below the safe
    /// frame's, or a torn live frame that no longer decodes. Returns
    /// the number of files removed. The safe file itself is never
    /// touched, and with no valid safe frame nothing is pruned (the
    /// live slots may be the only recoverable state). Intended for
    /// completed or parked runs; never call it under a live writer.
    pub fn prune_superseded(&self) -> io::Result<usize> {
        let _guard = crate::lock(&self.write_lock);
        let Some((_, safe_version)) = self.read_safe()? else {
            return Ok(0);
        };
        let mut removed = 0;
        for name in Self::LIVE {
            let path = self.dir.join(name);
            let superseded = match fs::read(&path) {
                Ok(raw) => Self::decode(&raw).is_none_or(|(_, v)| v <= safe_version),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if superseded {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Crash recovery: scan all three files and return the
    /// highest-versioned frame that validates against its checksum.
    /// A torn file (writer killed mid-write) simply loses the vote —
    /// it is never returned, so a resumed run can only continue from a
    /// complete, consistent covariance snapshot.
    ///
    /// The safe file is read last, so successive calls never go
    /// backwards under a live writer: a live file holding version `v`
    /// is rewritten only after `v + 1` reached the safe file.
    pub fn recover(&self) -> io::Result<Option<(Vec<u8>, u64)>> {
        let mut best: Option<(Vec<u8>, u64)> = None;
        for name in [Self::LIVE[0], Self::LIVE[1], Self::SAFE] {
            let raw = match fs::read(self.dir.join(name)) {
                Ok(raw) => raw,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if let Some((payload, version)) = Self::decode(&raw) {
                if best.as_ref().is_none_or(|(_, v)| version > *v) {
                    best = Some((payload, version));
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_empty() {
        let b: TripleBuffer<Vec<f64>> = TripleBuffer::new();
        assert!(b.read().is_none());
        assert_eq!(b.version(), 0);
    }

    #[test]
    fn publish_then_read() {
        let b = TripleBuffer::new();
        b.publish(vec![1.0, 2.0], 1);
        let (v, ver) = b.read().unwrap();
        assert_eq!(*v, vec![1.0, 2.0]);
        assert_eq!(ver, 1);
    }

    #[test]
    fn old_reader_keeps_consistent_snapshot() {
        let b = TripleBuffer::new();
        b.publish(vec![1.0], 1);
        let (old, ver1) = b.read().unwrap();
        b.publish(vec![2.0], 2);
        // The old Arc still sees version 1's data.
        assert_eq!(*old, vec![1.0]);
        assert_eq!(ver1, 1);
        let (new, ver2) = b.read().unwrap();
        assert_eq!(*new, vec![2.0]);
        assert_eq!(ver2, 2);
    }

    #[test]
    fn concurrent_writer_reader_never_sees_torn_state() {
        // Writer publishes vectors whose entries all equal the version;
        // readers must never observe a mixed vector.
        let b = Arc::new(TripleBuffer::new());
        let writer = {
            let b = Arc::clone(&b);
            thread::spawn(move || {
                for ver in 1..=500u64 {
                    b.publish(vec![ver as f64; 64], ver);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    for _ in 0..2000 {
                        if let Some((v, _)) = b.read() {
                            let first = v[0];
                            assert!(v.iter().all(|&x| x == first), "torn read: {v:?}");
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(b.version(), 500);
    }

    fn disk_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-dtb-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn disk_publish_then_read_safe() {
        let buf = DiskTripleBuffer::create(disk_dir("pub")).unwrap();
        assert!(buf.read_safe().unwrap().is_none());
        buf.publish(b"covariance v1", 1).unwrap();
        let (payload, ver) = buf.read_safe().unwrap().unwrap();
        assert_eq!(payload, b"covariance v1");
        assert_eq!(ver, 1);
        buf.publish(b"covariance v2", 2).unwrap();
        let (payload, ver) = buf.read_safe().unwrap().unwrap();
        assert_eq!(payload, b"covariance v2");
        assert_eq!(ver, 2);
    }

    #[test]
    fn disk_live_files_alternate() {
        let dir = disk_dir("alt");
        let buf = DiskTripleBuffer::create(&dir).unwrap();
        buf.publish(b"one", 1).unwrap();
        buf.publish(b"two", 2).unwrap();
        // Version parity selects the live slot, so both exist and hold
        // different versions.
        let a = fs::read(dir.join(DiskTripleBuffer::LIVE[0])).unwrap();
        let b = fs::read(dir.join(DiskTripleBuffer::LIVE[1])).unwrap();
        assert_eq!(DiskTripleBuffer::decode(&a).unwrap().1, 2);
        assert_eq!(DiskTripleBuffer::decode(&b).unwrap().1, 1);
    }

    #[test]
    fn disk_prune_removes_only_superseded_live_slots() {
        let dir = disk_dir("gc");
        let buf = DiskTripleBuffer::create(&dir).unwrap();
        // Nothing published: nothing to prune (and nothing to keep).
        assert_eq!(buf.prune_superseded().unwrap(), 0);
        buf.publish(b"one", 1).unwrap();
        buf.publish(b"two", 2).unwrap();
        // Both live slots are at or below the safe version (2): pruned.
        assert_eq!(buf.prune_superseded().unwrap(), 2);
        assert!(!dir.join(DiskTripleBuffer::LIVE[0]).exists());
        assert!(!dir.join(DiskTripleBuffer::LIVE[1]).exists());
        let (payload, ver) = buf.read_safe().unwrap().unwrap();
        assert_eq!((payload.as_slice(), ver), (b"two".as_slice(), 2));
        // Recovery still works from the safe file alone.
        assert_eq!(buf.recover().unwrap().unwrap().1, 2);
        // A live frame *newer* than the safe file (crash between the
        // live write and the safe rename) must survive the sweep.
        let frame = DiskTripleBuffer::encode(b"three", 3);
        fs::write(dir.join(DiskTripleBuffer::LIVE[1]), &frame).unwrap();
        assert_eq!(buf.prune_superseded().unwrap(), 0);
        assert_eq!(buf.recover().unwrap().unwrap().1, 3);
        // A torn live slot is superseded garbage and goes.
        fs::write(dir.join(DiskTripleBuffer::LIVE[0]), b"torn").unwrap();
        assert_eq!(buf.prune_superseded().unwrap(), 1);
        assert!(dir.join(DiskTripleBuffer::LIVE[1]).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_recover_prefers_newest_valid() {
        let dir = disk_dir("rec");
        let buf = DiskTripleBuffer::create(&dir).unwrap();
        buf.publish(b"old", 7).unwrap();
        buf.publish(b"new", 8).unwrap();
        let (payload, ver) = buf.recover().unwrap().unwrap();
        assert_eq!((payload.as_slice(), ver), (b"new".as_slice(), 8));
        // Tear the newest live copy AND the safe file: recovery falls
        // back to the older intact live frame instead of trusting torn
        // bytes.
        for name in [DiskTripleBuffer::LIVE[0], DiskTripleBuffer::SAFE] {
            let p = dir.join(name);
            let mut raw = fs::read(&p).unwrap();
            raw.truncate(raw.len() - 2);
            fs::write(&p, &raw).unwrap();
        }
        let (payload, ver) = buf.recover().unwrap().unwrap();
        assert_eq!((payload.as_slice(), ver), (b"old".as_slice(), 7));
        assert!(buf.read_safe().unwrap().is_none(), "torn safe file must not validate");
    }

    #[test]
    fn disk_torn_frames_never_validate() {
        let frame = DiskTripleBuffer::encode(b"payload bytes", 3);
        assert!(DiskTripleBuffer::decode(&frame).is_some());
        for cut in 0..frame.len() {
            assert!(DiskTripleBuffer::decode(&frame[..cut]).is_none(), "prefix {cut} accepted");
        }
        for byte in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[byte] ^= 0x10;
            assert!(DiskTripleBuffer::decode(&flipped).is_none(), "flip at {byte} accepted");
        }
    }
}
