//! Crash-consistent run journal (write-ahead log) and durable
//! checkpointing for the ESSE workflow.
//!
//! The paper's workflow is file-based precisely so a real-time forecast
//! survives infrastructure trouble: §4.1's safe/live covariance files
//! and §4.2's per-member status records exist so the master "can be
//! restarted without rerunning all jobs". This module makes that
//! guarantee hold against *coordinator* death at any instant:
//!
//! * [`Journal`] — an append-only log of checksummed, versioned records
//!   ([`JournalRecord`]): run config hash, member completions/failures,
//!   SVD publications, convergence, assimilation, completion. Appends
//!   follow fsync-the-file discipline (the directory is fsynced at
//!   creation), and replay truncates a torn tail — a record is either
//!   fully in the log or it never happened.
//! * [`JournalState`] — a pure fold over replayed records. Any prefix
//!   of a valid journal folds to a valid state, which is what makes
//!   killing the coordinator at an arbitrary byte offset recoverable.
//! * [`Checkpoint`] — a journal plus per-member result blobs in one
//!   directory, the durable mirror of the in-memory differ. The engine
//!   ([`crate::workflow::MtcEsse::with_checkpoint`]) records each
//!   completed member; [`Checkpoint::open`] validates every blob
//!   against its CRC, quarantines corrupt files, and hands back a
//!   [`ResumeState`] that [`crate::workflow::RunInit::resuming`] can
//!   rehydrate — completed members are never re-run.

use esse_core::durable::envelope::{self, EnvelopeError, Reader, JOURNAL};
use esse_core::durable::envelope::{MEMBER_BLOB, SUBSPACE_BLOB};
use esse_core::durable::{self, atomic_write, fsync_dir};
use esse_core::subspace::ErrorSubspace;
use esse_obs::put_le;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One durable event in the run's history.
///
/// Payloads are fixed little-endian encodings (kind byte, then fields).
/// On disk the journal is the envelope's `JOURNAL` header followed by
/// one stream frame per record, so readers tell a torn tail from a
/// complete record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// The run began under this configuration fingerprint. Always the
    /// first record; resume refuses a journal whose hash differs from
    /// the configuration it was asked to continue.
    RunStart {
        /// [`config_hash`] of the run parameters.
        config_hash: u64,
    },
    /// Member `member` completed successfully; its result blob (or
    /// forecast file) is durable on disk.
    MemberCompleted {
        /// Member index.
        member: u64,
        /// Attempts consumed to get the success.
        attempts: u32,
    },
    /// Member `member` failed permanently (retry budget exhausted).
    MemberFailed {
        /// Member index.
        member: u64,
        /// Final exit/error code.
        code: i32,
    },
    /// A member's result failed validation — semantic checks at
    /// ingestion (NaN/Inf, physical bounds, norm blowup, ensemble
    /// outlier) or a checksum failure on resume. The payload was
    /// quarantined and the member requeued. The run is degraded until
    /// it completes again.
    MemberQuarantined {
        /// Member index.
        member: u64,
        /// Stable [`esse_core::validate::Reason`] code (0 for records
        /// written before reasons existed). Persisted so a resumed run
        /// replays the same decision bit-for-bit.
        reason: u32,
    },
    /// The continuous SVD stage published a new subspace estimate to
    /// the safe file (the §4.1 three-file protocol).
    SvdPublished {
        /// Members in the decomposed snapshot.
        members: u64,
        /// Safe-file version the estimate was published as.
        version: u64,
        /// Similarity against the previous estimate (NaN for the first
        /// round, which has nothing to compare against).
        rho: f64,
    },
    /// The convergence criterion fired.
    Converged {
        /// Members in the differ at convergence.
        members: u64,
        /// The similarity value that crossed the threshold.
        rho: f64,
    },
    /// The posterior was assimilated against observations.
    Assimilated {
        /// Innovations (observations) used.
        innovations: u64,
    },
    /// The run finished and published its posterior.
    RunComplete {
        /// Members in the final subspace.
        members: u64,
    },
    /// The coordinator issued (seeded or requeued) task incarnation
    /// `epoch` for `member`. Appended *before* the task record appears
    /// in the pool, so replaying any journal prefix restores a fencing
    /// high-water mark ≥ every epoch a worker could ever have seen —
    /// a restarted coordinator never re-issues an epoch that a zombie
    /// result from the previous incarnation could impersonate.
    EpochAdvanced {
        /// Member index.
        member: u64,
        /// Fencing epoch issued (1-based).
        epoch: u32,
    },
    /// A coordinator incarnation started serving this run (1 for the
    /// initial start, +1 per `--resume`). Lets observability label
    /// work by incarnation across a crash-and-restart boundary.
    CoordinatorStarted {
        /// Incarnation number (1-based).
        incarnation: u64,
    },
}

impl JournalRecord {
    /// Encode the record payload (kind byte + fields, little endian).
    fn encode(&self) -> Vec<u8> {
        use JournalRecord::*;
        let mut out = Vec::with_capacity(25);
        match *self {
            RunStart { config_hash } => put_le!(out, 1u8, config_hash),
            MemberCompleted { member, attempts } => put_le!(out, 2u8, member, attempts),
            MemberFailed { member, code } => put_le!(out, 3u8, member, code),
            // Reason 0 keeps the legacy 8-byte payload so journals
            // written before reason codes replay byte-identically.
            MemberQuarantined { member, reason: 0 } => put_le!(out, 4u8, member),
            MemberQuarantined { member, reason } => put_le!(out, 4u8, member, reason),
            SvdPublished { members, version, rho } => put_le!(out, 5u8, members, version, rho),
            Converged { members, rho } => put_le!(out, 6u8, members, rho),
            Assimilated { innovations } => put_le!(out, 7u8, innovations),
            RunComplete { members } => put_le!(out, 8u8, members),
            EpochAdvanced { member, epoch } => put_le!(out, 9u8, member, epoch),
            CoordinatorStarted { incarnation } => put_le!(out, 10u8, incarnation),
        }
        out
    }

    /// Decode a payload produced by [`JournalRecord::encode`]. `None`
    /// for unknown kinds, short payloads or trailing bytes (treated as
    /// torn/corrupt).
    fn decode(payload: &[u8]) -> Option<JournalRecord> {
        envelope::read_all(payload, Self::read).ok()
    }

    fn read(r: &mut Reader) -> Result<JournalRecord, EnvelopeError> {
        use JournalRecord::*;
        Ok(match r.u8()? {
            1 => RunStart { config_hash: r.u64()? },
            2 => MemberCompleted { member: r.u64()?, attempts: r.u32()? },
            3 => MemberFailed { member: r.u64()?, code: r.i32()? },
            4 => MemberQuarantined {
                member: r.u64()?,
                reason: if r.is_empty() { 0 } else { r.u32()? },
            },
            5 => SvdPublished { members: r.u64()?, version: r.u64()?, rho: r.f64()? },
            6 => Converged { members: r.u64()?, rho: r.f64()? },
            7 => Assimilated { innovations: r.u64()? },
            8 => RunComplete { members: r.u64()? },
            9 => EpochAdvanced { member: r.u64()?, epoch: r.u32()? },
            10 => CoordinatorStarted { incarnation: r.u64()? },
            kind => return Err(EnvelopeError::BadType(kind)),
        })
    }
}

/// Result of replaying a journal file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Records recovered, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + complete records).
    pub valid_len: u64,
    /// Bytes past the valid prefix — a torn append or tail corruption.
    /// [`Journal::open`] truncates these away.
    pub torn_bytes: u64,
}

/// Append-only, checksummed, fsynced run journal.
pub struct Journal {
    path: PathBuf,
    file: Mutex<fs::File>,
    /// Write-error injection: appends remaining before every further
    /// append fails like a full disk. `u64::MAX` disables injection.
    fail_after: std::sync::atomic::AtomicU64,
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt journal: {}", msg.into()))
}

impl Journal {
    /// Create a fresh journal at `path` (truncating any existing file),
    /// durably: the header is fsynced and so is the parent directory.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs::File::create(&path)?;
        file.write_all(&envelope::header(JOURNAL))?;
        file.sync_all()?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fsync_dir(parent)?;
            }
        }
        Ok(Journal {
            path,
            file: Mutex::new(file),
            fail_after: std::sync::atomic::AtomicU64::new(u64::MAX),
        })
    }

    /// Replay `path` without opening it for appends. Stops at the first
    /// torn or corrupt frame; everything before it is returned.
    pub fn replay(path: impl AsRef<Path>) -> io::Result<Replay> {
        let raw = fs::read(path)?;
        let mut rest =
            envelope::strip_header(JOURNAL, &raw).map_err(|e| corrupt(format!("header: {e}")))?;
        let mut records = Vec::new();
        // Replay ends at the first torn (truncated) or corrupt frame.
        while let Ok((payload, used)) = envelope::next_frame(rest) {
            let Some(rec) = JournalRecord::decode(payload) else { break };
            records.push(rec);
            rest = &rest[used..];
        }
        let pos = raw.len() - rest.len();
        Ok(Replay { records, valid_len: pos as u64, torn_bytes: (raw.len() - pos) as u64 })
    }

    /// Open an existing journal for appending: replay it, truncate any
    /// torn tail, and position the writer at the end of the valid
    /// prefix. Returns the journal and what was recovered.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let replay = Journal::replay(&path)?;
        let file = fs::OpenOptions::new().read(true).write(true).open(&path)?;
        if replay.torn_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_all()?;
        }
        let mut file = file;
        file.seek(io::SeekFrom::End(0))?;
        let journal = Journal {
            path,
            file: Mutex::new(file),
            fail_after: std::sync::atomic::AtomicU64::new(u64::MAX),
        };
        Ok((journal, replay))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Inject a write error: after `appends` more successful appends,
    /// every further append fails like a full disk (the frame is never
    /// written, so the on-disk valid prefix stays intact). Testing
    /// hook for the ENOSPC/failed-fsync parking path.
    pub fn inject_write_error_after(&self, appends: u64) {
        self.fail_after.store(appends, std::sync::atomic::Ordering::SeqCst);
    }

    /// Durably append one record: the frame is written and fsynced
    /// before this returns. A record is the commit point of whatever it
    /// describes — write data files first, then append.
    ///
    /// On failure (real ENOSPC/fsync trouble or an injected error) the
    /// journal's valid prefix is still replayable: either the frame
    /// never hit the file, or replay truncates the torn tail.
    pub fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        use std::sync::atomic::Ordering;
        let left = self.fail_after.load(Ordering::SeqCst);
        if left == 0 {
            return Err(io::Error::other("injected journal write error (disk full)"));
        }
        if left != u64::MAX {
            self.fail_after.store(left - 1, Ordering::SeqCst);
        }
        let frame = envelope::frame(&rec.encode());
        let mut file = crate::lock(&self.file);
        file.write_all(&frame)?;
        file.sync_data()
    }
}

/// One SVD round recovered from the journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvdRound {
    /// Members in the decomposed snapshot.
    pub members: u64,
    /// Safe-file version published.
    pub version: u64,
    /// Similarity against the previous round (NaN for the first).
    pub rho: f64,
}

/// Pure fold of a record sequence into workflow state. Folding any
/// prefix of a valid journal yields a valid (earlier) state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// Configuration fingerprint from the `RunStart` record.
    pub config_hash: Option<u64>,
    /// Completed members with their attempt counts, ascending by id.
    /// A later quarantine removes the member again.
    pub completed: Vec<(u64, u32)>,
    /// Permanently failed members, ascending.
    pub failed: Vec<u64>,
    /// Members whose results were quarantined and not yet re-completed,
    /// ascending. (Requeued members that complete again leave this
    /// list.)
    pub quarantined: Vec<u64>,
    /// Last quarantine reason code per member that was *ever*
    /// quarantined, ascending by id — members present here but absent
    /// from `quarantined` were healed by a replacement.
    pub quarantine_reasons: Vec<(u64, u32)>,
    /// Total quarantine events replayed (a member can contribute more
    /// than one).
    pub quarantine_events: u64,
    /// SVD publications in order.
    pub svd_rounds: Vec<SvdRound>,
    /// The convergence record, if the criterion fired.
    pub converged: Option<(u64, f64)>,
    /// Innovations assimilated, if assimilation ran.
    pub assimilated: Option<u64>,
    /// Members in the published posterior, if the run completed.
    pub complete: Option<u64>,
    /// Fencing-epoch high-water mark per member, ascending by id: the
    /// largest epoch ever issued for each member. A resumed
    /// coordinator seeds strictly above this, so no stale incarnation
    /// from before the crash can pass the fence.
    pub epoch_high_water: Vec<(u64, u32)>,
    /// Coordinator incarnations that have served this run (max of the
    /// `CoordinatorStarted` records; 0 for pre-incarnation journals).
    pub incarnations: u64,
}

impl JournalState {
    /// Fold `records` into a state.
    pub fn replay(records: &[JournalRecord]) -> JournalState {
        let mut st = JournalState::default();
        for rec in records {
            match *rec {
                JournalRecord::RunStart { config_hash } => st.config_hash = Some(config_hash),
                JournalRecord::MemberCompleted { member, attempts } => {
                    if let Err(i) = st.completed.binary_search_by_key(&member, |(m, _)| *m) {
                        st.completed.insert(i, (member, attempts));
                    }
                    if let Ok(i) = st.quarantined.binary_search(&member) {
                        st.quarantined.remove(i);
                    }
                    if let Ok(i) = st.failed.binary_search(&member) {
                        st.failed.remove(i);
                    }
                }
                JournalRecord::MemberFailed { member, .. } => {
                    if let Err(i) = st.failed.binary_search(&member) {
                        st.failed.insert(i, member);
                    }
                }
                JournalRecord::MemberQuarantined { member, reason } => {
                    if let Ok(i) = st.completed.binary_search_by_key(&member, |(m, _)| *m) {
                        st.completed.remove(i);
                    }
                    if let Err(i) = st.quarantined.binary_search(&member) {
                        st.quarantined.insert(i, member);
                    }
                    match st.quarantine_reasons.binary_search_by_key(&member, |(m, _)| *m) {
                        Ok(i) => st.quarantine_reasons[i].1 = reason,
                        Err(i) => st.quarantine_reasons.insert(i, (member, reason)),
                    }
                    st.quarantine_events += 1;
                }
                JournalRecord::SvdPublished { members, version, rho } => {
                    st.svd_rounds.push(SvdRound { members, version, rho });
                }
                JournalRecord::Converged { members, rho } => st.converged = Some((members, rho)),
                JournalRecord::Assimilated { innovations } => st.assimilated = Some(innovations),
                JournalRecord::RunComplete { members } => st.complete = Some(members),
                JournalRecord::EpochAdvanced { member, epoch } => {
                    match st.epoch_high_water.binary_search_by_key(&member, |(m, _)| *m) {
                        Ok(i) => {
                            let hw = &mut st.epoch_high_water[i].1;
                            *hw = (*hw).max(epoch);
                        }
                        Err(i) => st.epoch_high_water.insert(i, (member, epoch)),
                    }
                }
                JournalRecord::CoordinatorStarted { incarnation } => {
                    st.incarnations = st.incarnations.max(incarnation);
                }
            }
        }
        st
    }

    /// Similarity history to rehydrate the convergence monitor with
    /// (finite rho values of the SVD rounds, in order).
    pub fn rho_history(&self) -> Vec<f64> {
        self.svd_rounds.iter().map(|r| r.rho).filter(|r| r.is_finite()).collect()
    }

    /// Members at which the run converged under `tolerance`, if it
    /// did: the `Converged` record, or — when the coordinator died
    /// between an `SvdPublished` and its `Converged` — the first round
    /// whose (finite) rho passes the test.
    pub fn converged_at(&self, tolerance: f64) -> Option<u64> {
        use esse_core::convergence::ConvergenceTest;
        if !ConvergenceTest::restore(tolerance, &self.rho_history()).converged() {
            return None;
        }
        let mut test = ConvergenceTest::new(tolerance);
        let replayed = self.svd_rounds.iter().find(|r| r.rho.is_finite() && test.check(r.rho));
        self.converged.map(|(m, _)| m).or(replayed.map(|r| r.members))
    }

    /// Member count at the latest SVD publication (0 if none ran yet):
    /// the resumed coordinator uses it to continue the SVD cadence
    /// exactly where the dead one left off.
    pub fn last_svd_members(&self) -> u64 {
        self.svd_rounds.last().map_or(0, |r| r.members)
    }
}

/// Fingerprint a run configuration as FNV-1a over canonical
/// `key=value` lines. Stable across processes and platforms; resume
/// refuses to continue a journal written under a different hash.
pub fn config_hash(parts: &[(&str, String)]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (k, v) in parts {
        for b in k.bytes().chain([b'=']).chain(v.bytes()).chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Checkpoint: journal + member result blobs in one directory.
// ---------------------------------------------------------------------

/// Encode a member result vector as a sealed `ESCK` blob (the vector
/// layout of [`esse_core::durable::seal_vector`]).
pub fn encode_member_blob(data: &[f64]) -> Vec<u8> {
    durable::seal_vector(MEMBER_BLOB, data)
}

/// Decode and validate a member blob. Truncations and bit flips fail
/// the CRC and are reported as corrupt, never silently ingested.
pub fn decode_member_blob(raw: &[u8]) -> io::Result<Vec<f64>> {
    Ok(envelope::open_with(MEMBER_BLOB, raw, durable::vector_fields)?)
}

/// Encode an error subspace as a sealed `ESSB` blob — the payload the
/// workflow publishes through the on-disk safe/live protocol
/// ([`crate::triple_buffer::DiskTripleBuffer`]).
pub fn encode_subspace_blob(sub: &ErrorSubspace) -> Vec<u8> {
    durable::seal_subspace(SUBSPACE_BLOB, sub)
}

/// Decode and validate a subspace blob.
pub fn decode_subspace_blob(raw: &[u8]) -> io::Result<ErrorSubspace> {
    Ok(envelope::open_with(SUBSPACE_BLOB, raw, durable::subspace_fields)?)
}

/// What [`Checkpoint::open`] recovered for the engine to resume from.
#[derive(Debug, Clone, Default)]
pub struct ResumeState {
    /// Completed members with validated results, ascending by id —
    /// feed to [`crate::workflow::RunInit::resuming`].
    pub completed: Vec<(usize, Vec<f64>)>,
    /// Members recorded as permanently failed.
    pub failed: Vec<usize>,
    /// Members whose blobs failed validation and were quarantined this
    /// open (they must be re-run).
    pub quarantined: Vec<usize>,
    /// The journal fold (SVD cadence, convergence, completion flags).
    pub state: JournalState,
}

/// A checkpoint directory: `run.journal` + one blob per completed
/// member + a `quarantine/` corner for files that failed validation.
pub struct Checkpoint {
    dir: PathBuf,
    journal: Journal,
}

impl Checkpoint {
    /// Journal file name inside a checkpoint directory.
    pub const JOURNAL: &'static str = "run.journal";
    /// Quarantine subdirectory name.
    pub const QUARANTINE: &'static str = "quarantine";

    fn member_path(dir: &Path, member: usize) -> PathBuf {
        dir.join(format!("member_{member}.ck"))
    }

    /// Create a fresh checkpoint directory (the directory itself may
    /// exist; a pre-existing journal is an error — refuse to clobber).
    pub fn create(dir: impl AsRef<Path>, config_hash: u64) -> io::Result<Checkpoint> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let jpath = dir.join(Self::JOURNAL);
        if jpath.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("checkpoint journal already exists at {}", jpath.display()),
            ));
        }
        let journal = Journal::create(jpath)?;
        journal.append(&JournalRecord::RunStart { config_hash })?;
        Ok(Checkpoint { dir, journal })
    }

    /// Open an existing checkpoint: replay the journal (truncating a
    /// torn tail), refuse a configuration-hash mismatch, validate every
    /// completed member's blob, quarantine the corrupt ones (journaled
    /// as [`JournalRecord::MemberQuarantined`] so the next incarnation
    /// knows too), and return the state to resume from.
    pub fn open(dir: impl AsRef<Path>, expect_hash: u64) -> io::Result<(Checkpoint, ResumeState)> {
        let dir = dir.as_ref().to_path_buf();
        let (journal, replay) = Journal::open(dir.join(Self::JOURNAL))?;
        let state = JournalState::replay(&replay.records);
        match state.config_hash {
            Some(h) if h == expect_hash => {}
            Some(h) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint config hash mismatch: journal {h:#018x}, expected {expect_hash:#018x} — refusing to mix runs"
                    ),
                ));
            }
            None => {
                return Err(corrupt("no RunStart record survived replay"));
            }
        }
        let ck = Checkpoint { dir, journal };
        let mut out = ResumeState { state: state.clone(), ..ResumeState::default() };
        out.failed = state.failed.iter().map(|&m| m as usize).collect();
        for &(member, _attempts) in &state.completed {
            let member = member as usize;
            let path = Self::member_path(&ck.dir, member);
            match fs::read(&path).and_then(|raw| decode_member_blob(&raw)) {
                Ok(data) => out.completed.push((member, data)),
                Err(_) => {
                    ck.quarantine(member)?;
                    out.quarantined.push(member);
                }
            }
        }
        // The journal fold in `out.state` should reflect the
        // quarantines we just performed.
        for &m in &out.quarantined {
            let m = m as u64;
            if let Ok(i) = out.state.completed.binary_search_by_key(&m, |(id, _)| *id) {
                out.state.completed.remove(i);
            }
            if let Err(i) = out.state.quarantined.binary_search(&m) {
                out.state.quarantined.insert(i, m);
            }
        }
        Ok((ck, out))
    }

    /// Move a member's (invalid) blob to `quarantine/` and journal it.
    fn quarantine(&self, member: usize) -> io::Result<()> {
        let src = Self::member_path(&self.dir, member);
        if src.exists() {
            let qdir = self.dir.join(Self::QUARANTINE);
            fs::create_dir_all(&qdir)?;
            fs::rename(&src, qdir.join(format!("member_{member}.ck")))?;
        }
        self.record_quarantined(member, esse_core::validate::Reason::CorruptPayload.code())
    }

    /// Journal a semantic quarantine decision (validator verdict at
    /// ingestion) so resume replays the same decision bit-for-bit.
    pub fn record_quarantined(&self, member: usize, reason: u32) -> io::Result<()> {
        self.journal.append(&JournalRecord::MemberQuarantined { member: member as u64, reason })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Durably record a completed member: the result blob is published
    /// atomically first, then the journal record commits it. A crash
    /// between the two leaves an unreferenced blob, which is harmless —
    /// replay treats the member as incomplete and re-runs it.
    pub fn record_member(&self, member: usize, attempts: u32, data: &[f64]) -> io::Result<()> {
        atomic_write(Self::member_path(&self.dir, member), &encode_member_blob(data))?;
        self.journal.append(&JournalRecord::MemberCompleted { member: member as u64, attempts })
    }

    /// Record a permanent member failure.
    pub fn record_failed(&self, member: usize, code: i32) -> io::Result<()> {
        self.journal.append(&JournalRecord::MemberFailed { member: member as u64, code })
    }

    /// Record an SVD publication.
    pub fn record_svd(&self, members: usize, version: u64, rho: f64) -> io::Result<()> {
        self.journal.append(&JournalRecord::SvdPublished { members: members as u64, version, rho })
    }

    /// Record convergence.
    pub fn record_converged(&self, members: usize, rho: f64) -> io::Result<()> {
        self.journal.append(&JournalRecord::Converged { members: members as u64, rho })
    }

    /// Record an assimilation pass.
    pub fn record_assimilated(&self, innovations: usize) -> io::Result<()> {
        self.journal.append(&JournalRecord::Assimilated { innovations: innovations as u64 })
    }

    /// Record run completion (the posterior is durable).
    pub fn record_complete(&self, members: usize) -> io::Result<()> {
        self.journal.append(&JournalRecord::RunComplete { members: members as u64 })
    }
}

/// The journal header bytes; the unit tests cut and flip past it.
#[cfg(test)]
const JOURNAL_MAGIC: &[u8; 8] = b"ESSEJNL\x01";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("esse-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::RunStart { config_hash: 0xDEAD_BEEF },
            JournalRecord::CoordinatorStarted { incarnation: 1 },
            JournalRecord::EpochAdvanced { member: 0, epoch: 1 },
            JournalRecord::EpochAdvanced { member: 3, epoch: 1 },
            JournalRecord::MemberCompleted { member: 0, attempts: 1 },
            JournalRecord::MemberCompleted { member: 3, attempts: 2 },
            JournalRecord::MemberFailed { member: 1, code: 3 },
            JournalRecord::SvdPublished { members: 2, version: 1, rho: f64::NAN },
            JournalRecord::SvdPublished { members: 4, version: 2, rho: 0.97 },
            JournalRecord::MemberQuarantined { member: 3, reason: 0 },
            JournalRecord::MemberQuarantined { member: 5, reason: 3 },
            JournalRecord::CoordinatorStarted { incarnation: 2 },
            JournalRecord::EpochAdvanced { member: 3, epoch: 2 },
            JournalRecord::Converged { members: 8, rho: 0.995 },
            JournalRecord::Assimilated { innovations: 12 },
            JournalRecord::RunComplete { members: 8 },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("rt");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        // NaN rho compares unequal; compare via encoded bytes instead.
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        assert_eq!(enc(&replay.records), enc(&sample_records()));
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        j.append(&JournalRecord::RunStart { config_hash: 1 }).unwrap();
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 1 }).unwrap();
        drop(j);
        let full = fs::read(&jpath).unwrap();
        // Tear the last record: keep the file but chop 3 bytes.
        fs::write(&jpath, &full[..full.len() - 3]).unwrap();
        let (j, replay) = Journal::open(&jpath).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_bytes > 0);
        // The torn bytes are gone; appending after resume works.
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 2 }).unwrap();
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn every_byte_prefix_replays_to_a_record_prefix() {
        let dir = tmpdir("prefix");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = fs::read(&jpath).unwrap();
        let all = Journal::replay(&jpath).unwrap().records;
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        let cut = dir.join("cut.journal");
        for n in JOURNAL_MAGIC.len()..=full.len() {
            fs::write(&cut, &full[..n]).unwrap();
            let replay = Journal::replay(&cut).unwrap();
            let k = replay.records.len();
            assert!(k <= all.len());
            assert_eq!(enc(&replay.records), enc(&all[..k]), "prefix {n} bytes");
            // The state fold never panics on a prefix.
            let _ = JournalState::replay(&replay.records);
        }
    }

    #[test]
    fn bit_flips_never_corrupt_the_replayed_prefix() {
        let dir = tmpdir("flip");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        for rec in sample_records().into_iter().take(4) {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = fs::read(&jpath).unwrap();
        let clean = Journal::replay(&jpath).unwrap().records;
        let enc = |r: &[JournalRecord]| -> Vec<Vec<u8>> { r.iter().map(|x| x.encode()).collect() };
        let mutated = dir.join("mut.journal");
        for byte in JOURNAL_MAGIC.len()..full.len() {
            let mut raw = full.clone();
            raw[byte] ^= 0x10;
            fs::write(&mutated, &raw).unwrap();
            let replay = Journal::replay(&mutated).unwrap();
            // Replay stops at or before the flipped frame; whatever it
            // returns must be a prefix of the clean record stream.
            let k = replay.records.len();
            assert!(k < clean.len() || byte >= full.len() - 8, "flip at {byte} not detected");
            assert_eq!(enc(&replay.records), enc(&clean[..k]), "flip at {byte}");
        }
    }

    #[test]
    fn state_fold_tracks_completions_failures_and_quarantine() {
        let st = JournalState::replay(&sample_records());
        assert_eq!(st.config_hash, Some(0xDEAD_BEEF));
        // Member 3 completed then got quarantined on a later resume.
        assert_eq!(st.completed, vec![(0, 1)]);
        assert_eq!(st.failed, vec![1]);
        assert_eq!(st.quarantined, vec![3, 5]);
        assert_eq!(st.quarantine_reasons, vec![(3, 0), (5, 3)]);
        assert_eq!(st.quarantine_events, 2);
        assert_eq!(st.svd_rounds.len(), 2);
        assert_eq!(st.rho_history(), vec![0.97]);
        assert_eq!(st.last_svd_members(), 4);
        assert_eq!(st.converged, Some((8, 0.995)));
        assert_eq!(st.assimilated, Some(12));
        assert_eq!(st.complete, Some(8));
        // Epoch high-water keeps the max ever issued, per member.
        assert_eq!(st.epoch_high_water, vec![(0, 1), (3, 2)]);
        assert_eq!(st.incarnations, 2);
    }

    #[test]
    fn member_blob_roundtrip_and_corruption() {
        let data = vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE, 1e300];
        let blob = encode_member_blob(&data);
        assert_eq!(decode_member_blob(&blob).unwrap(), data);
        for n in 0..blob.len() {
            assert!(decode_member_blob(&blob[..n]).is_err(), "truncation at {n} accepted");
        }
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_member_blob(&bad).is_err(), "bit flip at {byte}.{bit} accepted");
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_with_quarantine() {
        let dir = tmpdir("ckpt");
        let hash = config_hash(&[("domain", "toy".into()), ("n", "8".into())]);
        let ck = Checkpoint::create(&dir, hash).unwrap();
        ck.record_member(0, 1, &[1.0, 2.0]).unwrap();
        ck.record_member(2, 1, &[3.0, 4.0]).unwrap();
        ck.record_failed(1, 3).unwrap();
        ck.record_svd(2, 1, f64::NAN).unwrap();
        drop(ck);
        // Corrupt member 2's blob.
        let p = Checkpoint::member_path(&dir, 2);
        let mut raw = fs::read(&p).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        fs::write(&p, raw).unwrap();

        let (_ck, resume) = Checkpoint::open(&dir, hash).unwrap();
        assert_eq!(resume.completed, vec![(0, vec![1.0, 2.0])]);
        assert_eq!(resume.failed, vec![1]);
        assert_eq!(resume.quarantined, vec![2]);
        assert!(dir.join(Checkpoint::QUARANTINE).join("member_2.ck").exists());
        assert!(!p.exists());
        // A second open sees the quarantine record and doesn't re-quarantine.
        let (_ck, resume2) = Checkpoint::open(&dir, hash).unwrap();
        assert!(resume2.quarantined.is_empty());
        assert_eq!(resume2.state.quarantined, vec![2]);
    }

    #[test]
    fn checkpoint_refuses_hash_mismatch_and_clobber() {
        let dir = tmpdir("hash");
        let ck = Checkpoint::create(&dir, 42).unwrap();
        drop(ck);
        let err = match Checkpoint::open(&dir, 43) {
            Err(e) => e,
            Ok(_) => panic!("open with wrong hash must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        let err = match Checkpoint::create(&dir, 42) {
            Err(e) => e,
            Ok(_) => panic!("create over an existing journal must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn quarantine_reason_zero_keeps_the_legacy_encoding() {
        // Reason 0 must encode exactly like the pre-reason record so
        // old journals and new zero-reason records are byte-identical.
        let legacy = JournalRecord::MemberQuarantined { member: 7, reason: 0 };
        assert_eq!(legacy.encode().len(), 1 + 8);
        let modern = JournalRecord::MemberQuarantined { member: 7, reason: 4 };
        assert_eq!(modern.encode().len(), 1 + 8 + 4);
        for rec in [legacy, modern] {
            assert_eq!(JournalRecord::decode(&rec.encode()), Some(rec));
        }
    }

    #[test]
    fn injected_write_error_parks_with_a_replayable_prefix() {
        let dir = tmpdir("enospc");
        let jpath = dir.join("run.journal");
        let j = Journal::create(&jpath).unwrap();
        j.inject_write_error_after(2);
        j.append(&JournalRecord::RunStart { config_hash: 9 }).unwrap();
        j.append(&JournalRecord::MemberCompleted { member: 0, attempts: 1 }).unwrap();
        // The third append fails like ENOSPC — and keeps failing.
        let err = j.append(&JournalRecord::MemberCompleted { member: 1, attempts: 1 });
        assert!(err.is_err());
        assert!(j.append(&JournalRecord::RunComplete { members: 2 }).is_err());
        drop(j);
        // The valid prefix survives: both committed records replay.
        let replay = Journal::replay(&jpath).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.torn_bytes, 0);
        let st = JournalState::replay(&replay.records);
        assert_eq!(st.completed, vec![(0, 1)]);
        assert_eq!(st.complete, None);
    }

    #[test]
    fn config_hash_is_order_and_value_sensitive() {
        let a = config_hash(&[("x", "1".into()), ("y", "2".into())]);
        let b = config_hash(&[("x", "1".into()), ("y", "3".into())]);
        let c = config_hash(&[("y", "2".into()), ("x", "1".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, config_hash(&[("x", "1".into()), ("y", "2".into())]));
    }
}
