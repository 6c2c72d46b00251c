//! Golden compatibility vectors for every persisted byte format.
//!
//! The files under `tests/golden/` were written by the encoders as they
//! stood before the formats were moved onto one shared envelope, plus
//! hand-built legacy forms (the v1 vector/subspace files, the
//! pre-tracing pool manifest and task record) that no current encoder
//! writes any more. Each golden must still decode to its value, and
//! every format whose bytes are kept must re-encode to exactly the
//! golden bytes: workdirs, journals and checkpoints written by older
//! binaries stay readable, and the pinned posterior digests stay valid.

use esse::core::subspace::ErrorSubspace;
use esse::fileio;
use esse::linalg::Matrix;
use esse::mtc::journal::{
    decode_member_blob, decode_subspace_blob, encode_member_blob, encode_subspace_blob, Journal,
    JournalRecord,
};
use esse::mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec, CODE_REJECTED};
use esse::mtc::DiskTripleBuffer;
use std::fs;
use std::path::PathBuf;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

const VECTOR: [f64; 5] = [1.5, -2.25, 0.0, 1e300, f64::MIN_POSITIVE];
const LEGACY_VECTOR: [f64; 3] = [3.5, -0.75, 42.0];
const MEMBER: [f64; 3] = [1.0, -2.5, 3.25];

fn subspace() -> ErrorSubspace {
    ErrorSubspace {
        modes: Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.25 - 0.5),
        variances: vec![4.0, 1.0],
    }
}

fn assert_same_subspace(a: &ErrorSubspace, b: &ErrorSubspace) {
    assert_eq!(a.modes, b.modes);
    assert_eq!(a.variances, b.variances);
}

fn manifest(trace_run_id: u64) -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 2.5,
        white_noise: 0.01,
        base_seed: 0x5EED,
        lease_ms: 1200,
        config_hash: 0xC0DE_F00D,
        trace_run_id,
    }
}

const TASK: TaskSpec = TaskSpec { member: 42, epoch: 3, seed: 0xDEAD_BEEF, parent_span: 0xABCD };
const LEGACY_TASK: TaskSpec = TaskSpec { member: 7, epoch: 1, seed: 99, parent_span: 0 };
const RESULT: ResultRecord =
    ResultRecord { member: 42, epoch: 3, code: 0, pid: 4242, fc_crc: 0x1234_5678, reason: 0 };
const REJECTED: ResultRecord =
    ResultRecord { member: 43, epoch: 2, code: CODE_REJECTED, pid: 4242, fc_crc: 0, reason: 5 };
const HEARTBEAT: Heartbeat = Heartbeat { pid: 4242, counter: 17 };

/// Every journal record kind, the legacy reason-0 quarantine included.
fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::RunStart { config_hash: 0xDEAD_BEEF },
        JournalRecord::CoordinatorStarted { incarnation: 1 },
        JournalRecord::EpochAdvanced { member: 3, epoch: 2 },
        JournalRecord::MemberCompleted { member: 3, attempts: 2 },
        JournalRecord::MemberFailed { member: 1, code: -9 },
        JournalRecord::MemberQuarantined { member: 4, reason: 0 },
        JournalRecord::MemberQuarantined { member: 5, reason: 3 },
        JournalRecord::SvdPublished { members: 4, version: 2, rho: 0.97 },
        JournalRecord::Converged { members: 8, rho: 0.995 },
        JournalRecord::Assimilated { innovations: 12 },
        JournalRecord::RunComplete { members: 8 },
    ]
}

/// Bytes of the torn tail appended to the golden journal: the start of
/// a frame whose body never made it to disk.
const TORN_TAIL: usize = 5;

#[test]
fn vectors_and_subspaces() {
    let v2 = golden("vector_v2.vec");
    assert_eq!(fileio::vector_from_bytes(&v2).unwrap(), VECTOR);
    assert_eq!(&*fileio::vector_to_bytes(&VECTOR), v2.as_slice());

    let v1 = golden("vector_v1.vec");
    assert_eq!(fileio::vector_from_bytes(&v1).unwrap(), LEGACY_VECTOR);

    let s2 = golden("subspace_v2.sub");
    assert_same_subspace(&fileio::subspace_from_bytes(&s2).unwrap(), &subspace());
    assert_eq!(&*fileio::subspace_to_bytes(&subspace()), s2.as_slice());

    let s1 = golden("subspace_v1.sub");
    assert_same_subspace(&fileio::subspace_from_bytes(&s1).unwrap(), &subspace());
}

#[test]
fn checkpoint_blobs() {
    let esck = golden("member.ck");
    assert_eq!(decode_member_blob(&esck).unwrap(), MEMBER);
    assert_eq!(encode_member_blob(&MEMBER), esck);

    let essb = golden("subspace.blob");
    assert_same_subspace(&decode_subspace_blob(&essb).unwrap(), &subspace());
    assert_eq!(encode_subspace_blob(&subspace()), essb);
}

#[test]
fn covariance_frame() {
    let frame = golden("cov.safe");
    let dir = scratch("cov");
    fs::write(dir.join(DiskTripleBuffer::SAFE), &frame).unwrap();
    let buffer = DiskTripleBuffer::create(&dir).unwrap();
    let (payload, version) = buffer.read_safe().unwrap().expect("golden frame validates");
    assert_eq!(version, 3);
    assert_eq!(payload, encode_subspace_blob(&subspace()));

    let fresh = scratch("cov-fresh");
    DiskTripleBuffer::create(&fresh).unwrap().publish(&payload, 3).unwrap();
    assert_eq!(fs::read(fresh.join(DiskTripleBuffer::SAFE)).unwrap(), frame);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh);
}

#[test]
fn pool_records() {
    let dir = scratch("pool");
    let pool = TaskPool::create(&dir, &manifest(0xBEEF_0001)).unwrap();
    let root = pool.root().to_path_buf();
    // Encoding: the records the pool writes are the golden bytes.
    assert_eq!(fs::read(root.join("manifest")).unwrap(), golden("pool_manifest"));
    pool.seed(&TASK).unwrap();
    assert_eq!(fs::read(root.join("pending").join(TASK.file_name())).unwrap(), golden("pool_task"));
    pool.heartbeat(&TASK, &HEARTBEAT).unwrap();
    let hb_name = format!("{}.hb", TASK.file_name());
    assert_eq!(fs::read(root.join("claimed").join(&hb_name)).unwrap(), golden("pool_heartbeat"));
    for (rec, name) in [(RESULT, "pool_result"), (REJECTED, "pool_result_rejected")] {
        pool.publish_result(&rec).unwrap();
        assert_eq!(fs::read(root.join("results").join(rec.file_name())).unwrap(), golden(name));
    }
    let _ = fs::remove_dir_all(&dir);

    // Decoding: golden files dropped into a fresh pool read back.
    let dir = scratch("pool-read");
    let pool = TaskPool::create(&dir, &manifest(0)).unwrap();
    let root = pool.root().to_path_buf();
    for (name, want) in
        [("pool_manifest", manifest(0xBEEF_0001)), ("pool_manifest_v0", manifest(0))]
    {
        fs::write(root.join("manifest"), golden(name)).unwrap();
        assert_eq!(TaskPool::open(&dir).unwrap().1, want, "{name}");
    }
    fs::write(root.join("pending").join(TASK.file_name()), golden("pool_task")).unwrap();
    fs::write(root.join("pending").join(LEGACY_TASK.file_name()), golden("pool_task_v0")).unwrap();
    fs::write(root.join("claimed").join(TASK.file_name()), golden("pool_task")).unwrap();
    fs::write(
        root.join("claimed").join(format!("{}.hb", TASK.file_name())),
        golden("pool_heartbeat"),
    )
    .unwrap();
    for (rec, name) in [(RESULT, "pool_result"), (REJECTED, "pool_result_rejected")] {
        fs::write(root.join("results").join(rec.file_name()), golden(name)).unwrap();
    }
    let scan = pool.scan().unwrap();
    assert_eq!(scan.pending, vec![LEGACY_TASK, TASK]);
    assert_eq!(scan.claims.len(), 1);
    assert_eq!(scan.claims[0].spec, TASK);
    assert_eq!(scan.claims[0].heartbeat, Some(HEARTBEAT));
    assert_eq!(scan.results, vec![RESULT, REJECTED]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_with_a_torn_tail() {
    let raw = golden("run.journal");
    let dir = scratch("journal");
    let path = dir.join("run.journal");
    fs::write(&path, &raw).unwrap();
    let replay = Journal::replay(&path).unwrap();
    assert_eq!(replay.records, journal_records());
    assert_eq!(replay.torn_bytes, TORN_TAIL as u64);
    assert_eq!(replay.valid_len, (raw.len() - TORN_TAIL) as u64);

    let fresh = dir.join("fresh.journal");
    let journal = Journal::create(&fresh).unwrap();
    for rec in journal_records() {
        journal.append(&rec).unwrap();
    }
    drop(journal);
    assert_eq!(fs::read(&fresh).unwrap(), raw[..raw.len() - TORN_TAIL]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_is_never_read_as_a_legacy_vector() {
    // The journal header `ESSEJNL\x01` starts with the legacy v1 vector
    // magic `ESSE`; both formats are frozen, so the vector reader must
    // reject a journal on its layout.
    let dir = scratch("journal-as-vector");
    let path = dir.join("run.journal");
    fs::write(&path, golden("run.journal")).unwrap();
    assert!(fileio::read_vector(&path).is_err());
    let empty = dir.join("empty.journal");
    drop(Journal::create(&empty).unwrap());
    assert!(fileio::read_vector(&empty).is_err());
    let _ = fs::remove_dir_all(&dir);
}
