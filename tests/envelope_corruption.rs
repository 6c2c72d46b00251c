//! One table-driven corruption sweep over every kind in the framing
//! envelope's magic registry: truncation at every byte and every
//! single-bit flip must be rejected — never decoded into a value — and
//! no record decodes as a different kind.

use esse::core::durable::envelope::{self, Kind, REGISTRY};
use esse::core::subspace::ErrorSubspace;
use esse::fileio;
use esse::linalg::Matrix;
use esse::mtc::journal::{self, Journal, JournalRecord};
use esse::mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskSpec};
use esse::mtc::DiskTripleBuffer;
use esse_obs::fleet::SpanBatch;
use esse_obs::{ArgValue, Lane, RecorderExt, RingRecorder};
use std::path::{Path, PathBuf};

/// Reports whether the bytes decoded into a value.
type Decoder = Box<dyn Fn(&[u8]) -> bool>;

/// One registry kind: a valid sample and its decoder.
struct Case {
    kind: Kind,
    sample: Vec<u8>,
    decodes: Decoder,
    /// Legacy v1 files carry no checksum: a flipped value bit decodes to
    /// a different value, so only truncation is swept.
    sealed: bool,
}

fn case(kind: Kind, sample: Vec<u8>, decodes: impl Fn(&[u8]) -> bool + 'static) -> Case {
    Case { kind, sample, decodes: Box::new(decodes), sealed: true }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-envelope-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Decode by writing `raw` to `path` and reading it back through the
/// file-level API (for formats whose codec is private).
fn via_file(path: &Path, raw: &[u8], read: impl Fn(&Path) -> bool) -> bool {
    std::fs::write(path, raw).unwrap();
    read(path)
}

fn subspace() -> ErrorSubspace {
    ErrorSubspace {
        modes: Matrix::from_fn(3, 2, |i, j| (i + 3 * j) as f64 * 0.5),
        variances: vec![2.0, 0.5],
    }
}

fn legacy(kind: Kind, header: &[u64], values: &[f64]) -> Vec<u8> {
    let mut raw = kind.magic.to_vec();
    header.iter().for_each(|h| raw.extend_from_slice(&h.to_le_bytes()));
    values.iter().for_each(|v| raw.extend_from_slice(&v.to_le_bytes()));
    raw
}

fn span_batch() -> SpanBatch {
    let ring = RingRecorder::new();
    ring.begin_at(10, Lane::Worker(2), "task", "task", vec![("member", ArgValue::U64(4))]);
    ring.instant_at(15, Lane::Worker(2), "phase", "claim", vec![("ok", ArgValue::Bool(true))]);
    ring.end_at(20, Lane::Worker(2), "task", "task");
    SpanBatch::from_trace(7, 2, 4, 1, false, &ring.drain())
}

fn cases(dir: &Path) -> Vec<Case> {
    let sub = subspace();
    let values = [1.5, -2.0, 0.25];
    let mut legacy_sub = sub.variances.clone();
    legacy_sub.extend_from_slice(sub.modes.as_slice());
    let manifest = PoolManifest {
        domain: "monterey:4,4,2".into(),
        hours: 1.0,
        white_noise: 0.0,
        base_seed: 3,
        lease_ms: 900,
        config_hash: 11,
        trace_run_id: 5,
    };
    let task = TaskSpec { member: 1, epoch: 2, seed: 3, parent_span: 4 };
    let result = ResultRecord { member: 1, epoch: 2, code: 122, pid: 9, fc_crc: 8, reason: 3 };

    let cov_dir = dir.join("cov");
    let cov = DiskTripleBuffer::create(&cov_dir).unwrap();
    cov.publish(b"covariance payload", 5).unwrap();
    let cov_frame = std::fs::read(cov.safe_path()).unwrap();

    let journal_path = dir.join("sample.journal");
    let j = Journal::create(&journal_path).unwrap();
    j.append(&JournalRecord::MemberCompleted { member: 3, attempts: 1 }).unwrap();
    drop(j);
    let journal_bytes = std::fs::read(&journal_path).unwrap();

    let safe = cov_dir.join(DiskTripleBuffer::SAFE);
    let replayed = dir.join("replayed.journal");
    vec![
        case(envelope::VECTOR, fileio::vector_to_bytes(&values).to_vec(), |b| {
            fileio::vector_from_bytes(b).is_ok()
        }),
        case(envelope::SUBSPACE, fileio::subspace_to_bytes(&sub).to_vec(), |b| {
            fileio::subspace_from_bytes(b).is_ok()
        }),
        Case {
            sealed: false,
            ..case(envelope::LEGACY_VECTOR, legacy(envelope::LEGACY_VECTOR, &[3], &values), |b| {
                fileio::vector_from_bytes(b).is_ok()
            })
        },
        Case {
            sealed: false,
            ..case(
                envelope::LEGACY_SUBSPACE,
                legacy(envelope::LEGACY_SUBSPACE, &[3, 2], &legacy_sub),
                |b| fileio::subspace_from_bytes(b).is_ok(),
            )
        },
        case(envelope::MEMBER_BLOB, journal::encode_member_blob(&values), |b| {
            journal::decode_member_blob(b).is_ok()
        }),
        case(envelope::SUBSPACE_BLOB, journal::encode_subspace_blob(&sub), |b| {
            journal::decode_subspace_blob(b).is_ok()
        }),
        case(envelope::COVARIANCE, cov_frame, move |b| {
            via_file(&safe, b, |_| cov.read_safe().unwrap().is_some())
        }),
        case(envelope::JOURNAL, journal_bytes, move |b| {
            via_file(&replayed, b, |p| Journal::replay(p).is_ok_and(|r| !r.records.is_empty()))
        }),
        case(envelope::POOL_MANIFEST, manifest.encode(), |b| PoolManifest::decode(b).is_ok()),
        case(envelope::POOL_TASK, task.encode(), |b| TaskSpec::decode(b).is_ok()),
        case(envelope::POOL_RESULT, result.encode(), |b| ResultRecord::decode(b).is_ok()),
        case(envelope::POOL_HEARTBEAT, Heartbeat { pid: 1, counter: 2 }.encode(), |b| {
            Heartbeat::decode(b).is_ok()
        }),
        case(envelope::SPAN_BATCH, span_batch().encode(), |b| SpanBatch::decode(b).is_ok()),
    ]
}

#[test]
fn the_table_covers_every_registry_kind() {
    let dir = scratch("cover");
    let table = cases(&dir);
    for kind in REGISTRY {
        let n = table.iter().filter(|c| c.kind == kind).count();
        assert_eq!(n, 1, "registry kind {:?} needs exactly one case", kind.magic);
    }
    for c in &table {
        assert!(c.sample.starts_with(c.kind.magic), "{:?} sample lacks its magic", c.kind.magic);
        assert!((c.decodes)(&c.sample), "{:?} sample does not decode", c.kind.magic);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_never_decodes() {
    let dir = scratch("truncate");
    for c in cases(&dir) {
        for cut in 0..c.sample.len() {
            assert!(!(c.decodes)(&c.sample[..cut]), "{:?} decoded from {cut} bytes", c.kind.magic);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_bit_flip_never_decodes() {
    let dir = scratch("flip");
    for c in cases(&dir).into_iter().filter(|c| c.sealed) {
        for byte in 0..c.sample.len() {
            for bit in 0..8 {
                let mut bad = c.sample.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    !(c.decodes)(&bad),
                    "{:?} decoded with byte {byte} bit {bit} flipped",
                    c.kind.magic
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_record_decodes_as_another_kind() {
    let dir = scratch("cross");
    let table = cases(&dir);
    // One reader serves both versions of the vector and subspace files.
    let family = |k: Kind| match k {
        k if k == envelope::LEGACY_VECTOR => envelope::VECTOR,
        k if k == envelope::LEGACY_SUBSPACE => envelope::SUBSPACE,
        k => k,
    };
    for a in &table {
        for b in table.iter().filter(|b| family(b.kind) != family(a.kind)) {
            // This includes the journal, whose header starts with the
            // legacy vector magic: it never reads as a vector.
            assert!(
                !(b.decodes)(&a.sample),
                "{:?} sample decoded as {:?}",
                a.kind.magic,
                b.kind.magic
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
