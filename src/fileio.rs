//! Binary state-vector and subspace files for the process-level workflow.
//!
//! The paper's ESSE is file-based: `pert` reads the prior modes and the
//! mean state from disk and writes a perturbed initial condition;
//! `pemodel` reads that file and writes the forecast; the diff/SVD
//! stages work on covariance files. The files are sealed records of the
//! framing envelope ([`esse_core::durable::envelope`], kinds `VECTOR`
//! and `SUBSPACE`): magic, format-version byte, little-endian `u64`
//! header words and `f64` values, CRC-32 trailer. The layout itself is
//! the vector/subspace codec of [`esse_core::durable`]. A truncated or
//! bit-flipped file is rejected with a distinct "corrupt" error (see
//! [`is_corrupt_error`]) instead of being silently ingested. Readers
//! still accept the legacy un-checksummed v1 format (magic, then the
//! same header and values), so workdirs written by older binaries
//! remain loadable. All writes go through
//! [`esse_core::durable::atomic_write`]: temp file, fsync, rename,
//! fsync the parent directory — a published file survives power loss.

use esse_core::durable::envelope::{self, EnvelopeError, Reader};
use esse_core::durable::envelope::{LEGACY_SUBSPACE, LEGACY_VECTOR, SUBSPACE, VECTOR};
use esse_core::durable::{self, atomic_write};
use esse_core::subspace::ErrorSubspace;
use std::fs;
use std::io;
use std::path::Path;

/// Current format version written after the magic.
pub const FORMAT_VERSION: u8 = VECTOR.version;

/// Read a legacy v1 body; its failures are plain invalid data, never
/// "corrupt" (v1 files carry no checksum to fail).
fn legacy<T>(body: &[u8], read: fn(&mut Reader) -> Result<T, EnvelopeError>) -> io::Result<T> {
    let why = |e| io::Error::new(io::ErrorKind::InvalidData, format!("v1 file: {e}"));
    envelope::read_all(body, read).map_err(why)
}

/// Encode a state vector into the current (v2, checksummed) on-disk
/// format. Exposed so the on-disk safe/live covariance protocol can
/// embed vector payloads without a round-trip through a file.
pub fn vector_to_bytes(data: &[f64]) -> Box<[u8]> {
    durable::seal_vector(VECTOR, data).into_boxed_slice()
}

/// Write a state vector to `path` (durable atomic publish).
pub fn write_vector(path: impl AsRef<Path>, data: &[f64]) -> io::Result<()> {
    atomic_write(path, &vector_to_bytes(data))
}

/// Decode a state vector from raw file bytes (v2 or legacy v1).
pub fn vector_from_bytes(raw: &[u8]) -> io::Result<Vec<f64>> {
    match raw.strip_prefix(LEGACY_VECTOR.magic) {
        Some(body) => legacy(body, durable::vector_fields),
        None => Ok(envelope::open_with(VECTOR, raw, durable::vector_fields)?),
    }
}

/// Read a state vector from `path`.
pub fn read_vector(path: impl AsRef<Path>) -> io::Result<Vec<f64>> {
    vector_from_bytes(&fs::read(path)?)
}

/// Read and validate the vector file at `path` in one pass, returning
/// the vector together with its CRC-32 trailer — the fingerprint a
/// worker publishes in its pool result record, so the coordinator can
/// cross-check that the forecast it ingests is the one the worker
/// validated. Legacy v1 files have no trailer and report 0.
pub fn read_vector_crc(path: impl AsRef<Path>) -> io::Result<(Vec<f64>, u32)> {
    let raw = fs::read(path)?;
    let data = vector_from_bytes(&raw)?;
    let v2 = raw.starts_with(VECTOR.magic);
    Ok((data, raw.last_chunk().filter(|_| v2).map_or(0, |t| u32::from_le_bytes(*t))))
}

/// Validate the vector file at `path` and return its CRC-32 trailer
/// (see [`read_vector_crc`]).
pub fn vector_file_crc(path: impl AsRef<Path>) -> io::Result<u32> {
    read_vector_crc(path).map(|(_, crc)| crc)
}

/// Encode an error subspace into the current (v2, checksummed) format.
pub fn subspace_to_bytes(subspace: &ErrorSubspace) -> Box<[u8]> {
    durable::seal_subspace(SUBSPACE, subspace).into_boxed_slice()
}

/// Write an error subspace (modes + variances) to `path`.
pub fn write_subspace(path: impl AsRef<Path>, subspace: &ErrorSubspace) -> io::Result<()> {
    atomic_write(path, &subspace_to_bytes(subspace))
}

/// Decode an error subspace from raw file bytes (v2 or legacy v1).
pub fn subspace_from_bytes(raw: &[u8]) -> io::Result<ErrorSubspace> {
    match raw.strip_prefix(LEGACY_SUBSPACE.magic) {
        Some(body) => legacy(body, durable::subspace_fields),
        None => Ok(envelope::open_with(SUBSPACE, raw, durable::subspace_fields)?),
    }
}

/// Read an error subspace from `path`.
pub fn read_subspace(path: impl AsRef<Path>) -> io::Result<ErrorSubspace> {
    subspace_from_bytes(&fs::read(path)?)
}

/// `true` if `err` is the distinct corrupt-file error of a truncated,
/// bit-flipped or unknown-version file (as opposed to "not an ESSE
/// file", a legacy v1 size mismatch, or an ordinary I/O failure).
/// Resume scans use this to decide between quarantining a file and
/// treating it as foreign.
pub fn is_corrupt_error(err: &io::Error) -> bool {
    let typed = err.get_ref().and_then(|e| e.downcast_ref::<EnvelopeError>());
    typed.is_some_and(|e| *e != EnvelopeError::BadMagic)
}

// The legacy v1 magics as the `u32` words v1 writers stored; the unit
// tests hand-build v1 files from them.
#[cfg(test)]
const VEC_MAGIC: u32 = u32::from_le_bytes(*b"ESSE");
#[cfg(test)]
const SUB_MAGIC: u32 = u32::from_le_bytes(*b"BUSE");
#[cfg(test)]
use esse_core::durable::crc32;

#[cfg(test)]
mod tests {
    use super::*;
    use esse_core::durable::tmp_path;
    use esse_core::subspace::ErrorSubspace;
    use esse_linalg::Matrix;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("esse-fileio-{name}-{}", std::process::id()))
    }

    #[test]
    fn vector_roundtrip() {
        let p = tmp("vec");
        let data = vec![1.5, -2.25, 0.0, 1e300, f64::MIN_POSITIVE];
        write_vector(&p, &data).unwrap();
        assert_eq!(read_vector(&p).unwrap(), data);
    }

    #[test]
    fn empty_vector_roundtrip() {
        let p = tmp("empty");
        write_vector(&p, &[]).unwrap();
        assert!(read_vector(&p).unwrap().is_empty());
    }

    #[test]
    fn subspace_roundtrip() {
        let p = tmp("sub");
        let modes = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f64 * 0.25);
        let sub = ErrorSubspace { modes: modes.clone(), variances: vec![4.0, 1.0] };
        write_subspace(&p, &sub).unwrap();
        let back = read_subspace(&p).unwrap();
        assert_eq!(back.variances, vec![4.0, 1.0]);
        assert_eq!(back.modes, modes);
    }

    #[test]
    fn vector_file_crc_matches_trailer_and_rejects_corruption() {
        let p = tmp("crc");
        write_vector(&p, &[1.0, 2.5, -3.0]).unwrap();
        let raw = std::fs::read(&p).unwrap();
        let trailer = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap());
        assert_eq!(vector_file_crc(&p).unwrap(), trailer);
        let mut bad = raw.clone();
        bad[10] ^= 1;
        std::fs::write(&p, &bad).unwrap();
        assert!(vector_file_crc(&p).is_err());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let p = tmp("bad");
        std::fs::write(&p, b"garbage!").unwrap();
        assert!(read_vector(&p).is_err());
        assert!(read_subspace(&p).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let p = tmp("trunc");
        write_vector(&p, &[1.0, 2.0, 3.0]).unwrap();
        let mut raw = std::fs::read(&p).unwrap();
        raw.truncate(raw.len() - 4);
        std::fs::write(&p, raw).unwrap();
        let err = read_vector(&p).unwrap_err();
        assert!(is_corrupt_error(&err), "{err}");
    }

    #[test]
    fn legacy_v1_vector_still_readable() {
        // Hand-build a v1 file: magic + len + payload, no checksum.
        let data = [3.5f64, -0.75, 42.0];
        let mut raw = Vec::new();
        raw.extend_from_slice(&VEC_MAGIC.to_le_bytes());
        raw.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for v in data {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        let p = tmp("legacy-vec");
        std::fs::write(&p, &raw).unwrap();
        assert_eq!(read_vector(&p).unwrap(), data);
    }

    #[test]
    fn legacy_v1_subspace_still_readable() {
        let modes = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let mut raw = Vec::new();
        raw.extend_from_slice(&SUB_MAGIC.to_le_bytes());
        raw.extend_from_slice(&3u64.to_le_bytes());
        raw.extend_from_slice(&2u64.to_le_bytes());
        for v in [2.0f64, 0.5] {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        for j in 0..2 {
            for &v in modes.col(j) {
                raw.extend_from_slice(&v.to_le_bytes());
            }
        }
        let p = tmp("legacy-sub");
        std::fs::write(&p, &raw).unwrap();
        let back = read_subspace(&p).unwrap();
        assert_eq!(back.variances, vec![2.0, 0.5]);
        assert_eq!(back.modes, modes);
    }

    #[test]
    fn truncation_at_every_byte_boundary_rejected() {
        let bytes = vector_to_bytes(&[1.0, 2.0, 3.0, 4.0]);
        for cut in 0..bytes.len() {
            let err = vector_from_bytes(&bytes[..cut])
                .expect_err(&format!("prefix of {cut} bytes must not parse"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // The full file, of course, parses.
        assert_eq!(vector_from_bytes(&bytes).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn single_bit_flips_rejected() {
        let bytes = subspace_to_bytes(&ErrorSubspace {
            modes: Matrix::from_fn(4, 2, |i, j| (i * 7 + j) as f64 * 0.5),
            variances: vec![3.0, 1.0],
        });
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[byte] ^= 1 << bit;
                assert!(
                    subspace_from_bytes(&flipped).is_err(),
                    "flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut raw = vector_to_bytes(&[9.0]).to_vec();
        raw[4] = FORMAT_VERSION + 1;
        // Re-stamp the trailer so only the version byte is wrong.
        let body_len = raw.len() - 4;
        let crc = crc32(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = vector_from_bytes(&raw).unwrap_err();
        assert!(is_corrupt_error(&err), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn atomic_write_tmp_never_persists_on_failure() {
        let dir = tmp("atomic-fail");
        std::fs::create_dir_all(&dir).unwrap();
        // Rename over a non-empty directory fails after the temp file
        // was created; the temp sibling must be cleaned up.
        let target = dir.join("vector.bin");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        assert!(write_vector(&target, &[1.0, 2.0]).is_err());
        assert!(!tmp_path(&target).exists(), "temp file persisted after failed publish");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
