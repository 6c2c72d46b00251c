//! Binary state-vector and subspace files for the process-level workflow.
//!
//! The paper's ESSE is file-based: `pert` reads the prior modes and the
//! mean state from disk and writes a perturbed initial condition;
//! `pemodel` reads that file and writes the forecast; the diff/SVD
//! stages work on covariance files. This module defines those formats:
//! a small magic-tagged header followed by little-endian `f64`s.
//!
//! Since the format v2 revision every file written here carries a
//! format-version byte after the magic and a CRC-32 trailer over
//! everything before it, so a truncated or bit-flipped file is rejected
//! with a distinct "corrupt" error instead of being silently ingested
//! (or mistaken for a mere length mismatch). Readers still accept the
//! legacy un-checksummed v1 format, so workdirs written by older
//! binaries remain loadable. All writes go through
//! [`esse_core::durable::atomic_write`]: temp file, fsync, rename,
//! fsync the parent directory — a published file survives power loss.

use esse_core::durable::{atomic_write, crc32};
use esse_core::subspace::ErrorSubspace;
use esse_linalg::Matrix;
use std::fs;
use std::io;
use std::path::Path;

const VEC_MAGIC: u32 = 0x4553_5345; // "ESSE" — legacy v1 vector
const SUB_MAGIC: u32 = 0x4553_5542; // "ESUB" — legacy v1 subspace
const VEC_MAGIC_V2: u32 = 0x4553_5632; // "ESV2" — checksummed vector
const SUB_MAGIC_V2: u32 = 0x4553_5332; // "ESS2" — checksummed subspace

/// Current format version written after the magic in v2 files.
pub const FORMAT_VERSION: u8 = 2;

/// The v2 encoding: magic, version byte, little-endian `u64` header
/// words, `len` little-endian `f64`s, then a CRC-32 trailer over all of
/// it. The buffer is sized exactly, so boxing it never reallocates.
fn encode(magic: u32, header: &[u64], values: impl Iterator<Item = f64>, len: usize) -> Box<[u8]> {
    let mut buf = Vec::with_capacity(5 + 8 * (header.len() + len) + 4);
    buf.extend_from_slice(&magic.to_le_bytes());
    buf.push(FORMAT_VERSION);
    header.iter().for_each(|h| buf.extend_from_slice(&h.to_le_bytes()));
    values.for_each(|v| buf.extend_from_slice(&v.to_le_bytes()));
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.into_boxed_slice()
}

/// Strip a file's framing — the v2 magic, version byte and CRC-32
/// trailer, or a bare legacy v1 magic — and split off `words` header
/// words, checking the payload holds exactly `values(header)` `f64`s.
/// v2 failures are *corrupt* errors; legacy v1 mismatches stay plain
/// invalid data.
fn decode<'a>(
    raw: &'a [u8],
    [v2_magic, v1_magic]: [u32; 2],
    what: &str,
    words: usize,
    values: impl Fn(&[u64]) -> Option<usize>,
) -> io::Result<(Vec<u64>, &'a [u8])> {
    let magic = raw.first_chunk().map(|m| u32::from_le_bytes(*m));
    let (body, v2) = match magic {
        None => return Err(corrupt(what, "shorter than a magic number")),
        Some(m) if m == v2_magic => {
            let body = check_trailer(raw, what)?;
            if body[4] == 0 || body[4] > FORMAT_VERSION {
                return Err(corrupt(what, "unknown format version"));
            }
            (&body[5..], true)
        }
        Some(m) if m == v1_magic => (&raw[4..], false),
        Some(_) => return Err(bad_data(&format!("not an ESSE {what} file"))),
    };
    let fail = |why| if v2 { corrupt(what, why) } else { bad_data(&format!("{what} {why}")) };
    let (header, payload) =
        body.split_at_checked(8 * words).ok_or_else(|| fail("truncated header"))?;
    let header: Vec<u64> = header.chunks_exact(8).map(|w| u64::from_le_bytes(word(w))).collect();
    if values(&header).and_then(|n| n.checked_mul(8)) != Some(payload.len()) {
        return Err(fail("size mismatch"));
    }
    Ok((header, payload))
}

fn f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|w| f64::from_le_bytes(word(w)))
}

fn word(w: &[u8]) -> [u8; 8] {
    w.try_into().expect("chunks_exact(8) yields 8-byte words")
}

/// Encode a state vector into the current (v2, checksummed) on-disk
/// format. Exposed so the on-disk safe/live covariance protocol can
/// embed vector payloads without a round-trip through a file.
pub fn vector_to_bytes(data: &[f64]) -> Box<[u8]> {
    encode(VEC_MAGIC_V2, &[data.len() as u64], data.iter().copied(), data.len())
}

/// Write a state vector to `path` (durable atomic publish).
pub fn write_vector(path: impl AsRef<Path>, data: &[f64]) -> io::Result<()> {
    atomic_write(path, &vector_to_bytes(data))
}

/// Decode a state vector from raw file bytes (v2 or legacy v1).
pub fn vector_from_bytes(raw: &[u8]) -> io::Result<Vec<f64>> {
    let magics = [VEC_MAGIC_V2, VEC_MAGIC];
    let (_, payload) = decode(raw, magics, "vector", 1, |h| usize::try_from(h[0]).ok())?;
    Ok(f64s(payload).collect())
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
    let v2 = raw[..4] == VEC_MAGIC_V2.to_le_bytes();
    Ok((data, raw.last_chunk().filter(|_| v2).map_or(0, |t| u32::from_le_bytes(*t))))
}

/// Validate the vector file at `path` and return its CRC-32 trailer
/// (see [`read_vector_crc`]).
pub fn vector_file_crc(path: impl AsRef<Path>) -> io::Result<u32> {
    read_vector_crc(path).map(|(_, crc)| crc)
}

/// Encode an error subspace into the current (v2, checksummed) format.
pub fn subspace_to_bytes(subspace: &ErrorSubspace) -> Box<[u8]> {
    let (n, k) = subspace.modes.shape();
    let modes = (0..k).flat_map(|j| subspace.modes.col(j).iter().copied());
    let values = subspace.variances.iter().copied().chain(modes);
    encode(SUB_MAGIC_V2, &[n as u64, k as u64], values, k + n * k)
}

/// Write an error subspace (modes + variances) to `path`.
pub fn write_subspace(path: impl AsRef<Path>, subspace: &ErrorSubspace) -> io::Result<()> {
    atomic_write(path, &subspace_to_bytes(subspace))
}

/// Decode an error subspace from raw file bytes (v2 or legacy v1).
pub fn subspace_from_bytes(raw: &[u8]) -> io::Result<ErrorSubspace> {
    let values = |h: &[u64]| {
        let (n, k) = (usize::try_from(h[0]).ok()?, usize::try_from(h[1]).ok()?);
        n.checked_mul(k)?.checked_add(k)
    };
    let (h, payload) = decode(raw, [SUB_MAGIC_V2, SUB_MAGIC], "subspace", 2, values)?;
    let (n, k) = (h[0] as usize, h[1] as usize);
    let mut values = f64s(payload);
    let variances = values.by_ref().take(k).collect();
    Ok(ErrorSubspace { modes: Matrix::from_col_major(n, k, values.collect()), variances })
}

/// Read an error subspace from `path`.
pub fn read_subspace(path: impl AsRef<Path>) -> io::Result<ErrorSubspace> {
    subspace_from_bytes(&fs::read(path)?)
}

/// Verify the CRC-32 trailer of a v2 file and return the body (all
/// bytes before the trailer). A missing or mismatched trailer is a
/// *corrupt file* — distinct from "not an ESSE file" so the caller (or
/// a resume scan) knows the file was torn or flipped, not misnamed.
fn check_trailer<'a>(raw: &'a [u8], what: &str) -> io::Result<&'a [u8]> {
    if raw.len() < 9 {
        return Err(corrupt(what, "truncated before checksum"));
    }
    let (body, trailer) = raw.split_at(raw.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != stored {
        return Err(corrupt(what, "checksum mismatch"));
    }
    Ok(body)
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn corrupt(what: &str, why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt ESSE {what} file: {why}"))
}

/// `true` if `err` is the distinct corrupt-file error produced by the
/// checksum/version validation above (as opposed to "not an ESSE file"
/// or an ordinary I/O failure). Resume scans use this to decide between
/// quarantining a file and treating it as foreign.
pub fn is_corrupt_error(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData && err.to_string().starts_with("corrupt ESSE")
}

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
