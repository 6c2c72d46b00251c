//! Crash-durable file primitives shared by the file-based workflow
//! layers (`esse::fileio`, `esse_mtc::journal`, the on-disk safe/live
//! covariance protocol).
//!
//! The paper's ESSE is file-based so a real-time forecast survives
//! infrastructure trouble (§4.1, §4.2); that only works if "written to
//! disk" actually means *on* the disk. This module supplies what every
//! durable format here is built from:
//!
//! * [`envelope`] — the one framing envelope (defined in
//!   `esse_obs::envelope` and re-exported here): the magic registry,
//!   sealed records with a CRC-32 trailer, stream frames and the field
//!   reader, so readers detect truncated or bit-flipped files instead of
//!   silently ingesting them;
//! * the vector and subspace codec ([`seal_vector`], [`vector_fields`],
//!   …), parameterised by registry kind: the `.vec`/`.sub` files and the
//!   checkpoint blobs are one layout under different magics;
//! * [`atomic_write`] — write-to-temp, `fsync` the temp file, rename
//!   over the target, then `fsync` the parent directory, so a published
//!   file survives power loss and concurrent readers never observe a
//!   torn state. On any failure the temporary file is removed.

use std::fs;
use std::io;
use std::path::Path;

use crate::subspace::ErrorSubspace;
use envelope::{EnvelopeError, Kind, Reader};
use esse_linalg::Matrix;

pub use esse_obs::crc::crc32;
pub use esse_obs::envelope;

/// Seal a state vector as a record of `kind`: a `u64` length, then the
/// values as little-endian `f64`s. The buffer is sized exactly.
pub fn seal_vector(kind: Kind, data: &[f64]) -> Vec<u8> {
    seal_f64s(kind, &[data.len() as u64], &[data])
}

/// Read a vector body: a `u64` length, then that many `f64`s. Open a
/// sealed vector with `envelope::open_with(kind, raw, vector_fields)`;
/// a legacy v1 file's payload is the same body.
pub fn vector_fields(r: &mut Reader) -> Result<Vec<f64>, EnvelopeError> {
    let n = r.u64()?;
    Ok(f64s(r, n)?.collect())
}

/// Seal an error subspace as a record of `kind`: `u64` state size `n`,
/// `u64` rank `k`, the `k` variances, then the `n × k` modes
/// column-major.
pub fn seal_subspace(kind: Kind, sub: &ErrorSubspace) -> Vec<u8> {
    let (n, k) = sub.modes.shape();
    seal_f64s(kind, &[n as u64, k as u64], &[&sub.variances, sub.modes.as_slice()])
}

/// Read a subspace body (see [`vector_fields`]).
pub fn subspace_fields(r: &mut Reader) -> Result<ErrorSubspace, EnvelopeError> {
    let (n, k) = (r.u64()?, r.u64()?);
    let variances = f64s(r, k)?.collect();
    let len = n.checked_mul(k).ok_or(EnvelopeError::Truncated)?;
    let modes = Matrix::from_col_major(n as usize, k as usize, f64s(r, len)?.collect());
    Ok(ErrorSubspace { modes, variances })
}

fn seal_f64s(kind: Kind, header: &[u64], values: &[&[f64]]) -> Vec<u8> {
    let len = header.len() + values.iter().map(|v| v.len()).sum::<usize>();
    envelope::seal(kind, 8 * len, |out| {
        header.iter().for_each(|h| out.extend_from_slice(&h.to_le_bytes()));
        values.iter().flat_map(|v| v.iter()).for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
    })
}

/// The next `n` little-endian `f64`s.
fn f64s<'a>(r: &mut Reader<'a>, n: u64) -> Result<impl Iterator<Item = f64> + 'a, EnvelopeError> {
    let len = usize::try_from(n).ok().and_then(|n| n.checked_mul(8));
    let bytes = r.take(len.ok_or(EnvelopeError::Truncated)?)?;
    Ok(bytes.chunks_exact(8).map(|w| f64::from_le_bytes(w.try_into().expect("8-byte words"))))
}

/// `fsync` a directory so a rename/create inside it survives power
/// loss. A no-op on platforms where directories cannot be opened.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    match fs::File::open(dir) {
        Ok(f) => f.sync_all(),
        // Non-unix platforms may refuse to open directories; the rename
        // itself is still atomic there, only the metadata flush is lost.
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

/// The temporary-file sibling used by [`atomic_write`] for `path`.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!("{name}.tmp"))
}

/// Durable atomic publish: write `data` to a temporary sibling, fsync
/// it, rename it over `path`, and fsync the parent directory. Readers
/// either see the old complete file or the new complete file, and the
/// new one survives power loss once this returns `Ok`. On failure the
/// temporary file is removed — a crashed writer never leaves a torn
/// file where a reader (or a later resume scan) might trust it.
pub fn atomic_write(path: impl AsRef<Path>, data: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let publish = (|| -> io::Result<()> {
        {
            let mut f = fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, data)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fsync_dir(parent)?;
            }
        }
        Ok(())
    })();
    if publish.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    publish
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_publishes_and_cleans_tmp() {
        let dir = std::env::temp_dir().join(format!("esse-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("value.bin");
        atomic_write(&target, b"hello").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"hello");
        assert!(!tmp_path(&target).exists(), "tmp file must not persist");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_publish_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join(format!("esse-durable-fail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Renaming a file over an existing non-empty directory fails.
        let target = dir.join("occupied");
        fs::create_dir_all(target.join("child")).unwrap();
        assert!(atomic_write(&target, b"doomed").is_err());
        assert!(!tmp_path(&target).exists(), "tmp file must be removed on failure");
        let _ = fs::remove_dir_all(&dir);
    }
}
