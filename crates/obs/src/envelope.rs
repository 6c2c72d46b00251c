//! The one framing envelope for every byte format that crosses a
//! process boundary — files on the shared filesystem (paper §4.1: the
//! perturbation, forecast and safe/live covariance files; the pool and
//! journal records) and frames on the TCP transport.
//!
//! * [`REGISTRY`] — every magic in the workspace, with its on-disk bytes
//!   and current version. No magic equals or prefixes another, except
//!   that the frozen journal header `ESSEJNL` begins with the frozen
//!   legacy v1 vector magic `ESSE` (the vector reader rejects a journal
//!   on its layout).
//! * Sealed records — [`seal`] / [`open`]: magic, version byte, body,
//!   then the CRC-32 of everything before it. A reader accepts versions
//!   `1..=current` and fails with a typed [`EnvelopeError`].
//! * Stream frames — [`frame`] / [`next_frame`] / [`read_frame`]:
//!   `[len u32][crc u32 of body][body]`, bodies capped at [`MAX_FRAME`].
//!   One torn-tail rule: [`FrameError::Truncated`] means "need more
//!   bytes" (the journal truncates there, a socket waits or sees EOF);
//!   every other error is corruption (the journal replay ends there, a
//!   connection is dropped).
//! * [`Reader`] — the one little-endian field cursor every decoder uses.
//!
//! All integers are little-endian.

use crate::crc::crc32;
use std::fmt;
use std::io::{self, Read, Write};

/// Append each value's little-endian bytes to a `Vec<u8>`:
/// `put_le!(out, member, epoch, seed)`.
#[macro_export]
macro_rules! put_le {
    ($out:expr, $($value:expr),+ $(,)?) => {{
        $( $out.extend_from_slice(&$value.to_le_bytes()); )+
    }};
}

/// One registered format: its magic bytes and the newest version this
/// build writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// Bytes every record of this kind starts with.
    pub magic: &'static [u8],
    /// Current version, written after the magic; readers accept
    /// `1..=version`.
    pub version: u8,
}

/// State vector file (`.vec`; the `u32` magic `0x4553_5632`).
pub const VECTOR: Kind = Kind { magic: b"2VSE", version: 2 };
/// Error subspace file (`.sub`; the `u32` magic `0x4553_5332`).
pub const SUBSPACE: Kind = Kind { magic: b"2SSE", version: 2 };
/// Legacy v1 vector: magic then body, no version byte, no checksum.
/// Read-only.
pub const LEGACY_VECTOR: Kind = Kind { magic: b"ESSE", version: 1 };
/// Legacy v1 subspace, laid out like [`LEGACY_VECTOR`]. Read-only.
pub const LEGACY_SUBSPACE: Kind = Kind { magic: b"BUSE", version: 1 };
/// Checkpointed member result (the vector layout).
pub const MEMBER_BLOB: Kind = Kind { magic: b"ESCK", version: 1 };
/// Published subspace estimate (the subspace layout).
pub const SUBSPACE_BLOB: Kind = Kind { magic: b"ESSB", version: 1 };
/// Safe/live covariance frame: `u64` version counter, `u64` payload
/// length, payload.
pub const COVARIANCE: Kind = Kind { magic: b"ESTB", version: 1 };
/// Run journal header; stream frames follow it.
pub const JOURNAL: Kind = Kind { magic: b"ESSEJNL", version: 1 };
/// Pool manifest record.
pub const POOL_MANIFEST: Kind = Kind { magic: b"ESPM", version: 1 };
/// Pool task record.
pub const POOL_TASK: Kind = Kind { magic: b"ESTK", version: 1 };
/// Pool result record.
pub const POOL_RESULT: Kind = Kind { magic: b"ESRS", version: 1 };
/// Pool heartbeat record.
pub const POOL_HEARTBEAT: Kind = Kind { magic: b"ESHB", version: 1 };
/// Worker span batch (trace sidecar / `Trace` message).
pub const SPAN_BATCH: Kind = Kind { magic: b"ESSP", version: 1 };

/// Every magic in the workspace.
pub const REGISTRY: [Kind; 13] = [
    VECTOR,
    SUBSPACE,
    LEGACY_VECTOR,
    LEGACY_SUBSPACE,
    MEMBER_BLOB,
    SUBSPACE_BLOB,
    COVARIANCE,
    JOURNAL,
    POOL_MANIFEST,
    POOL_TASK,
    POOL_RESULT,
    POOL_HEARTBEAT,
    SPAN_BATCH,
];

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The bytes do not start with the expected magic: not a record of
    /// this kind at all (misnamed, not damaged).
    BadMagic,
    /// A version byte outside `1..=current`.
    UnknownVersion(u8),
    /// The bytes end before the record does.
    Truncated,
    /// The CRC-32 trailer does not match the bytes before it.
    Checksum {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC of the bytes as read.
        computed: u32,
    },
    /// An unknown type or tag byte.
    BadType(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Bytes left over after the last field.
    TrailingBytes(usize),
    /// A length or count read from the bytes exceeded its cap.
    FieldTooLarge(usize),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "bad magic"),
            EnvelopeError::UnknownVersion(v) => write!(f, "unknown format version {v}"),
            EnvelopeError::Truncated => write!(f, "truncated"),
            EnvelopeError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            EnvelopeError::BadType(t) => write!(f, "unknown type byte {t:#04x}"),
            EnvelopeError::BadUtf8 => write!(f, "string field is not utf-8"),
            EnvelopeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            EnvelopeError::FieldTooLarge(n) => write!(f, "length {n} exceeds its cap"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<EnvelopeError> for io::Error {
    fn from(e: EnvelopeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// --- Sealed records ------------------------------------------------------

/// `kind`'s magic followed by its current version byte.
pub fn header(kind: Kind) -> Vec<u8> {
    [kind.magic, &[kind.version]].concat()
}

/// Check `kind`'s magic and a version in `1..=current` at the start of
/// `raw`; returns the bytes after the version byte.
pub fn strip_header(kind: Kind, raw: &[u8]) -> Result<&[u8], EnvelopeError> {
    let Some(rest) = raw.strip_prefix(kind.magic) else {
        let torn = raw.len() < kind.magic.len() && kind.magic.starts_with(raw);
        return Err(if torn { EnvelopeError::Truncated } else { EnvelopeError::BadMagic });
    };
    match rest.split_first() {
        None => Err(EnvelopeError::Truncated),
        Some((&v, rest)) if (1..=kind.version).contains(&v) => Ok(rest),
        Some((&v, _)) => Err(EnvelopeError::UnknownVersion(v)),
    }
}

/// Seal the body `write` appends as a record of `kind`: magic, version,
/// body, CRC-32 trailer, in one buffer sized for a `body_len`-byte body.
pub fn seal(kind: Kind, body_len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(kind.magic.len() + 1 + body_len + 4);
    out.extend_from_slice(kind.magic);
    out.push(kind.version);
    write(&mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate a sealed record of `kind` and return its body.
pub fn open(kind: Kind, raw: &[u8]) -> Result<&[u8], EnvelopeError> {
    let rest = strip_header(kind, raw)?;
    let (body, trailer) = rest.split_last_chunk::<4>().ok_or(EnvelopeError::Truncated)?;
    let (stored, computed) = (u32::from_le_bytes(*trailer), crc32(&raw[..raw.len() - 4]));
    if stored != computed {
        return Err(EnvelopeError::Checksum { stored, computed });
    }
    Ok(body)
}

/// Open a sealed record of `kind` and decode its body with `read` (see
/// [`read_all`]).
pub fn open_with<'a, T>(
    kind: Kind,
    raw: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, EnvelopeError>,
) -> Result<T, EnvelopeError> {
    read_all(open(kind, raw)?, read)
}

// --- Stream frames -------------------------------------------------------

/// Hard cap on a frame body. Large enough for a full forecast payload
/// of any domain the binaries accept (~1M values), small enough that a
/// corrupt length prefix cannot make a reader allocate without bound.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Bytes in front of every frame body: length, then CRC-32 of the body.
pub const FRAME_OVERHEAD: usize = 8;

/// Why bytes failed to decode as a stream frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does: not an integrity failure,
    /// the reader needs more bytes.
    Truncated {
        /// Total bytes the frame occupies (the header's, while the
        /// length is still unread).
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`]; rejected before any
    /// allocation or body read.
    TooLarge {
        /// The advertised body length.
        advertised: usize,
    },
    /// The body does not match the CRC in the header.
    Corrupt {
        /// CRC carried in the header.
        expected: u32,
        /// CRC of the body as received.
        actual: u32,
    },
    /// A zero-length body: every frame carries at least one byte.
    Empty,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            FrameError::TooLarge { advertised } => {
                write!(f, "frame body of {advertised} bytes exceeds cap of {MAX_FRAME}")
            }
            FrameError::Corrupt { expected, actual } => {
                write!(f, "frame crc mismatch: header {expected:#010x}, body {actual:#010x}")
            }
            FrameError::Empty => write!(f, "empty frame body"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Frame one body.
///
/// # Panics
///
/// If `body` is empty or longer than [`MAX_FRAME`] — programming errors
/// on the sending side, not runtime conditions.
pub fn frame(body: &[u8]) -> Vec<u8> {
    assert!(!body.is_empty(), "refusing to frame an empty body");
    assert!(body.len() <= MAX_FRAME, "frame body of {} bytes exceeds cap", body.len());
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + body.len());
    put_le!(out, body.len() as u32, crc32(body));
    out.extend_from_slice(body);
    out
}

/// The body length a frame's first four bytes announce.
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, FrameError> {
    match u32::from_le_bytes(prefix) as usize {
        0 => Err(FrameError::Empty),
        len if len > MAX_FRAME => Err(FrameError::TooLarge { advertised: len }),
        len => Ok(len),
    }
}

/// Check a received body against its frame header.
pub fn check_frame(head: [u8; FRAME_OVERHEAD], body: &[u8]) -> Result<(), FrameError> {
    let [.., a, b, c, d] = head;
    let expected = u32::from_le_bytes([a, b, c, d]);
    let actual = crc32(body);
    if expected != actual {
        return Err(FrameError::Corrupt { expected, actual });
    }
    Ok(())
}

/// Decode the first frame in `buf`: its body and the bytes it spans.
pub fn next_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let have = buf.len();
    let torn = |needed| FrameError::Truncated { needed, have };
    let len = frame_len(*buf.first_chunk().ok_or(torn(FRAME_OVERHEAD))?)?;
    let total = FRAME_OVERHEAD + len;
    let (head, rest) = buf.split_first_chunk().ok_or(torn(total))?;
    let body = rest.get(..len).ok_or(torn(total))?;
    check_frame(*head, body)?;
    Ok((body, total))
}

/// Write one framed body to a stream.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    w.write_all(&frame(body))?;
    w.flush()
}

/// Read one framed body from a stream. A clean EOF before the header
/// surfaces as [`io::ErrorKind::UnexpectedEof`]; integrity failures as
/// [`io::ErrorKind::InvalidData`] wrapping the [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut head = [0u8; FRAME_OVERHEAD];
    r.read_exact(&mut head)?;
    let [a, b, c, d, ..] = head;
    let mut body = vec![0u8; frame_len([a, b, c, d])?];
    r.read_exact(&mut body)?;
    check_frame(head, &body)?;
    Ok(body)
}

// --- Fields ----------------------------------------------------------------

/// Append `bytes` with a `u32` length prefix (read by [`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_le!(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Decode `body` with `read`, which must consume every byte.
pub fn read_all<'a, T>(
    body: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, EnvelopeError>,
) -> Result<T, EnvelopeError> {
    let mut r = Reader::new(body);
    let value = read(&mut r)?;
    r.done()?;
    Ok(value)
}

/// Little-endian field cursor over a record body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], EnvelopeError> {
        if n > self.buf.len() {
            return Err(EnvelopeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], EnvelopeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, EnvelopeError> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, EnvelopeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, EnvelopeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// An `i32`.
    pub fn i32(&mut self) -> Result<i32, EnvelopeError> {
        self.array().map(i32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, EnvelopeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` (its IEEE bits, little-endian).
    pub fn f64(&mut self) -> Result<f64, EnvelopeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// `u32`-length-prefixed bytes, at most [`MAX_FRAME`] long.
    pub fn bytes(&mut self) -> Result<&'a [u8], EnvelopeError> {
        match self.u32()? as usize {
            n if n > MAX_FRAME => Err(EnvelopeError::FieldTooLarge(n)),
            n => self.take(n),
        }
    }

    /// `n` bytes of UTF-8.
    pub fn utf8(&mut self, n: usize) -> Result<String, EnvelopeError> {
        utf8(self.take(n)?)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, EnvelopeError> {
        utf8(self.bytes()?)
    }

    /// `true` once every byte was read (optional trailing fields).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Fail unless every byte was read.
    pub fn done(&self) -> Result<(), EnvelopeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(EnvelopeError::TrailingBytes(n)),
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, EnvelopeError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| EnvelopeError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_magic_equals_or_prefixes_another() {
        // The one frozen exception: the journal header was defined after
        // the legacy v1 vector magic and starts with it. The vector
        // reader rejects a journal on its layout.
        let exception = |a: &Kind, b: &Kind| a == &LEGACY_VECTOR && b == &JOURNAL;
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(a.version >= 1, "{:?} has no valid version", a.magic);
            for (j, b) in REGISTRY.iter().enumerate() {
                if i != j && b.magic.starts_with(a.magic) && !exception(a, b) {
                    panic!("magic {:?} prefixes {:?}", a.magic, b.magic);
                }
            }
        }
        assert!(JOURNAL.magic.starts_with(LEGACY_VECTOR.magic));
    }

    #[test]
    fn sealed_records_roundtrip_and_fail_typed() {
        let raw = seal(POOL_TASK, 4, |out| out.extend_from_slice(b"body"));
        assert_eq!(raw.len(), 4 + 1 + 4 + 4);
        assert_eq!(open(POOL_TASK, &raw), Ok(&b"body"[..]));
        assert_eq!(open(POOL_RESULT, &raw), Err(EnvelopeError::BadMagic));
        assert_eq!(open(POOL_TASK, b"ES"), Err(EnvelopeError::Truncated));
        assert_eq!(open(POOL_TASK, &raw[..5]), Err(EnvelopeError::Truncated));
        let mut flipped = raw.clone();
        flipped[6] ^= 1;
        assert!(matches!(open(POOL_TASK, &flipped), Err(EnvelopeError::Checksum { .. })));
        // Older versions are readable, newer ones are not.
        let v2 = seal(VECTOR, 1, |out| out.push(b'x'));
        let mut v1 = v2.clone();
        v1[4] = 1;
        let crc = crc32(&v1[..v1.len() - 4]);
        v1[v2.len() - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open(VECTOR, &v1), Ok(&b"x"[..]));
        for bad in [0, 3] {
            let mut v = v1.clone();
            v[4] = bad;
            assert_eq!(open(VECTOR, &v), Err(EnvelopeError::UnknownVersion(bad)));
        }
    }

    #[test]
    fn frames_tell_a_torn_tail_from_corruption() {
        let mut buf = frame(b"first");
        buf.extend_from_slice(&frame(b"second"));
        let (a, used) = next_frame(&buf).unwrap();
        assert_eq!((a, used), (&b"first"[..], FRAME_OVERHEAD + 5));
        assert_eq!(next_frame(&buf[used..]).unwrap().0, b"second");
        for cut in 0..used {
            assert!(matches!(next_frame(&buf[..cut]), Err(FrameError::Truncated { .. })));
        }
        buf[FRAME_OVERHEAD] ^= 1;
        assert!(matches!(next_frame(&buf), Err(FrameError::Corrupt { .. })));
        let mut r = io::Cursor::new(frame(b"streamed"));
        assert_eq!(read_frame(&mut r).unwrap(), b"streamed");
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn reader_reads_every_field_and_demands_the_end() {
        let mut body = vec![7u8];
        body.extend_from_slice(&0xBEEFu16.to_le_bytes());
        body.extend_from_slice(&(-3i32).to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&1.5f64.to_le_bytes());
        put_bytes(&mut body, "héllo".as_bytes());
        let mut r = Reader::new(&body);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.i32(), Ok(-3));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f64(), Ok(1.5));
        assert!(!r.is_empty());
        assert_eq!(r.string().as_deref(), Ok("héllo"));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u32(), Err(EnvelopeError::Truncated));
        assert_eq!(Reader::new(&[1, 2]).done(), Err(EnvelopeError::TrailingBytes(2)));
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert_eq!(Reader::new(&huge).bytes(), Err(EnvelopeError::FieldTooLarge(MAX_FRAME + 1)));
        assert_eq!(Reader::new(&[0xFF, 0xFE]).utf8(2), Err(EnvelopeError::BadUtf8));
    }
}
