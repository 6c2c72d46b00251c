//! Wire framing: the framing envelope's stream frame
//! ([`esse_core::durable::envelope`]) — the journal's `[len u32][crc
//! u32][body]` layout, 8 MiB cap and torn-tail rule. A `Truncated`
//! frame only needs more bytes; any other error drops the connection.

use esse_core::durable::envelope;
pub use esse_core::durable::envelope::{
    frame as encode, read_frame, write_frame, FrameError, FRAME_OVERHEAD, MAX_FRAME,
};
#[cfg(test)]
use std::io;

/// Decode the first frame in `buf`: an owned copy of its body and the
/// bytes the frame spans ([`envelope::next_frame`] borrows instead).
pub fn decode(buf: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    envelope::next_frame(buf).map(|(body, used)| (body.to_vec(), used))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_decodes_to_the_same_body() {
        let body = b"\x01hello, pool".to_vec();
        let frame = encode(&body);
        assert_eq!(frame.len(), body.len() + FRAME_OVERHEAD);
        let (decoded, consumed) = decode(&frame).unwrap();
        assert_eq!(decoded, body);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn two_frames_drain_in_order() {
        let mut buf = encode(b"\x01first");
        buf.extend_from_slice(&encode(b"\x02second"));
        let (a, used) = decode(&buf).unwrap();
        assert_eq!(a, b"\x01first");
        let (b, _) = decode(&buf[used..]).unwrap();
        assert_eq!(b, b"\x02second");
    }

    #[test]
    fn truncation_at_every_byte_is_truncated_not_corrupt() {
        let frame = encode(b"\x03abcdef");
        for cut in 0..frame.len() {
            match decode(&frame[..cut]) {
                Err(FrameError::Truncated { needed, have }) => {
                    assert_eq!(have, cut);
                    assert!(needed > cut);
                }
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"\x04payload").unwrap();
        write_frame(&mut wire, b"\x05more").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap(), b"\x04payload");
        assert_eq!(read_frame(&mut r).unwrap(), b"\x05more");
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_reading_the_body() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode(&buf), Err(FrameError::TooLarge { .. })));
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_length_body_is_rejected() {
        let buf = 0u32.to_le_bytes().to_vec();
        assert_eq!(decode(&buf), Err(FrameError::Empty));
    }
}
