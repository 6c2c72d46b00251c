//! Protocol messages carried inside frames.
//!
//! Every message body is `type byte + fields`, fields in fixed order,
//! integers little-endian, strings and blobs length-prefixed with a
//! `u32` and read back with the envelope's [`Reader`]. Task specs,
//! heartbeats, result records and the run manifest travel as the
//! pool's own sealed records (a length-prefixed blob each), so each
//! record type has exactly one codec whether it crosses a filesystem or
//! a socket. The conversation is strictly worker-initiated
//! request/response over one connection:
//!
//! ```text
//! worker                          coordinator
//!   | -- Hello ------------------------> |   (proto + config handshake)
//!   | <------------- Welcome / Reject -- |   (manifest + staged inputs)
//!   | -- Claim ------------------------> |
//!   | <-- Task / Idle / Cancelled / Shutdown
//!   | -- Renew ------------------------> |   (heartbeat thread)
//!   | <----------- RenewOk / Fenced ---- |
//!   | -- Result, Data*, ResultEnd -----> |   (forecast streamed in chunks)
//!   | <--------- ResultAck / Fenced ---- |
//!   | -- Rejected ---------------------> |   (self-check quarantine, no payload)
//!   | <--------- ResultAck / Fenced ---- |
//!   | -- Release ----------------------> |
//!   | <------------------ ReleaseAck --- |
//!   | -- Query ------------------------> |   (mid-task tombstone poll)
//!   | <--------------------- RunInfo --- |
//! ```
//!
//! Fencing information rides the replies: `Fenced` to a `Renew` or a
//! result stream tells a worker its claim was requeued under a higher
//! epoch. The reply is advisory — the coordinator's own epoch check on
//! ingest remains the only authority on staleness.

use esse_core::durable::envelope::{self, put_bytes, EnvelopeError, Reader};
use esse_mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskSpec};
use esse_obs::put_le;

/// Protocol revision; bumped on any wire-incompatible change. A
/// coordinator rejects a `Hello` carrying any other value.
/// (v2: `Result` carries the validator reason code; `Rejected` added.
/// v3: the journal's frame layout; pool records travel sealed.)
pub const PROTO_VERSION: u32 = 3;

/// Preferred chunk size for `Data` frames of a result stream.
pub const DATA_CHUNK: usize = 256 * 1024;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker introduces itself and proves config compatibility.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Worker identity for logs and heartbeat records.
        worker_id: u64,
        /// Worker OS pid, recorded into heartbeats and results.
        pid: u32,
        /// Hash of the run config the worker expects (0 = accept any).
        config_hash: u64,
    },
    /// Coordinator accepts: the run manifest plus the staged inputs
    /// (raw bytes of `mean.vec` and `prior.sub`) a remote scratch
    /// workdir needs before `pert`/`pemodel` can run.
    Welcome {
        /// The run-wide manifest.
        manifest: PoolManifest,
        /// Raw bytes of the ensemble mean file.
        mean: Vec<u8>,
        /// Raw bytes of the prior subspace file.
        prior: Vec<u8>,
    },
    /// Coordinator refuses the handshake.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
    /// Ask for the lowest pending task.
    Claim,
    /// A task was claimed for this worker.
    Task {
        /// The claimed task.
        spec: TaskSpec,
    },
    /// Nothing claimable right now.
    Idle,
    /// The run converged; stop working.
    Cancelled,
    /// The run is over; exit.
    Shutdown,
    /// Renew the lease on a held claim.
    Renew {
        /// The held claim.
        spec: TaskSpec,
        /// Monotonic heartbeat.
        hb: Heartbeat,
    },
    /// Lease renewed.
    RenewOk,
    /// Advisory: the claim is no longer current.
    Fenced,
    /// Opens a result stream; `payload_len` bytes of `Data` follow,
    /// then `ResultEnd`.
    Result {
        /// The result record to publish.
        rec: ResultRecord,
        /// Total forecast payload bytes that will be streamed (0 for
        /// failure results, which carry no forecast).
        payload_len: u64,
    },
    /// A worker self-check rejection: the forecast failed semantic
    /// validation *before* publish, so no payload is streamed — only
    /// the typed record (`code == CODE_REJECTED`, `reason` set) is
    /// published, saving the upload.
    Rejected {
        /// The rejection record to publish.
        rec: ResultRecord,
    },
    /// One chunk of a result payload.
    Data {
        /// Raw forecast bytes.
        chunk: Vec<u8>,
    },
    /// Closes a result stream.
    ResultEnd,
    /// Result staged and published.
    ResultAck,
    /// Drop a claim without publishing.
    Release {
        /// The claim to drop.
        spec: TaskSpec,
    },
    /// Claim dropped.
    ReleaseAck,
    /// Poll tombstone state mid-task.
    Query,
    /// Tombstone state.
    RunInfo {
        /// CANCEL tombstone present.
        cancelled: bool,
        /// SHUTDOWN tombstone present.
        shutdown: bool,
    },
    /// Ship an encoded span batch (`esse_obs::fleet::SpanBatch` bytes,
    /// self-framed with their own magic + CRC) to the coordinator. The
    /// server persists it as a trace sidecar next to the results;
    /// shipping is idempotent, so an exchange retry after a reconnect
    /// just rewrites the same sidecar.
    Trace {
        /// Encoded span batch, opaque to the protocol layer.
        bytes: Vec<u8>,
    },
    /// Span batch persisted. Carries the coordinator's receive stamp so
    /// the worker could tighten its own skew estimate if it cared.
    TraceAck {
        /// Coordinator clock at ingest, nanoseconds.
        server_ns: u64,
    },
}

/// Why a frame body failed to decode as a message: the envelope's
/// typed error (a nested sealed record fails the same way on disk).
pub type MsgError = EnvelopeError;

const T_HELLO: u8 = 0x01;
const T_WELCOME: u8 = 0x02;
const T_REJECT: u8 = 0x03;
const T_CLAIM: u8 = 0x04;
const T_TASK: u8 = 0x05;
const T_IDLE: u8 = 0x06;
const T_CANCELLED: u8 = 0x07;
const T_SHUTDOWN: u8 = 0x08;
const T_RENEW: u8 = 0x09;
const T_RENEW_OK: u8 = 0x0A;
const T_FENCED: u8 = 0x0B;
const T_RESULT: u8 = 0x0C;
const T_DATA: u8 = 0x0D;
const T_RESULT_END: u8 = 0x0E;
const T_RESULT_ACK: u8 = 0x0F;
const T_RELEASE: u8 = 0x10;
const T_RELEASE_ACK: u8 = 0x11;
const T_QUERY: u8 = 0x12;
const T_RUN_INFO: u8 = 0x13;
const T_TRACE: u8 = 0x14;
const T_TRACE_ACK: u8 = 0x15;
const T_REJECTED: u8 = 0x16;

/// A type byte, then each blob with its `u32` length prefix.
fn tagged(out: &mut Vec<u8>, tag: u8, blobs: &[&[u8]]) {
    out.push(tag);
    blobs.iter().for_each(|b| put_bytes(out, b));
}

impl Message {
    /// Encode into a frame body (type byte first).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        let o = &mut out;
        match self {
            Message::Hello { proto, worker_id, pid, config_hash } => {
                put_le!(o, T_HELLO, proto, worker_id, pid, config_hash)
            }
            Message::Welcome { manifest, mean, prior } => {
                tagged(o, T_WELCOME, &[&manifest.encode(), mean, prior])
            }
            Message::Reject { reason } => tagged(o, T_REJECT, &[reason.as_bytes()]),
            Message::Claim => o.push(T_CLAIM),
            Message::Task { spec } => tagged(o, T_TASK, &[&spec.encode()]),
            Message::Idle => o.push(T_IDLE),
            Message::Cancelled => o.push(T_CANCELLED),
            Message::Shutdown => o.push(T_SHUTDOWN),
            Message::Renew { spec, hb } => tagged(o, T_RENEW, &[&spec.encode(), &hb.encode()]),
            Message::RenewOk => o.push(T_RENEW_OK),
            Message::Fenced => o.push(T_FENCED),
            Message::Result { rec, payload_len } => {
                tagged(o, T_RESULT, &[&rec.encode()]);
                put_le!(o, payload_len);
            }
            Message::Rejected { rec } => tagged(o, T_REJECTED, &[&rec.encode()]),
            Message::Data { chunk } => tagged(o, T_DATA, &[chunk]),
            Message::ResultEnd => o.push(T_RESULT_END),
            Message::ResultAck => o.push(T_RESULT_ACK),
            Message::Release { spec } => tagged(o, T_RELEASE, &[&spec.encode()]),
            Message::ReleaseAck => o.push(T_RELEASE_ACK),
            Message::Query => o.push(T_QUERY),
            Message::RunInfo { cancelled, shutdown } => {
                put_le!(o, T_RUN_INFO, u8::from(*cancelled), u8::from(*shutdown))
            }
            Message::Trace { bytes } => tagged(o, T_TRACE, &[bytes]),
            Message::TraceAck { server_ns } => put_le!(o, T_TRACE_ACK, server_ns),
        }
        out
    }

    /// Decode a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Message, MsgError> {
        envelope::read_all(body, Self::read)
    }

    fn read(r: &mut Reader) -> Result<Message, MsgError> {
        Ok(match r.u8()? {
            T_HELLO => Message::Hello {
                proto: r.u32()?,
                worker_id: r.u64()?,
                pid: r.u32()?,
                config_hash: r.u64()?,
            },
            T_WELCOME => Message::Welcome {
                manifest: PoolManifest::decode(r.bytes()?)?,
                mean: r.bytes()?.to_vec(),
                prior: r.bytes()?.to_vec(),
            },
            T_REJECT => Message::Reject { reason: r.string()? },
            T_CLAIM => Message::Claim,
            T_TASK => Message::Task { spec: TaskSpec::decode(r.bytes()?)? },
            T_IDLE => Message::Idle,
            T_CANCELLED => Message::Cancelled,
            T_SHUTDOWN => Message::Shutdown,
            T_RENEW => Message::Renew {
                spec: TaskSpec::decode(r.bytes()?)?,
                hb: Heartbeat::decode(r.bytes()?)?,
            },
            T_RENEW_OK => Message::RenewOk,
            T_FENCED => Message::Fenced,
            T_RESULT => {
                Message::Result { rec: ResultRecord::decode(r.bytes()?)?, payload_len: r.u64()? }
            }
            T_REJECTED => Message::Rejected { rec: ResultRecord::decode(r.bytes()?)? },
            T_DATA => Message::Data { chunk: r.bytes()?.to_vec() },
            T_RESULT_END => Message::ResultEnd,
            T_RESULT_ACK => Message::ResultAck,
            T_RELEASE => Message::Release { spec: TaskSpec::decode(r.bytes()?)? },
            T_RELEASE_ACK => Message::ReleaseAck,
            T_QUERY => Message::Query,
            T_RUN_INFO => Message::RunInfo { cancelled: r.u8()? != 0, shutdown: r.u8()? != 0 },
            T_TRACE => Message::Trace { bytes: r.bytes()?.to_vec() },
            T_TRACE_ACK => Message::TraceAck { server_ns: r.u64()? },
            t => return Err(MsgError::BadType(t)),
        })
    }

    /// Short name for logs and trace events.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Welcome { .. } => "welcome",
            Message::Reject { .. } => "reject",
            Message::Claim => "claim",
            Message::Task { .. } => "task",
            Message::Idle => "idle",
            Message::Cancelled => "cancelled",
            Message::Shutdown => "shutdown",
            Message::Renew { .. } => "renew",
            Message::RenewOk => "renew_ok",
            Message::Fenced => "fenced",
            Message::Result { .. } => "result",
            Message::Rejected { .. } => "rejected",
            Message::Data { .. } => "data",
            Message::ResultEnd => "result_end",
            Message::ResultAck => "result_ack",
            Message::Release { .. } => "release",
            Message::ReleaseAck => "release_ack",
            Message::Query => "query",
            Message::RunInfo { .. } => "run_info",
            Message::Trace { .. } => "trace",
            Message::TraceAck { .. } => "trace_ack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { proto: PROTO_VERSION, worker_id: 7, pid: 4242, config_hash: 0xC0DE },
            Message::Welcome {
                manifest: PoolManifest {
                    domain: "monterey:10,10,3".into(),
                    hours: 24.0,
                    white_noise: 0.01,
                    base_seed: 0x5EED,
                    lease_ms: 1200,
                    config_hash: 0xC0DE,
                    trace_run_id: 0xBEEF_0001,
                },
                mean: vec![1, 2, 3],
                prior: vec![9; 100],
            },
            Message::Reject { reason: "config hash mismatch".into() },
            Message::Claim,
            Message::Task { spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 } },
            Message::Idle,
            Message::Cancelled,
            Message::Shutdown,
            Message::Renew {
                spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0xA1 },
                hb: Heartbeat { pid: 4242, counter: 17 },
            },
            Message::RenewOk,
            Message::Fenced,
            Message::Result {
                rec: ResultRecord {
                    member: 3,
                    epoch: 2,
                    code: 0,
                    pid: 4242,
                    fc_crc: 0xFEED,
                    reason: 0,
                },
                payload_len: 2400,
            },
            Message::Rejected {
                rec: ResultRecord {
                    member: 4,
                    epoch: 1,
                    code: esse_mtc::pool::CODE_REJECTED,
                    pid: 4242,
                    fc_crc: 0,
                    reason: 1,
                },
            },
            Message::Data { chunk: vec![0xAB; 64] },
            Message::ResultEnd,
            Message::ResultAck,
            Message::Release { spec: TaskSpec { member: 3, epoch: 2, seed: 99, parent_span: 0 } },
            Message::ReleaseAck,
            Message::Query,
            Message::RunInfo { cancelled: true, shutdown: false },
            Message::Trace { bytes: vec![0x45, 0x53, 0x54, 0x42, 1, 2, 3] },
            Message::TraceAck { server_ns: 123_456_789 },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let body = msg.encode();
            let back = Message::decode(&body).unwrap_or_else(|e| panic!("{}: {e}", msg.name()));
            assert_eq!(back, msg, "{} did not roundtrip", msg.name());
        }
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        for msg in sample_messages() {
            let body = msg.encode();
            for cut in 0..body.len() {
                let err = Message::decode(&body[..cut]);
                assert!(err.is_err(), "{} decoded from a {cut}-byte prefix", msg.name());
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Message::Claim.encode();
        body.push(0);
        assert_eq!(Message::decode(&body), Err(MsgError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_type_byte_is_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(MsgError::BadType(0xEE)));
        assert_eq!(Message::decode(&[]), Err(MsgError::Truncated));
    }

    #[test]
    fn negative_exit_codes_survive_the_wire() {
        let msg = Message::Result {
            rec: ResultRecord { member: 0, epoch: 1, code: -9, pid: 1, fc_crc: 0, reason: 0 },
            payload_len: 0,
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
}
