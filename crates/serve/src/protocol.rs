//! The wire protocol: versioned length-prefixed frames over TCP.
//!
//! Every frame is a fixed 12-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     2  magic  b"HG"
//!      2     1  protocol version (currently 1)
//!      3     1  frame type
//!      4     4  correlation id (LE; echoed verbatim in the response)
//!      8     4  payload length in bytes (LE)
//! ```
//!
//! The correlation id lets a client pipeline requests on one connection:
//! the micro-batcher may interleave responses from different batches, so
//! responses are matched by id, not order. All integers are little-endian;
//! scores are IEEE-754 `f32` bits, so a response is bitwise-comparable
//! against a local [`harpgbdt::Predictor`] run.
//!
//! Malformed input is never met with a panic or a hang: decoding returns a
//! typed [`ProtocolError`], and [`ProtocolError::is_framing`] tells the
//! server whether the stream can be resynchronized (semantic errors keep
//! the connection; framing errors answer a typed error frame and close).

use std::io::{Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"HG";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 12;

/// Cap on a single frame's payload (16 MiB), the server's and the client's.
/// A length field above the cap is rejected *before* any allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 << 20;

/// Frame discriminants. `0x0*` = client → server, `0x8*` = server → client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Score a block of rows (dense raw values or quantized bins).
    Score = 0x01,
    /// Liveness probe.
    Ping = 0x02,
    /// Hot-swap the model: reload from the server's configured path, or
    /// from the UTF-8 path in the payload.
    Reload = 0x03,
    /// Request the server's counters and phase breakdown.
    Stats = 0x04,
    /// Ask the server to stop accepting work and exit.
    Shutdown = 0x05,
    /// Raw margin scores for one Score request.
    Scores = 0x81,
    /// Typed failure; see [`ErrorCode`].
    Error = 0x82,
    /// Ping response.
    Pong = 0x83,
    /// Reload succeeded; carries the new model generation.
    ReloadOk = 0x84,
    /// Stats response (JSON payload).
    StatsReply = 0x85,
    /// Shutdown acknowledged.
    ShutdownOk = 0x86,
}

impl FrameType {
    /// Inverse of `self as u8`.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0x01 => Self::Score,
            0x02 => Self::Ping,
            0x03 => Self::Reload,
            0x04 => Self::Stats,
            0x05 => Self::Shutdown,
            0x81 => Self::Scores,
            0x82 => Self::Error,
            0x83 => Self::Pong,
            0x84 => Self::ReloadOk,
            0x85 => Self::StatsReply,
            0x86 => Self::ShutdownOk,
            _ => return None,
        })
    }
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Unparseable frame or payload (bad magic, truncation, length lies).
    Malformed = 1,
    /// Header version is not [`VERSION`].
    BadVersion = 2,
    /// Unknown frame type byte.
    UnknownType = 3,
    /// Declared payload length exceeds the server's cap.
    Oversize = 4,
    /// Payload parsed but its shape is unusable (zero rows, wrong column
    /// count for the loaded model, row cap exceeded).
    BadShape = 5,
    /// Admission control shed the request: the bounded queue was full.
    Overloaded = 6,
    /// Model reload failed (file unreadable, parse error).
    ReloadFailed = 7,
    /// Unexpected server-side failure.
    Internal = 8,
}

impl ErrorCode {
    /// Inverse of `self as u16`.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::Malformed,
            2 => Self::BadVersion,
            3 => Self::UnknownType,
            4 => Self::Oversize,
            5 => Self::BadShape,
            6 => Self::Overloaded,
            7 => Self::ReloadFailed,
            8 => Self::Internal,
            _ => return None,
        })
    }
}

/// The rows of one Score request.
#[derive(Debug, Clone, PartialEq)]
pub enum RowsPayload {
    /// Dense raw features, row-major `f32`; `NaN` encodes missing.
    Dense { n_cols: u32, values: Vec<f32> },
    /// Already-quantized rows, row-major `u8` bin ids;
    /// [`harp_binning::MISSING_BIN`] (255) encodes missing. Bin ids must
    /// come from the same `BinMapper` the model was trained with.
    Binned { n_cols: u32, bins: Vec<u8> },
}

impl RowsPayload {
    /// Number of rows (the buffer length divided by the column count).
    pub fn n_rows(&self) -> usize {
        match self {
            Self::Dense { n_cols, values } => values.len() / (*n_cols).max(1) as usize,
            Self::Binned { n_cols, bins } => bins.len() / (*n_cols).max(1) as usize,
        }
    }

    /// Columns per row.
    pub fn n_cols(&self) -> usize {
        match self {
            Self::Dense { n_cols, .. } | Self::Binned { n_cols, .. } => *n_cols as usize,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Score a block of rows.
    Score {
        /// Echoed in the response.
        corr: u32,
        /// The rows.
        rows: RowsPayload,
    },
    /// Liveness probe.
    Ping {
        /// Echoed in the Pong.
        corr: u32,
    },
    /// Hot-swap the model (`None` = the server's configured path).
    Reload {
        /// Echoed in the ReloadOk/Error.
        corr: u32,
        /// Optional explicit model path.
        path: Option<String>,
    },
    /// Request server counters.
    Stats {
        /// Echoed in the StatsReply.
        corr: u32,
    },
    /// Stop the server.
    Shutdown {
        /// Echoed in the ShutdownOk.
        corr: u32,
    },
    /// Raw margin scores, row-major `n_rows × n_groups`.
    Scores {
        /// The request's correlation id.
        corr: u32,
        /// Model groups per row (1 for scalar losses).
        n_groups: u32,
        /// Row-major raw scores.
        scores: Vec<f32>,
    },
    /// Typed failure.
    Error {
        /// The request's correlation id (0 for connection-level errors).
        corr: u32,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Ping response.
    Pong {
        /// The request's correlation id.
        corr: u32,
    },
    /// Reload succeeded.
    ReloadOk {
        /// The request's correlation id.
        corr: u32,
        /// Monotone generation of the freshly-installed forest.
        generation: u64,
    },
    /// Stats response.
    StatsReply {
        /// The request's correlation id.
        corr: u32,
        /// JSON-encoded [`crate::stats::StatsSnapshot`]. Since the
        /// telemetry revision this includes `uptime_secs`, a
        /// `queue_depth` gauge, and a `latency` array of per-phase
        /// histograms (`end_to_end`/`queue_wait`/`assemble`/`predict`/
        /// `write`, sparse `[bucket, count]` pairs); clients built
        /// against the earlier shape can ignore the extra fields, and
        /// new clients parse old servers (the fields are optional).
        json: String,
    },
    /// Shutdown acknowledged.
    ShutdownOk {
        /// The request's correlation id.
        corr: u32,
    },
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// First two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    UnknownType(u8),
    /// Declared payload length exceeds the cap.
    Oversize {
        /// Declared length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// The stream ended (or stalled past the deadline) mid-frame.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// Frame parsed but the payload is inconsistent with its type.
    BadPayload(String),
}

impl ProtocolError {
    /// Whether the byte stream can no longer be trusted: the reader has no
    /// way to find the next frame boundary, so the server answers a typed
    /// error and closes the connection. Semantic errors (`UnknownType`,
    /// `BadPayload`) arrive in well-framed packages and keep the
    /// connection.
    pub fn is_framing(&self) -> bool {
        matches!(
            self,
            Self::BadMagic(_)
                | Self::BadVersion(_)
                | Self::Oversize { .. }
                | Self::Truncated { .. }
        )
    }

    /// The error code a server reply carries for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::BadMagic(_) | Self::Truncated { .. } | Self::BadPayload(_) => {
                ErrorCode::Malformed
            }
            Self::BadVersion(_) => ErrorCode::BadVersion,
            Self::UnknownType(_) => ErrorCode::UnknownType,
            Self::Oversize { .. } => ErrorCode::Oversize,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected {MAGIC:02x?})"),
            Self::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (speaking {VERSION})")
            }
            Self::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            Self::Oversize { len, max } => {
                write!(f, "declared payload length {len} exceeds the cap {max}")
            }
            Self::Truncated { what } => write!(f, "stream ended mid-frame while reading {what}"),
            Self::BadPayload(msg) => write!(f, "bad payload: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl Frame {
    /// The frame's correlation id.
    pub fn corr(&self) -> u32 {
        match self {
            Self::Score { corr, .. }
            | Self::Ping { corr }
            | Self::Reload { corr, .. }
            | Self::Stats { corr }
            | Self::Shutdown { corr }
            | Self::Scores { corr, .. }
            | Self::Error { corr, .. }
            | Self::Pong { corr }
            | Self::ReloadOk { corr, .. }
            | Self::StatsReply { corr, .. }
            | Self::ShutdownOk { corr } => *corr,
        }
    }

    /// The frame's wire type.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Self::Score { .. } => FrameType::Score,
            Self::Ping { .. } => FrameType::Ping,
            Self::Reload { .. } => FrameType::Reload,
            Self::Stats { .. } => FrameType::Stats,
            Self::Shutdown { .. } => FrameType::Shutdown,
            Self::Scores { .. } => FrameType::Scores,
            Self::Error { .. } => FrameType::Error,
            Self::Pong { .. } => FrameType::Pong,
            Self::ReloadOk { .. } => FrameType::ReloadOk,
            Self::StatsReply { .. } => FrameType::StatsReply,
            Self::ShutdownOk { .. } => FrameType::ShutdownOk,
        }
    }

    /// Serializes the frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.frame_type() as u8);
        out.extend_from_slice(&self.corr().to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        match self {
            Self::Ping { .. } | Self::Shutdown { .. } | Self::Stats { .. } => Vec::new(),
            Self::Pong { .. } | Self::ShutdownOk { .. } => Vec::new(),
            Self::Score { rows, .. } => match rows {
                RowsPayload::Dense { n_cols, values } => {
                    let mut p = Vec::with_capacity(5 + values.len() * 4);
                    p.push(0u8); // dense tag
                    p.extend_from_slice(&n_cols.to_le_bytes());
                    for v in values {
                        p.extend_from_slice(&v.to_le_bytes());
                    }
                    p
                }
                RowsPayload::Binned { n_cols, bins } => {
                    let mut p = Vec::with_capacity(5 + bins.len());
                    p.push(1u8); // binned tag
                    p.extend_from_slice(&n_cols.to_le_bytes());
                    p.extend_from_slice(bins);
                    p
                }
            },
            Self::Reload { path, .. } => path.as_deref().map_or(Vec::new(), |p| p.into()),
            Self::Scores { n_groups, scores, .. } => {
                let mut p = Vec::with_capacity(4 + scores.len() * 4);
                p.extend_from_slice(&n_groups.to_le_bytes());
                for s in scores {
                    p.extend_from_slice(&s.to_le_bytes());
                }
                p
            }
            Self::Error { code, message, .. } => {
                let mut p = Vec::with_capacity(2 + message.len());
                p.extend_from_slice(&(*code as u16).to_le_bytes());
                p.extend_from_slice(message.as_bytes());
                p
            }
            Self::ReloadOk { generation, .. } => generation.to_le_bytes().to_vec(),
            Self::StatsReply { json, .. } => json.as_bytes().to_vec(),
        }
    }

    /// Decodes a frame from its type byte, correlation id, and payload.
    ///
    /// # Errors
    /// Returns a typed [`ProtocolError`] for unknown types and
    /// shape-inconsistent payloads.
    pub fn decode(frame_type: u8, corr: u32, payload: &[u8]) -> Result<Self, ProtocolError> {
        let ft = FrameType::from_u8(frame_type).ok_or(ProtocolError::UnknownType(frame_type))?;
        let empty = |frame: Frame| {
            if payload.is_empty() {
                Ok(frame)
            } else {
                Err(ProtocolError::BadPayload(format!(
                    "{:?} carries no payload but {} bytes arrived",
                    ft,
                    payload.len()
                )))
            }
        };
        match ft {
            FrameType::Ping => empty(Self::Ping { corr }),
            FrameType::Stats => empty(Self::Stats { corr }),
            FrameType::Shutdown => empty(Self::Shutdown { corr }),
            FrameType::Pong => empty(Self::Pong { corr }),
            FrameType::ShutdownOk => empty(Self::ShutdownOk { corr }),
            FrameType::Score => {
                if payload.len() < 5 {
                    return Err(ProtocolError::BadPayload(
                        "Score payload shorter than its tag + column count".into(),
                    ));
                }
                let tag = payload[0];
                let n_cols = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
                if n_cols == 0 {
                    return Err(ProtocolError::BadPayload("Score with zero columns".into()));
                }
                let body = &payload[5..];
                let rows = match tag {
                    0 => {
                        if body.len() % 4 != 0 {
                            return Err(ProtocolError::BadPayload(format!(
                                "dense Score body of {} bytes is not a whole number of f32s",
                                body.len()
                            )));
                        }
                        let values: Vec<f32> = body
                            .chunks_exact(4)
                            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                            .collect();
                        if values.len() % n_cols as usize != 0 {
                            return Err(ProtocolError::BadPayload(format!(
                                "dense Score body holds {} values, not a multiple of {} columns",
                                values.len(),
                                n_cols
                            )));
                        }
                        RowsPayload::Dense { n_cols, values }
                    }
                    1 => {
                        if body.len() % n_cols as usize != 0 {
                            return Err(ProtocolError::BadPayload(format!(
                                "binned Score body holds {} bins, not a multiple of {} columns",
                                body.len(),
                                n_cols
                            )));
                        }
                        RowsPayload::Binned { n_cols, bins: body.to_vec() }
                    }
                    t => {
                        return Err(ProtocolError::BadPayload(format!(
                            "unknown Score layout tag {t} (0 = dense, 1 = binned)"
                        )))
                    }
                };
                if rows.n_rows() == 0 {
                    return Err(ProtocolError::BadPayload("Score with zero rows".into()));
                }
                Ok(Self::Score { corr, rows })
            }
            FrameType::Reload => {
                let path = if payload.is_empty() {
                    None
                } else {
                    Some(
                        std::str::from_utf8(payload)
                            .map_err(|_| {
                                ProtocolError::BadPayload("Reload path is not UTF-8".into())
                            })?
                            .to_string(),
                    )
                };
                Ok(Self::Reload { corr, path })
            }
            FrameType::Scores => {
                if payload.len() < 4 || (payload.len() - 4) % 4 != 0 {
                    return Err(ProtocolError::BadPayload(format!(
                        "Scores payload of {} bytes is not a group count + f32s",
                        payload.len()
                    )));
                }
                let n_groups = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
                if n_groups == 0 {
                    return Err(ProtocolError::BadPayload("Scores with zero groups".into()));
                }
                let scores: Vec<f32> = payload[4..]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                if scores.len() % n_groups as usize != 0 {
                    return Err(ProtocolError::BadPayload(format!(
                        "Scores body holds {} values, not a multiple of {} groups",
                        scores.len(),
                        n_groups
                    )));
                }
                Ok(Self::Scores { corr, n_groups, scores })
            }
            FrameType::Error => {
                if payload.len() < 2 {
                    return Err(ProtocolError::BadPayload(
                        "Error payload shorter than its code".into(),
                    ));
                }
                let raw = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes"));
                let code = ErrorCode::from_u16(raw).ok_or_else(|| {
                    ProtocolError::BadPayload(format!("unknown error code {raw}"))
                })?;
                let message = String::from_utf8_lossy(&payload[2..]).into_owned();
                Ok(Self::Error { corr, code, message })
            }
            FrameType::ReloadOk => {
                let bytes: [u8; 8] = payload.try_into().map_err(|_| {
                    ProtocolError::BadPayload(format!(
                        "ReloadOk payload is {} bytes, expected 8",
                        payload.len()
                    ))
                })?;
                Ok(Self::ReloadOk { corr, generation: u64::from_le_bytes(bytes) })
            }
            FrameType::StatsReply => {
                let json = std::str::from_utf8(payload)
                    .map_err(|_| ProtocolError::BadPayload("StatsReply is not UTF-8".into()))?
                    .to_string();
                Ok(Self::StatsReply { corr, json })
            }
        }
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Frame-type byte (not yet checked against [`FrameType`]).
    pub frame_type: u8,
    /// Correlation id.
    pub corr: u32,
    /// Declared payload length.
    pub payload_len: u32,
}

/// Parses and validates the fixed header.
///
/// # Errors
/// Returns `BadMagic` / `BadVersion` / `Oversize` without touching the
/// payload; the frame-type byte is validated later by [`Frame::decode`] so
/// an unknown type can still carry its correlation id into the error reply.
pub fn parse_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header, ProtocolError> {
    if bytes[..2] != MAGIC {
        return Err(ProtocolError::BadMagic([bytes[0], bytes[1]]));
    }
    if bytes[2] != VERSION {
        return Err(ProtocolError::BadVersion(bytes[2]));
    }
    let corr = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if payload_len > max_payload {
        return Err(ProtocolError::Oversize { len: payload_len, max: max_payload });
    }
    Ok(Header { frame_type: bytes[3], corr, payload_len })
}

/// Writes one frame to `w` (single `write_all`, so concurrent writers
/// holding the same lock never interleave frames).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

/// Blocking read of one whole frame (used by clients; the server uses the
/// shutdown-aware reader in `server.rs`).
///
/// # Errors
/// `Ok(None)` on clean EOF at a frame boundary; `Err` wraps I/O failures
/// and protocol violations (`std::io::ErrorKind::InvalidData`).
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let h = parse_header(&header, max_payload).map_err(invalid_data)?;
    let mut payload = vec![0u8; h.payload_len as usize];
    r.read_exact(&mut payload)?;
    Frame::decode(h.frame_type, h.corr, &payload).map(Some).map_err(invalid_data)
}

fn invalid_data(e: ProtocolError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let mut h = [0u8; HEADER_LEN];
        h.copy_from_slice(&bytes[..HEADER_LEN]);
        let header = parse_header(&h, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(header.payload_len as usize, bytes.len() - HEADER_LEN);
        let back = Frame::decode(header.frame_type, header.corr, &bytes[HEADER_LEN..]).unwrap();
        // Bitwise comparison via re-encode (NaN payloads defeat PartialEq).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Ping { corr: 7 });
        roundtrip(Frame::Pong { corr: 7 });
        roundtrip(Frame::Stats { corr: 1 });
        roundtrip(Frame::Shutdown { corr: u32::MAX });
        roundtrip(Frame::ShutdownOk { corr: 0 });
        roundtrip(Frame::Reload { corr: 3, path: None });
        roundtrip(Frame::Reload { corr: 3, path: Some("/tmp/model.json".into()) });
        roundtrip(Frame::Score {
            corr: 9,
            rows: RowsPayload::Dense { n_cols: 2, values: vec![1.0, f32::NAN, -0.5, 2.5] },
        });
        roundtrip(Frame::Score {
            corr: 9,
            rows: RowsPayload::Binned { n_cols: 3, bins: vec![0, 255, 17, 4, 5, 6] },
        });
        roundtrip(Frame::Scores { corr: 2, n_groups: 3, scores: vec![0.0; 6] });
        roundtrip(Frame::Error { corr: 5, code: ErrorCode::Overloaded, message: "full".into() });
        roundtrip(Frame::ReloadOk { corr: 1, generation: 42 });
        roundtrip(Frame::StatsReply { corr: 8, json: "{\"requests\":1}".into() });
    }

    #[test]
    fn header_rejections_are_typed() {
        let mut bytes = Frame::Ping { corr: 0 }.encode();
        bytes[0] = b'X';
        let h: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        assert!(matches!(parse_header(&h, 1024), Err(ProtocolError::BadMagic(_))));

        let mut bytes = Frame::Ping { corr: 0 }.encode();
        bytes[2] = 99;
        let h: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        assert!(matches!(parse_header(&h, 1024), Err(ProtocolError::BadVersion(99))));

        let mut bytes = Frame::Ping { corr: 0 }.encode();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let h: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
        assert!(matches!(parse_header(&h, 1024), Err(ProtocolError::Oversize { .. })));
    }

    #[test]
    fn shape_lies_are_bad_payload() {
        // 7 bytes of dense body is not a whole number of f32s.
        let mut p = vec![0u8];
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&[0; 7]);
        assert!(matches!(Frame::decode(0x01, 1, &p), Err(ProtocolError::BadPayload(_))));
        // 3 bins do not fill rows of 2 columns.
        let mut p = vec![1u8];
        p.extend_from_slice(&2u32.to_le_bytes());
        p.extend_from_slice(&[0; 3]);
        assert!(matches!(Frame::decode(0x01, 1, &p), Err(ProtocolError::BadPayload(_))));
        // Zero rows and zero columns are unusable.
        let mut p = vec![0u8];
        p.extend_from_slice(&2u32.to_le_bytes());
        assert!(matches!(Frame::decode(0x01, 1, &p), Err(ProtocolError::BadPayload(_))));
        let mut p = vec![0u8];
        p.extend_from_slice(&0u32.to_le_bytes());
        p.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(matches!(Frame::decode(0x01, 1, &p), Err(ProtocolError::BadPayload(_))));
    }

    #[test]
    fn framing_vs_semantic_split() {
        assert!(ProtocolError::BadMagic([0, 0]).is_framing());
        assert!(ProtocolError::Oversize { len: 9, max: 1 }.is_framing());
        assert!(ProtocolError::Truncated { what: "payload" }.is_framing());
        assert!(ProtocolError::BadVersion(9).is_framing());
        assert!(!ProtocolError::UnknownType(0x44).is_framing());
        assert!(!ProtocolError::BadPayload("x".into()).is_framing());
    }
}
