//! Length-prefixed frame codec.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +-----------------+----------+----------------+
//! | body len u32 LE | opcode u8| body (len bytes)|
//! +-----------------+----------+----------------+
//! ```
//!
//! The length covers only the body, not the 5-byte header. A reader
//! enforces a maximum body length *before* allocating, so a hostile or
//! corrupt length prefix cannot trigger an out-of-memory allocation; it
//! surfaces as [`NetError::FrameTooLarge`] instead — and what it then
//! allocates grows with the bytes that have arrived (`read_bounded`), so
//! a peer that declares 64 MiB and stalls holds one (`EAGER_BYTES`), not
//! 64 MiB. Truncated streams surface as [`NetError::Eof`] (clean close at
//! a frame boundary) or [`NetError::Truncated`] (close mid-frame), and a
//! socket read timeout maps to [`NetError::Timeout`] — never a panic or
//! an indefinite hang.
//!
//! [`read_frame`] / [`write_frame`] move a whole [`Frame`] at once; the
//! server and the client stream instead ([`read_header`], then the
//! message's `read_body`; `gather`, then [`crate::proto::Outgoing::write_to`])
//! — the same bytes, without the intermediate body.

use std::io::{IoSlice, Read, Write};

/// Version negotiated in the `Hello`/`HelloOk` handshake. Bump on any
/// incompatible change to the frame layout or request/response bodies.
///
/// v2: `Commit` bodies lead with a `u64` idempotency token (retried
/// commits apply exactly once) and the `Fsck`/`FsckOk` pair exists.
///
/// v3: the object-store opcodes (`StorePut`/`StoreGet`/`StoreContains`/
/// `StoreRemove` batch frames, `StoreObjectIds`, `StoreStats`) exist, so
/// a bare store can be served behind the same transport and a
/// `RemoteStore` client can speak the full `ObjectStore` surface.
pub const PROTOCOL_VERSION: u16 = 3;

/// Default cap on a frame body: 64 MiB. Generous for dataset payloads in
/// this repo's experiments while still bounding per-connection memory.
pub const DEFAULT_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Frame header size on the wire: u32 length + u8 opcode.
pub const HEADER_LEN: u64 = 5;

/// Opcode constants. Requests use the low range, responses set the high
/// bit, and `0xFF` is the structured error response.
pub mod opcode {
    pub const HELLO: u8 = 0x01;
    pub const PING: u8 = 0x02;
    pub const COMMIT: u8 = 0x03;
    pub const CHECKOUT: u8 = 0x04;
    pub const OPTIMIZE: u8 = 0x05;
    pub const STATS: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const FSCK: u8 = 0x08;
    // v3 object-store opcodes (served by a bare store server).
    pub const STORE_PUT: u8 = 0x09;
    pub const STORE_GET: u8 = 0x0A;
    pub const STORE_CONTAINS: u8 = 0x0B;
    pub const STORE_REMOVE: u8 = 0x0C;
    pub const STORE_IDS: u8 = 0x0D;
    pub const STORE_STATS: u8 = 0x0E;

    pub const HELLO_OK: u8 = 0x81;
    pub const PONG: u8 = 0x82;
    pub const COMMIT_OK: u8 = 0x83;
    pub const CHECKOUT_OK: u8 = 0x84;
    pub const OPTIMIZE_OK: u8 = 0x85;
    pub const STATS_OK: u8 = 0x86;
    pub const SHUTDOWN_OK: u8 = 0x87;
    pub const FSCK_OK: u8 = 0x88;
    pub const STORE_PUT_OK: u8 = 0x89;
    pub const STORE_GET_OK: u8 = 0x8A;
    pub const STORE_CONTAINS_OK: u8 = 0x8B;
    pub const STORE_REMOVE_OK: u8 = 0x8C;
    pub const STORE_IDS_OK: u8 = 0x8D;
    pub const STORE_STATS_OK: u8 = 0x8E;
    pub const ERROR: u8 = 0xFF;
}

/// Stable numeric codes carried by error frames so clients can react
/// without parsing the human-readable message.
pub mod errcode {
    pub const VERSION_MISMATCH: u16 = 1;
    pub const FRAME_TOO_LARGE: u16 = 2;
    pub const UNKNOWN_OPCODE: u16 = 3;
    pub const MALFORMED: u16 = 4;
    pub const BAD_REQUEST: u16 = 5;
    pub const SERVER: u16 = 6;
}

/// One wire frame: opcode plus raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub opcode: u8,
    pub body: Vec<u8>,
}

impl Frame {
    pub fn new(opcode: u8, body: Vec<u8>) -> Self {
        Frame { opcode, body }
    }

    /// Total bytes this frame occupies on the wire (header + body).
    pub fn wire_len(&self) -> u64 {
        HEADER_LEN + self.body.len() as u64
    }
}

/// Everything that can go wrong at the transport or codec layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error other than timeout/EOF.
    Io(std::io::Error),
    /// A read hit the configured socket timeout.
    Timeout,
    /// The peer closed the stream at a frame boundary.
    Eof,
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// Length prefix exceeded the reader's configured cap.
    FrameTooLarge { len: u32, max: u32 },
    /// Frame arrived intact but its opcode is not part of the protocol.
    UnknownOpcode(u8),
    /// Frame body did not decode as its opcode's layout.
    Malformed(&'static str),
    /// Handshake failed (bad magic or version mismatch).
    Handshake(String),
    /// The peer answered with a structured error frame.
    Remote { code: u16, message: String },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Timeout => write!(f, "network read timed out"),
            NetError::Eof => write!(f, "connection closed"),
            NetError::Truncated => write!(f, "connection closed mid-frame"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap of {max} bytes")
            }
            NetError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            NetError::Malformed(what) => write!(f, "malformed frame body: {what}"),
            NetError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            NetError::Remote { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof => NetError::Truncated,
            _ => NetError::Io(e),
        }
    }
}

impl NetError {
    /// Error-frame code this condition should be reported with.
    pub fn code(&self) -> u16 {
        match self {
            NetError::FrameTooLarge { .. } => errcode::FRAME_TOO_LARGE,
            NetError::UnknownOpcode(_) => errcode::UNKNOWN_OPCODE,
            NetError::Malformed(_) => errcode::MALFORMED,
            NetError::Handshake(_) => errcode::VERSION_MISMATCH,
            NetError::Remote { code, .. } => *code,
            _ => errcode::SERVER,
        }
    }
}

/// The five bytes in front of every body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Body length in bytes, already checked against the reader's cap.
    pub len: u32,
    pub opcode: u8,
}

impl FrameHeader {
    /// Total bytes the frame occupies on the wire (header + body).
    pub fn wire_len(&self) -> u64 {
        HEADER_LEN + self.len as u64
    }
}

/// Read one frame header, enforcing `max_body` before anything is
/// allocated for the body.
///
/// A clean EOF before the first header byte returns [`NetError::Eof`];
/// EOF anywhere later returns [`NetError::Truncated`].
pub fn read_header<R: Read>(r: &mut R, max_body: u32) -> Result<FrameHeader, NetError> {
    let mut header = [0u8; 5];
    // Distinguish "peer hung up between frames" from "frame cut short".
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    NetError::Eof
                } else {
                    NetError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > max_body {
        return Err(NetError::FrameTooLarge { len, max: max_body });
    }
    Ok(FrameHeader {
        len,
        opcode: header[4],
    })
}

/// The most a reader reserves for a declared length before the bytes
/// have arrived; beyond it a buffer at most doubles per fill.
pub(crate) const EAGER_BYTES: usize = 1 << 20;

/// Appends exactly `n` bytes from `r` to `out`, straight into its spare
/// capacity (no zero-fill, no staging buffer). Capacity follows the bytes
/// received — [`EAGER_BYTES`] up front, then doubling, never past `n` —
/// so a payload that fits the first reservation lands in an exact-size
/// buffer, and a peer that declares much and sends little holds little.
/// EOF before `n` bytes is [`NetError::Truncated`].
pub(crate) fn read_bounded<R: Read + ?Sized>(
    r: &mut R,
    n: usize,
    out: &mut Vec<u8>,
) -> Result<(), NetError> {
    let end = out.len() + n;
    out.reserve_exact(n.min(EAGER_BYTES));
    while out.len() < end {
        if out.len() == out.capacity() {
            out.reserve_exact((end - out.len()).min(out.len()));
        }
        let want = (end - out.len()).min(out.capacity() - out.len());
        if (&mut *r).take(want as u64).read_to_end(out)? < want {
            return Err(NetError::Truncated);
        }
    }
    Ok(())
}

/// Read one frame, enforcing `max_body` before any body allocation.
pub fn read_frame<R: Read>(r: &mut R, max_body: u32) -> Result<Frame, NetError> {
    let header = read_header(r, max_body)?;
    let mut body = Vec::new();
    read_bounded(r, header.len as usize, &mut body)?;
    Ok(Frame::new(header.opcode, body))
}

/// Writes every byte of `bufs`, in as few `write_vectored` calls as the
/// writer allows (one `writev` for a socket with room), then flushes.
pub(crate) fn write_gathered<W: Write>(
    w: &mut W,
    mut bufs: &mut [IoSlice<'_>],
) -> Result<(), NetError> {
    // Drops leading empty slices, so an all-empty tail ends the loop.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Write one frame (header + body) as one gathered write, and flush.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), NetError> {
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(frame.body.len() as u32).to_le_bytes());
    header[4] = frame.opcode;
    write_gathered(w, &mut [IoSlice::new(&header), IoSlice::new(&frame.body)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let frame = Frame::new(opcode::PING, vec![1, 2, 3, 255]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(buf.len() as u64, frame.wire_len());
        let back = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(opcode::PING);
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(NetError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_an_error_not_a_hang() {
        let frame = Frame::new(opcode::COMMIT, vec![7; 64]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(NetError::Truncated)
        ));
    }

    #[test]
    fn truncated_header_is_distinguished_from_clean_eof() {
        assert!(matches!(
            read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME),
            Err(NetError::Eof)
        ));
        assert!(matches!(
            read_frame(&mut [9u8, 0, 0].as_slice(), DEFAULT_MAX_FRAME),
            Err(NetError::Truncated)
        ));
    }

    #[test]
    fn a_gathered_frame_is_header_then_body() {
        let frame = Frame::new(opcode::PING, vec![9; 3000]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(&buf[..5], &[0xB8, 0x0B, 0, 0, opcode::PING]);
        assert_eq!(&buf[5..], &frame.body[..]);
        // An empty body leaves nothing for a second write.
        buf.clear();
        write_frame(&mut buf, &Frame::new(opcode::PONG, Vec::new())).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, opcode::PONG]);
    }

    /// Hands out at most `step` bytes per `read`, like a slow socket.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_payload_lands_in_an_exact_size_buffer() {
        for len in [
            0usize,
            1,
            31,
            32,
            33,
            8 * 1024,
            115_000,
            EAGER_BYTES,
            3 * EAGER_BYTES + 17,
        ] {
            let src: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for step in [1 + len / 3, usize::MAX] {
                let mut out = Vec::new();
                read_bounded(&mut Dribble(&src, step), len, &mut out).unwrap();
                assert_eq!(out, src);
                assert_eq!(out.capacity(), len, "{len} bytes, {step} per read");
            }
        }
    }

    #[test]
    fn a_declared_length_reserves_no_more_than_has_arrived() {
        // 64 MiB declared, `sent` delivered, then the peer is gone: what
        // was reserved is the eager megabyte or twice what arrived.
        let declared = DEFAULT_MAX_FRAME as usize;
        for sent in [0usize, 10, EAGER_BYTES, 5 * EAGER_BYTES / 2] {
            let src = vec![7u8; sent];
            let mut out = Vec::new();
            let cut = read_bounded(&mut src.as_slice(), declared, &mut out);
            assert!(matches!(cut, Err(NetError::Truncated)), "{cut:?}");
            assert_eq!(out.len(), sent);
            assert!(
                out.capacity() <= EAGER_BYTES.max(2 * sent),
                "{} reserved for {sent} received",
                out.capacity()
            );
        }
        // The same through a whole frame: header, ten body bytes, EOF.
        let mut wire = (declared as u32).to_le_bytes().to_vec();
        wire.push(opcode::COMMIT);
        wire.extend_from_slice(&[1; 10]);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME),
            Err(NetError::Truncated)
        ));
    }
}
