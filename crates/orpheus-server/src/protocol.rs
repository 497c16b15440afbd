//! pgwire-style wire protocol: length-prefixed frames carrying a
//! simple-query subset.
//!
//! Every message is one frame: a 1-byte tag, a big-endian `u32` payload
//! length, then the payload. (PostgreSQL counts the length field itself
//! in the length; we count only the payload — the one deliberate
//! divergence, noted here so the framing can never be misread.)
//!
//! Client tags: `U` startup, `Q` simple query, `X` terminate.
//! Server tags: `R` startup ok, `T` row description, `D` data row,
//! `C` command complete, `E` error response, `Z` ready for query.
//!
//! A query's response is a sequence `[T D* ] C|E` followed by `Z`; the
//! client reads until `Z` before sending the next query, exactly like
//! the PostgreSQL simple-query flow.
//!
//! There is one encoder, [`FrameBuf`], and it does no I/O: frames are
//! appended to a reusable byte buffer behind back-patched lengths, and
//! whoever owns the buffer decides when its bytes reach a socket.

use relstore::Value;
use std::fmt::Display;
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a single frame's payload; a length beyond this means a
/// corrupt or hostile stream, not a big result.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Field marker for SQL NULL in a `D` (data row) frame.
const NULL_FIELD: u32 = u32::MAX;

/// Size past which a reply under construction is handed to the socket: a
/// reply costs one write per window, and a frame buffer that grew beyond
/// it for one outsized frame gives the memory back.
pub const WINDOW: usize = 64 * 1024;

/// Read-timeout ticks a frame may sit unfinished once its first byte has
/// arrived. Peers write frames whole, so a longer gap is a stalled or
/// hostile peer, not a slow one; sockets without a read timeout never tick.
pub const STALL_TICKS: u32 = 10;

/// Errors of the wire layer.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// The peer closed the connection between frames (clean EOF).
    Closed,
    /// A read timeout expired between frames (only on sockets with a
    /// read timeout set; used by session workers to poll for shutdown).
    Timeout,
    /// Structurally invalid frame or payload.
    Malformed(String),
    /// An outgoing frame's payload would exceed [`MAX_FRAME`]; nothing of
    /// it was encoded.
    TooLarge(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire i/o error: {e}"),
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Timeout => write!(f, "read timed out"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// What appending a frame comes to: done, or why not.
pub type Framed = Result<(), ProtoError>;

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Messages a client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Open a session as `user` (pgwire's startup packet, reduced to the
    /// one parameter the command layer needs).
    Startup { user: String },
    /// One command line / versioned SQL statement. `trace` is an
    /// optional client-chosen trace id: the server adopts it for the
    /// command's spans and echoes it in `CommandComplete`, letting a
    /// client stitch server-side journal events into its own trace. The
    /// field is appended to the payload only when present, so old
    /// encoders interoperate unchanged.
    Query { line: String, trace: Option<u64> },
    /// Graceful goodbye.
    Terminate,
}

/// Messages the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session accepted; `session_id` numbers the connection.
    StartupOk { session_id: u64 },
    /// Column names of the rows that follow.
    RowDescription { columns: Vec<String> },
    /// One result row; `None` is SQL NULL.
    DataRow { fields: Vec<Option<String>> },
    /// Statement finished; the tag summarizes it (`SELECT 4`, `COMMIT v7`).
    /// `trace` echoes the trace id the command ran under (the client's,
    /// when one was sent, else the server-minted one), appended to the
    /// payload only when present.
    CommandComplete { tag: String, trace: Option<u64> },
    /// Statement failed. `code` is a SQLSTATE-style 5-character class.
    Error { code: String, message: String },
    /// Server is ready for the next query.
    Ready,
}

/// Typed error codes the server emits (SQLSTATE-flavored).
pub mod code {
    /// Commit admission queue full — backpressure, retry later.
    pub const BACKPRESSURE: &str = "53300";
    /// Command or query failed to parse.
    pub const PARSE: &str = "42601";
    /// Referenced CVD / version / table does not exist.
    pub const NOT_FOUND: &str = "42P01";
    /// Staging-table ownership check failed.
    pub const PERMISSION: &str = "42501";
    /// Message violated the wire protocol (e.g. query before startup).
    pub const PROTOCOL: &str = "08P01";
    /// A reply frame would exceed `MAX_FRAME` (program limit exceeded).
    pub const LIMIT: &str = "54000";
    /// Anything else.
    pub const INTERNAL: &str = "XX000";
}

// ---------------------------------------------------------------------------
// Frame primitives
// ---------------------------------------------------------------------------

/// Wire bytes under construction: the one frame encoder. Every `pub`
/// method appends whole frames or nothing.
#[derive(Debug, Default)]
pub struct FrameBuf {
    bytes: Vec<u8>,
}

impl FrameBuf {
    /// The encoded frames, in order.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Empty the buffer for reuse. Capacity is kept up to two windows, so
    /// one outsized frame leaves no high-water mark behind.
    pub fn clear(&mut self) {
        self.bytes.clear();
        if self.bytes.capacity() > 2 * WINDOW {
            self.bytes.shrink_to(WINDOW);
        }
    }

    /// Append one frame: the header, then whatever `payload` appends, then
    /// the length patched in. A payload past [`MAX_FRAME`] rolls the buffer
    /// back to where the frame began.
    pub fn frame(&mut self, tag: u8, payload: impl FnOnce(&mut FrameBuf)) -> Framed {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[tag, 0, 0, 0, 0]);
        payload(self);
        let len = self.bytes.len() - start - 5;
        if len as u64 > MAX_FRAME as u64 {
            self.bytes.truncate(start);
            return Err(ProtoError::TooLarge(len));
        }
        self.bytes[start + 1..start + 5].copy_from_slice(&(len as u32).to_be_bytes());
        Ok(())
    }

    /// Append one length-prefixed field, rendered in place.
    pub fn field(&mut self, value: &impl Display) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        // Writing into a `Vec` cannot fail.
        drop(write!(self.bytes, "{value}"));
        let len = (self.bytes.len() - at - 4) as u32;
        self.bytes[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// A counted list of fields, `None` being SQL NULL: the payload of `T`
    /// (column names, never NULL) and of `D` (one row).
    pub fn fields<D: Display>(
        &mut self,
        tag: u8,
        fields: impl ExactSizeIterator<Item = Option<D>>,
    ) -> Framed {
        self.frame(tag, |p| {
            p.bytes
                .extend_from_slice(&(fields.len() as u16).to_be_bytes());
            for field in fields {
                match field {
                    None => p.bytes.extend_from_slice(&NULL_FIELD.to_be_bytes()),
                    Some(v) => p.field(&v),
                }
            }
        })
    }

    /// `D` for a row of values: the bytes [`fields`](Self::fields) writes
    /// for it, but an `Int64` field's digits and a NULL are written
    /// directly, so the common integer column costs no `fmt` call.
    pub fn value_row(&mut self, row: &[Value]) -> Framed {
        self.frame(b'D', |p| {
            p.bytes.extend_from_slice(&(row.len() as u16).to_be_bytes());
            for value in row {
                match value {
                    Value::Null => p.bytes.extend_from_slice(&NULL_FIELD.to_be_bytes()),
                    Value::Int64(x) => {
                        let mut digits = [0; 20];
                        let digits = i64_digits(*x, &mut digits);
                        p.bytes
                            .extend_from_slice(&(digits.len() as u32).to_be_bytes());
                        p.bytes.extend_from_slice(digits);
                    }
                    value => p.field(value),
                }
            }
        })
    }

    /// `C`: the completion tag, then the trace id when there is one.
    pub fn command_complete(&mut self, tag: &impl Display, trace: Option<u64>) -> Framed {
        self.frame(b'C', |p| {
            p.field(tag);
            p.bytes.extend(trace.iter().flat_map(|t| t.to_be_bytes()));
        })
    }

    /// `E`: a SQLSTATE-style code and a message.
    pub fn error(&mut self, code: &str, message: &str) -> Framed {
        self.frame(b'E', |p| {
            p.field(&code);
            p.field(&message);
        })
    }

    /// Append one server message.
    pub fn server(&mut self, msg: &ServerMsg) -> Framed {
        match msg {
            ServerMsg::StartupOk { session_id } => self.frame(b'R', |p| {
                p.bytes.extend_from_slice(&session_id.to_be_bytes())
            }),
            ServerMsg::RowDescription { columns } => self.fields(b'T', columns.iter().map(Some)),
            ServerMsg::DataRow { fields } => self.fields(b'D', fields.iter().map(Option::as_ref)),
            ServerMsg::CommandComplete { tag, trace } => self.command_complete(tag, *trace),
            ServerMsg::Error { code, message } => self.error(code, message),
            ServerMsg::Ready => self.frame(b'Z', |_| {}),
        }
    }

    /// Append one client message.
    pub fn client(&mut self, msg: &ClientMsg) -> Framed {
        match msg {
            ClientMsg::Startup { user } => self.frame(b'U', |p| p.field(user)),
            ClientMsg::Query { line, trace } => self.frame(b'Q', |p| {
                p.field(line);
                p.bytes.extend(trace.iter().flat_map(|t| t.to_be_bytes()));
            }),
            ClientMsg::Terminate => self.frame(b'X', |_| {}),
        }
    }
}

/// `x` in decimal, the text `i64`'s `Display` writes, in the tail of
/// `buf` (20 bytes hold `i64::MIN`).
fn i64_digits(x: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut n = x.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if x < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

thread_local! {
    /// Scratch for the one-message writers; a reply has its session's buffer.
    static SCRATCH: std::cell::RefCell<FrameBuf> = Default::default();
}

/// Encode one message into the thread's scratch buffer and hand it to `w`
/// in one piece. Flushing, where `w` buffers, is the caller's.
fn write_one(w: &mut impl Write, encode: impl FnOnce(&mut FrameBuf) -> Framed) -> Framed {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        encode(buf)?;
        Ok(w.write_all(buf.bytes())?)
    })
}

/// Fill `buf`, counting read timeouts. With `idle` (a frame's header), a
/// timeout or a clean EOF before the first byte is the caller's
/// [`ProtoError::Timeout`] / [`ProtoError::Closed`]; once a frame has begun
/// it completes within [`STALL_TICKS`] timeouts or the read fails. Bytes
/// already taken are never dropped by a timeout.
fn read_full(r: &mut impl Read, buf: &mut [u8], idle: bool) -> Result<(), ProtoError> {
    let (mut filled, mut ticks) = (0, 0);
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if idle && filled == 0 => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Malformed("eof mid-frame".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if idle && filled == 0 {
                    return Err(ProtoError::Timeout);
                }
                ticks += 1;
                if ticks >= STALL_TICKS {
                    return Err(ProtoError::Malformed("stalled mid-frame".into()));
                }
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame: the 5-byte header in one piece, then the payload. A
/// clean EOF before the tag is [`ProtoError::Closed`]; a timeout before
/// the tag is [`ProtoError::Timeout`] (the caller's chance to check its
/// shutdown flag).
fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), ProtoError> {
    let mut header = [0u8; 5];
    read_full(r, &mut header, true)?;
    let len = u32::from_be_bytes([header[1], header[2], header[3], header[4]]);
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!(
            "frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, false)?;
    Ok((header[0], payload))
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtoError::Malformed("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// One length-prefixed field; `None` is the NULL marker.
    fn field(&mut self) -> Result<Option<String>, ProtoError> {
        let len = self.u32()?;
        if len == NULL_FIELD {
            return Ok(None);
        }
        let text = String::from_utf8(self.take(len as usize)?.to_vec());
        Ok(Some(text.map_err(|_| {
            ProtoError::Malformed("non-utf8 field".into())
        })?))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        self.field()?
            .ok_or_else(|| ProtoError::Malformed("null string".into()))
    }

    /// A counted list, each element read by `item`.
    fn list<T>(
        &mut self,
        item: impl Fn(&mut Self) -> Result<T, ProtoError>,
    ) -> Result<Vec<T>, ProtoError> {
        let n = self.u16()? as usize;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(item(self)?);
        }
        Ok(list)
    }

    /// Payload bytes not yet consumed — how optional trailing fields are
    /// detected before the strict [`done`](Cursor::done) check.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Client messages
// ---------------------------------------------------------------------------

/// Encode and send one client message.
pub fn write_client(w: &mut impl Write, msg: &ClientMsg) -> Result<(), ProtoError> {
    write_one(w, |buf| buf.client(msg))
}

/// Read one client message (server side).
pub fn read_client(r: &mut impl Read) -> Result<ClientMsg, ProtoError> {
    let (tag, payload) = read_frame(r)?;
    let mut c = Cursor::new(&payload);
    let msg = match tag {
        b'U' => ClientMsg::Startup { user: c.str()? },
        b'Q' => {
            let line = c.str()?;
            let trace = if c.remaining() > 0 {
                Some(c.u64()?)
            } else {
                None
            };
            ClientMsg::Query { line, trace }
        }
        b'X' => ClientMsg::Terminate,
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown client tag 0x{other:02x}"
            )))
        }
    };
    c.done()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Server messages
// ---------------------------------------------------------------------------

/// Encode and send one server message.
pub fn write_server(w: &mut impl Write, msg: &ServerMsg) -> Result<(), ProtoError> {
    write_one(w, |buf| buf.server(msg))
}

/// Read one server message (client side).
pub fn read_server(r: &mut impl Read) -> Result<ServerMsg, ProtoError> {
    let (tag, payload) = read_frame(r)?;
    let mut c = Cursor::new(&payload);
    let msg = match tag {
        b'R' => ServerMsg::StartupOk {
            session_id: c.u64()?,
        },
        b'T' => ServerMsg::RowDescription {
            columns: c.list(Cursor::str)?,
        },
        b'D' => ServerMsg::DataRow {
            fields: c.list(Cursor::field)?,
        },
        b'C' => {
            let tag = c.str()?;
            let trace = if c.remaining() > 0 {
                Some(c.u64()?)
            } else {
                None
            };
            ServerMsg::CommandComplete { tag, trace }
        }
        b'E' => ServerMsg::Error {
            code: c.str()?,
            message: c.str()?,
        },
        b'Z' => ServerMsg::Ready,
        other => {
            return Err(ProtoError::Malformed(format!(
                "unknown server tag 0x{other:02x}"
            )))
        }
    };
    c.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMsg) {
        let mut buf = Vec::new();
        write_client(&mut buf, &msg).unwrap();
        let decoded = read_client(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn i64_digits_match_display() {
        let mut cases = vec![i64::MIN, i64::MIN + 1, i64::MAX, 0, -1, 1];
        let mut power = 1i64;
        while let Some(next) = power.checked_mul(10) {
            cases.extend([power, power - 1, -power, 1 - power, next - 1]);
            power = next;
        }
        cases.extend([power, -power]);
        for x in cases {
            let mut buf = [0; 20];
            assert_eq!(i64_digits(x, &mut buf), x.to_string().as_bytes(), "{x}");
        }
    }

    fn roundtrip_server(msg: ServerMsg) {
        let mut buf = Vec::new();
        write_server(&mut buf, &msg).unwrap();
        let decoded = read_server(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Startup {
            user: "alice".into(),
        });
        roundtrip_client(ClientMsg::Query {
            line: "SELECT * FROM VERSION 1 OF CVD t WHERE name = 'x,y'".into(),
            trace: None,
        });
        roundtrip_client(ClientMsg::Query {
            line: "commit -t w -m traced".into(),
            trace: Some(0xdead_beef_0042),
        });
        roundtrip_client(ClientMsg::Terminate);
    }

    #[test]
    fn traceless_query_frames_decode_as_before() {
        // An encoder that predates the trace field sends only the line;
        // the decoder must accept that, not demand 8 more bytes.
        let mut old = FrameBuf::default();
        old.frame(b'Q', |p| p.field(&"ls")).unwrap();
        assert_eq!(
            read_client(&mut old.bytes()).unwrap(),
            ClientMsg::Query {
                line: "ls".into(),
                trace: None
            }
        );
        // A partial trace field (wrong width) is still malformed.
        let mut torn = FrameBuf::default();
        let partial = |p: &mut FrameBuf| {
            p.field(&"ls");
            p.bytes.extend_from_slice(&[1, 2, 3]);
        };
        torn.frame(b'Q', partial).unwrap();
        assert!(matches!(
            read_client(&mut torn.bytes()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::StartupOk { session_id: 42 });
        roundtrip_server(ServerMsg::RowDescription {
            columns: vec!["rid".into(), "k".into(), "name".into()],
        });
        roundtrip_server(ServerMsg::DataRow {
            fields: vec![Some("1".into()), None, Some("".into())],
        });
        roundtrip_server(ServerMsg::CommandComplete {
            tag: "COMMIT v7".into(),
            trace: None,
        });
        roundtrip_server(ServerMsg::CommandComplete {
            tag: "COMMIT v7".into(),
            trace: Some(0xabc),
        });
        roundtrip_server(ServerMsg::Error {
            code: code::BACKPRESSURE.into(),
            message: "commit admission queue full".into(),
        });
        roundtrip_server(ServerMsg::Ready);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut buf = Vec::new();
        write_server(&mut buf, &ServerMsg::Ready).unwrap();
        write_server(
            &mut buf,
            &ServerMsg::CommandComplete {
                tag: "OK".into(),
                trace: None,
            },
        )
        .unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_server(&mut r).unwrap(), ServerMsg::Ready);
        assert_eq!(
            read_server(&mut r).unwrap(),
            ServerMsg::CommandComplete {
                tag: "OK".into(),
                trace: None
            }
        );
        assert!(matches!(read_server(&mut r), Err(ProtoError::Closed)));
    }

    #[test]
    fn oversize_and_garbage_frames_are_rejected() {
        // Huge declared length.
        let mut buf = vec![b'Q'];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(matches!(
            read_client(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
        // Unknown tag.
        let mut buf = vec![0x7f];
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            read_client(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
        // Truncated payload: declared 10 bytes, supplied 3.
        let mut buf = vec![b'Q'];
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        assert!(matches!(
            read_client(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
        // Trailing bytes after a complete message body.
        let mut buf = Vec::new();
        write_client(&mut buf, &ClientMsg::Terminate).unwrap();
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&1u32.to_be_bytes());
        buf.push(0);
        assert!(matches!(
            read_client(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_client(&mut &empty[..]),
            Err(ProtoError::Closed)
        ));
    }

    /// A reply stream: every server tag, NULLs, multi-byte text, an empty row.
    fn reply_stream() -> (Vec<ServerMsg>, Vec<u8>) {
        let msgs = vec![
            ServerMsg::StartupOk { session_id: 9 },
            ServerMsg::RowDescription {
                columns: vec!["rid".into(), "名前".into()],
            },
            ServerMsg::DataRow {
                fields: vec![Some("1".into()), None],
            },
            ServerMsg::DataRow {
                fields: vec![Some("".into()), Some("héllo, wörld".into())],
            },
            ServerMsg::DataRow { fields: vec![] },
            ServerMsg::CommandComplete {
                tag: "SELECT 3".into(),
                trace: Some(77),
            },
            ServerMsg::Error {
                code: code::NOT_FOUND.into(),
                message: "no such version".into(),
            },
            ServerMsg::Ready,
        ];
        let mut buf = FrameBuf::default();
        for msg in &msgs {
            buf.server(msg).unwrap();
        }
        (msgs, buf.bytes().to_vec())
    }

    /// Hands out 1..=`most` bytes per `read`, and a `TimedOut` in place of
    /// every `gap`-th read.
    struct Dribble<'a> {
        bytes: &'a [u8],
        most: usize,
        gap: usize,
        reads: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.reads.is_multiple_of(self.gap) {
                return Err(ErrorKind::TimedOut.into());
            }
            let n = (1 + self.reads * 7 % self.most)
                .min(buf.len())
                .min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Decode until the stream ends, retrying the between-frames timeouts
    /// the way a session's poll loop does.
    fn decode_all(r: &mut impl Read) -> (Vec<ServerMsg>, ProtoError) {
        let mut msgs = Vec::new();
        loop {
            match read_server(r) {
                Ok(msg) => msgs.push(msg),
                Err(ProtoError::Timeout) => {}
                Err(e) => return (msgs, e),
            }
        }
    }

    #[test]
    fn a_dribbling_peer_decodes_like_a_whole_buffer() {
        let (msgs, bytes) = reply_stream();
        for most in [1, 2, 3, 7, 64] {
            // Sparse enough that no frame meets STALL_TICKS timeouts.
            let gap = 40 / most + 3;
            let dribble = |bytes| Dribble {
                bytes,
                most,
                gap,
                reads: 0,
            };
            let (got, end) = decode_all(&mut dribble(&bytes));
            assert_eq!(got, msgs, "{most} bytes per read");
            assert!(matches!(end, ProtoError::Closed), "{end}");
            // The same through the buffer both ends read through: a timeout
            // loses nothing the buffer already holds.
            let mut buffered = std::io::BufReader::with_capacity(16, dribble(&bytes));
            let (got, end) = decode_all(&mut buffered);
            assert_eq!(got, msgs, "{most} bytes per read, buffered");
            assert!(matches!(end, ProtoError::Closed), "{end}");
        }
    }

    #[test]
    fn every_strict_prefix_is_closed_or_malformed() {
        let (msgs, bytes) = reply_stream();
        let mut boundaries = vec![0];
        let mut one = FrameBuf::default();
        for msg in &msgs {
            one.server(msg).unwrap();
            boundaries.push(one.bytes().len());
        }
        for cut in 0..bytes.len() {
            let (got, end) = decode_all(&mut &bytes[..cut]);
            match boundaries.iter().position(|&b| b == cut) {
                Some(frames) => {
                    assert_eq!(got, msgs[..frames]);
                    assert!(matches!(end, ProtoError::Closed), "cut {cut}: {end}");
                }
                None => assert!(matches!(end, ProtoError::Malformed(_)), "cut {cut}: {end}"),
            }
        }
        // A hostile count or length inside a well-framed payload is a typed
        // error too: 65 535 fields promised, 4 GiB of field promised.
        for payload in [&[0xff, 0xff][..], &[0, 1, 0xff, 0xff, 0xff, 0xfe][..]] {
            let mut frame = vec![b'D'];
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(payload);
            let end = read_server(&mut frame.as_slice()).unwrap_err();
            assert!(matches!(end, ProtoError::Malformed(_)), "{end}");
        }
    }

    /// A peer that starts a frame and goes quiet: the read gives up after
    /// `STALL_TICKS` timeouts instead of retrying for ever; a peer that is
    /// merely idle between frames is only ever `Timeout`.
    #[test]
    fn a_stalled_half_frame_fails_after_the_tick_limit() {
        struct Stall<'a>(&'a [u8], u32);
        impl Read for Stall<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    self.1 += 1;
                    return Err(ErrorKind::WouldBlock.into());
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        for started in [&b"Q"[..], b"Q\0\0", b"Q\0\0\0\x09ab"] {
            let mut peer = Stall(started, 0);
            match read_client(&mut peer) {
                Err(ProtoError::Malformed(m)) => assert_eq!(m, "stalled mid-frame"),
                other => panic!("expected a stall, got {other:?}"),
            }
            assert_eq!(peer.1, STALL_TICKS);
        }
        let mut idle = Stall(b"", 0);
        assert!(matches!(read_client(&mut idle), Err(ProtoError::Timeout)));
        assert_eq!(idle.1, 1);
    }

    #[test]
    fn an_over_limit_frame_rolls_the_buffer_back() {
        let mut buf = FrameBuf::default();
        buf.error(code::PARSE, "kept").unwrap();
        let kept = buf.bytes().to_vec();
        let wide = "x".repeat(MAX_FRAME as usize - 3);
        match buf.frame(b'D', |p| p.field(&wide)) {
            Err(ProtoError::TooLarge(n)) => assert_eq!(n, MAX_FRAME as usize + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(buf.bytes(), kept);
        // One byte less fits, and the outsized frame leaves no capacity
        // behind once the buffer is reused.
        buf.frame(b'D', |p| p.field(&&wide[1..])).unwrap();
        assert_eq!(buf.bytes().len(), kept.len() + 5 + MAX_FRAME as usize);
        buf.clear();
        assert!(buf.bytes.capacity() <= 2 * WINDOW);
        // The one-message writers report the limit the same way.
        let msg = ServerMsg::CommandComplete {
            tag: wide,
            trace: Some(1),
        };
        let mut sink = Vec::new();
        assert!(matches!(
            write_server(&mut sink, &msg),
            Err(ProtoError::TooLarge(_))
        ));
        assert!(sink.is_empty());
    }
}
