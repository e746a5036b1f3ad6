//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! u32 le payload length | payload bytes
//! ```
//!
//! A request payload is a kind byte followed by UTF-8 text:
//!
//! | kind | meaning                      |
//! |------|------------------------------|
//! | 1    | SQL statement                |
//! | 2    | XRA script                   |
//! | 3    | ping (no text)               |
//!
//! The server answers one request with a *response sequence*: zero or
//! more `RowBatch` frames (streaming one result relation each, split
//! into chunks; the `last` flag closes a relation) terminated by exactly
//! one `Done`, `Error` or `Pong` frame. A response payload is a tag byte
//! followed by tag-specific fields:
//!
//! | tag | frame    | fields                                          |
//! |-----|----------|-------------------------------------------------|
//! | 1   | RowBatch | u8 last, u32 nrows, then per row: u64 mult,     |
//! |     |          | u32 ncols, per column u32 len + UTF-8 text      |
//! | 2   | Done     | u32 committed, u32 aborted                      |
//! | 3   | Error    | u32 len + UTF-8 message                         |
//! | 4   | Pong     | —                                               |
//! | 5   | Notice   | u32 len + UTF-8 message                         |
//!
//! `Done`, `Error` and `Pong` are *terminal*: exactly one of them ends
//! every response sequence. `RowBatch` and `Notice` (per-transaction
//! abort reasons from a script) are interior frames.
//!
//! Values cross the wire *rendered* (their [`Display`](std::fmt::Display)
//! form): the protocol ships query results to humans and test harnesses,
//! not typed pages. Frames larger than [`MAX_FRAME`] are rejected on both
//! sides so a corrupt length prefix cannot trigger an unbounded
//! allocation.

use std::io::{self, Read, Write};

/// Hard ceiling on a single frame's payload, requests and responses
/// alike. A corrupt or hostile length prefix fails fast instead of
/// allocating gigabytes.
pub const MAX_FRAME: usize = 64 << 20;

/// The most [`read_frame`] allocates before a frame's bytes arrive.
const READ_CHUNK: usize = 64 << 10;

/// Rows per `RowBatch` frame when the server streams a result relation.
pub const BATCH_ROWS: usize = 512;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one SQL statement.
    Sql(String),
    /// Run an XRA script (declarations, views, keys, transactions).
    Xra(String),
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
}

/// One rendered result row: a multiplicity and the column values in
/// schema order, each in its `Display` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// How many times the tuple occurs in the result multi-set.
    pub multiplicity: u64,
    /// The tuple's values, rendered as text.
    pub values: Vec<String>,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A chunk of one result relation. `last` marks the final chunk, so
    /// a relation larger than [`BATCH_ROWS`] streams as several batches.
    RowBatch {
        /// True on the final chunk of this result relation.
        last: bool,
        /// The rows in this chunk.
        rows: Vec<Row>,
    },
    /// The request finished: how many transactions committed and how
    /// many aborted (for SQL: `1, 0` or `0, 1`).
    Done {
        /// Transactions that committed.
        committed: u32,
        /// Transactions that aborted (conflicts, key violations).
        aborted: u32,
    },
    /// The request failed as a whole: parse error, unknown relation,
    /// storage failure. The session stays usable.
    Error(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Non-terminal diagnostic: a transaction inside the request
    /// aborted (conflict, key violation) but the request itself
    /// carried on; the reason text is rendered for the client.
    Notice(String),
}

/// A malformed frame (bad tag, truncated field, invalid UTF-8,
/// oversized length). Distinct from transport [`io::Error`]s so callers
/// can tell "the peer spoke garbage" from "the connection died".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Writes one frame: length prefix then payload. Does not flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload. `Ok(None)` on clean EOF at a frame
/// boundary; EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError(format!("frame of {len} bytes exceeds cap")).into());
    }
    // the length is the peer's claim: grow the buffer only as bytes arrive
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(payload))
}

/// A cursor over a received payload, decoding fixed-width fields and
/// length-prefixed strings with bounds checks.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtocolError("truncated frame".into()))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError("invalid UTF-8".into()))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError("trailing bytes in frame".into()))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Sql(text) => {
                out.push(1);
                out.extend_from_slice(text.as_bytes());
            }
            Request::Xra(text) => {
                out.push(2);
                out.extend_from_slice(text.as_bytes());
            }
            Request::Ping => out.push(3),
        }
        out
    }

    /// Decodes a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let (&kind, rest) = payload
            .split_first()
            .ok_or_else(|| ProtocolError("empty request".into()))?;
        let text = || {
            std::str::from_utf8(rest)
                .map(str::to_owned)
                .map_err(|_| ProtocolError("invalid UTF-8".into()))
        };
        match kind {
            1 => Ok(Request::Sql(text()?)),
            2 => Ok(Request::Xra(text()?)),
            3 if rest.is_empty() => Ok(Request::Ping),
            3 => Err(ProtocolError("ping carries no text".into())),
            other => Err(ProtocolError(format!("unknown request kind {other}"))),
        }
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::RowBatch { last, rows } => {
                out.push(1);
                out.push(u8::from(*last));
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for row in rows {
                    out.extend_from_slice(&row.multiplicity.to_le_bytes());
                    out.extend_from_slice(&(row.values.len() as u32).to_le_bytes());
                    for v in &row.values {
                        put_string(&mut out, v);
                    }
                }
            }
            Response::Done { committed, aborted } => {
                out.push(2);
                out.extend_from_slice(&committed.to_le_bytes());
                out.extend_from_slice(&aborted.to_le_bytes());
            }
            Response::Error(msg) => {
                out.push(3);
                put_string(&mut out, msg);
            }
            Response::Pong => out.push(4),
            Response::Notice(msg) => {
                out.push(5);
                put_string(&mut out, msg);
            }
        }
        out
    }

    /// Decodes a frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut c = Cursor::new(payload);
        let decoded = match c.u8()? {
            1 => {
                let last = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(ProtocolError(format!("bad last flag {other}"))),
                };
                let nrows = c.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(BATCH_ROWS * 4));
                for _ in 0..nrows {
                    let multiplicity = c.u64()?;
                    let ncols = c.u32()? as usize;
                    let mut values = Vec::with_capacity(ncols.min(256));
                    for _ in 0..ncols {
                        values.push(c.string()?);
                    }
                    rows.push(Row {
                        multiplicity,
                        values,
                    });
                }
                Response::RowBatch { last, rows }
            }
            2 => Response::Done {
                committed: c.u32()?,
                aborted: c.u32()?,
            },
            3 => Response::Error(c.string()?),
            4 => Response::Pong,
            5 => Response::Notice(c.string()?),
            other => return Err(ProtocolError(format!("unknown response tag {other}"))),
        };
        c.finish()?;
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Sql("SELECT * FROM beer".into()),
            Request::Xra("?project[%1](beer);".into()),
            Request::Ping,
        ] {
            assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::RowBatch {
                last: true,
                rows: vec![
                    Row {
                        multiplicity: 2,
                        values: vec!["'Grolsch'".into(), "5".into()],
                    },
                    Row {
                        multiplicity: 1,
                        values: vec![],
                    },
                ],
            },
            Response::RowBatch {
                last: false,
                rows: vec![],
            },
            Response::Done {
                committed: 3,
                aborted: 1,
            },
            Response::Error("E0401: key violated".into()),
            Response::Pong,
            Response::Notice("transaction aborted: conflict".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("writes");
        write_frame(&mut buf, b"").expect("writes");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("reads"), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).expect("reads"), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).expect("clean eof"), None);
    }

    #[test]
    fn torn_frame_and_oversize_length_are_errors() {
        // length says 10 bytes, only 3 present
        let mut torn = Vec::new();
        torn.extend_from_slice(&10u32.to_le_bytes());
        torn.extend_from_slice(b"abc");
        assert!(read_frame(&mut &torn[..]).is_err());

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    /// A reader that serves `data` and records the largest buffer it was
    /// asked to fill.
    struct Recording<'a> {
        data: &'a [u8],
        largest: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn frame_length_does_not_allocate_ahead_of_the_bytes() {
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let mut r = Recording {
            data: &bytes,
            largest: 0,
        };
        let err = read_frame(&mut r).expect_err("3 of 64 MiB arrived");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest <= READ_CHUNK, "asked to fill {} bytes", r.largest);
    }

    #[test]
    fn garbage_payloads_are_rejected_not_panicked() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[9]).is_err());
        assert!(Request::decode(&[1, 0xff, 0xfe]).is_err());
        assert!(Response::decode(&[1, 2]).is_err());
        // row count larger than the payload can hold
        let mut bad = vec![1u8, 1];
        bad.extend_from_slice(&1000u32.to_le_bytes());
        assert!(Response::decode(&bad).is_err());
        // trailing junk after a valid Pong
        assert!(Response::decode(&[4, 0]).is_err());
    }
}
