//! A minimal blocking client for the orpheus wire protocol.
//!
//! Used by the CLI `client` subcommand, the integration tests, and the
//! CI smoke gate. One connection, one outstanding query at a time:
//! [`Client::query`] writes a `Q` frame and collects server messages
//! until `Ready`.

use crate::protocol::{self, ClientMsg, ProtoError, ServerMsg};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures: transport faults, or a server that refused us.
#[derive(Debug)]
pub enum ClientError {
    Proto(ProtoError),
    /// The server answered the startup with a typed error (e.g. `53300`
    /// when every session slot is taken).
    Rejected {
        code: String,
        message: String,
    },
    /// The server broke the message grammar.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { code, message } => write!(f, "rejected [{code}]: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected server message: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// Everything the server sent for one query, in order, `Ready` excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub messages: Vec<ServerMsg>,
}

impl Reply {
    /// The error frame, if the query failed.
    pub fn error(&self) -> Option<(&str, &str)> {
        self.messages.iter().find_map(|m| match m {
            ServerMsg::Error { code, message } => Some((code.as_str(), message.as_str())),
            _ => None,
        })
    }

    /// The completion tag, if the query succeeded.
    pub fn tag(&self) -> Option<&str> {
        self.messages.iter().find_map(|m| match m {
            ServerMsg::CommandComplete { tag, .. } => Some(tag.as_str()),
            _ => None,
        })
    }

    /// The trace id the server stamped on the completion, if any. Matches
    /// the `trace` ids in the server's `trace dump --json` export.
    pub fn trace(&self) -> Option<u64> {
        self.messages.iter().find_map(|m| match m {
            ServerMsg::CommandComplete { trace, .. } => *trace,
            _ => None,
        })
    }

    /// Data rows, rendered (None = NULL).
    pub fn rows(&self) -> Vec<&[Option<String>]> {
        self.messages
            .iter()
            .filter_map(|m| match m {
                ServerMsg::DataRow { fields } => Some(fields.as_slice()),
                _ => None,
            })
            .collect()
    }

    /// Canonical text rendering, used for byte-comparing transcripts.
    pub fn render(&self) -> String {
        render_messages(&self.messages)
    }
}

/// Render server messages as the canonical transcript text. The live
/// server path and the serial-replay path both end in this function, so
/// "byte-identical" means identical down to NULL spelling and row order.
pub fn render_messages(messages: &[ServerMsg]) -> String {
    let mut out = String::new();
    for msg in messages {
        match msg {
            ServerMsg::RowDescription { columns } => {
                out.push_str(&columns.join(" | "));
                out.push('\n');
            }
            ServerMsg::DataRow { fields } => {
                let rendered: Vec<&str> = fields
                    .iter()
                    .map(|f| f.as_deref().unwrap_or("NULL"))
                    .collect();
                out.push_str(&rendered.join(" | "));
                out.push('\n');
            }
            // The trace id is correlation metadata, not part of the
            // transcript: serial replay must stay byte-identical whether
            // or not the query was traced.
            ServerMsg::CommandComplete { tag, .. } => {
                out.push_str("-- ");
                out.push_str(tag);
                out.push('\n');
            }
            ServerMsg::Error { code, message } => {
                out.push_str("!! ");
                out.push_str(code);
                out.push(' ');
                out.push_str(message);
                out.push('\n');
            }
            ServerMsg::StartupOk { .. } | ServerMsg::Ready => {}
        }
    }
    out
}

/// A connected, started session.
pub struct Client {
    /// Replies are read through a buffer (a frame costs a copy, not a
    /// system call per piece); requests are written to the stream inside.
    stream: BufReader<TcpStream>,
    session_id: u64,
}

impl Client {
    /// Connect and run the startup handshake as `user`.
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        drop(stream.set_nodelay(true));
        protocol::write_client(
            &mut stream,
            &ClientMsg::Startup {
                user: user.to_owned(),
            },
        )?;
        let mut stream = BufReader::new(stream);
        match protocol::read_server(&mut stream)? {
            ServerMsg::StartupOk { session_id } => Ok(Client { stream, session_id }),
            ServerMsg::Error { code, message } => Err(ClientError::Rejected { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Run one query line and collect the full reply. The server mints a
    /// trace id for the request; [`Reply::trace`] returns it.
    pub fn query(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.query_inner(line, None)
    }

    /// Run one query line under a caller-chosen trace id, propagated to
    /// the server so its spans (engine, morsel workers, WAL fsync) attach
    /// to the caller's trace. `trace` must be non-zero to be adopted.
    pub fn query_traced(&mut self, line: &str, trace: u64) -> Result<Reply, ClientError> {
        self.query_inner(line, Some(trace))
    }

    fn query_inner(&mut self, line: &str, trace: Option<u64>) -> Result<Reply, ClientError> {
        protocol::write_client(
            self.stream.get_mut(),
            &ClientMsg::Query {
                line: line.to_owned(),
                trace,
            },
        )?;
        let mut messages = Vec::new();
        loop {
            match protocol::read_server(&mut self.stream)? {
                ServerMsg::Ready => return Ok(Reply { messages }),
                msg => messages.push(msg),
            }
        }
    }

    /// Orderly goodbye.
    pub fn terminate(mut self) -> Result<(), ClientError> {
        protocol::write_client(self.stream.get_mut(), &ClientMsg::Terminate)?;
        Ok(())
    }
}
