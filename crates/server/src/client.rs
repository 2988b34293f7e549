//! Blocking CDBP client.
//!
//! [`Client`] speaks the protocol synchronously over one TCP connection:
//! connect → magic → `Hello` → `HelloOk`, then one request/response pair
//! per call. Because a session connection is busy while a statement
//! executes, cancellation uses a second connection: [`Client::cancel_handle`]
//! captures the `(address, session, cancel key)` triple into a clonable,
//! `Send` handle any thread can fire while `query` blocks.

use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crowddb_core::{DeltaBatch, QueryResult};

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ProtocolError, Request, Response,
    MAGIC,
};

/// A client-side failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The wire broke or the server spoke malformed CDBP.
    Protocol(ProtocolError),
    /// The server answered with a typed `Error` frame.
    Remote {
        /// Server-side error category (`parse`, `overloaded`,
        /// `cancelled`, `budget`, `auth`, `protocol`, ...).
        category: String,
        /// Human-readable message.
        message: String,
    },
    /// The server answered with a frame that makes no sense for the
    /// request (a server bug, or a proxy mangling frames).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Remote { category, message } => {
                write!(f, "server {category} error: {message}")
            }
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl ClientError {
    /// The error's category string (mirrors `CrowdError::category` for
    /// remote errors; `protocol` for wire-level failures).
    pub fn category(&self) -> &str {
        match self {
            ClientError::Protocol(_) => "protocol",
            ClientError::Remote { category, .. } => category,
            ClientError::Unexpected(_) => "protocol",
        }
    }

    /// Whether this is a server-side `overloaded` refusal (retryable).
    pub fn is_overloaded(&self) -> bool {
        self.category() == "overloaded"
    }
}

/// Fire-and-forget cancellation handle for one session. Clonable and
/// `Send`: capture it before a long `query` call and trigger it from
/// another thread.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    addr: String,
    session: u64,
    key: u64,
}

impl CancelHandle {
    /// Deliver the cancel on a fresh connection. `Ok` means the server
    /// accepted the key and flagged the session; the statement itself
    /// terminates at its next governor checkpoint.
    pub fn cancel(&self) -> Result<(), ClientError> {
        let mut stream = connect_raw(&self.addr)?;
        send_request(
            &mut stream,
            &Request::Cancel {
                session: self.session,
                key: self.key,
            },
        )?;
        match read_response(&mut stream)? {
            Response::CancelOk => Ok(()),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// A connected, authenticated CDBP session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: String,
    session: u64,
    cancel_key: u64,
    server: String,
}

fn connect_raw(addr: &str) -> Result<TcpStream, ClientError> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| ClientError::Protocol(ProtocolError::Io(e.to_string())))?
        .next()
        .ok_or_else(|| {
            ClientError::Protocol(ProtocolError::Io(format!("no address for {addr}")))
        })?;
    let stream = TcpStream::connect_timeout(&resolved, Duration::from_secs(10))
        .map_err(|e| ClientError::Protocol(ProtocolError::Io(e.to_string())))?;
    stream
        .set_nodelay(true)
        .and_then(|_| {
            let mut s = &stream;
            s.write_all(MAGIC)
        })
        .map_err(|e| ClientError::Protocol(ProtocolError::Io(e.to_string())))?;
    Ok(stream)
}

fn send_request(stream: &mut TcpStream, req: &Request) -> Result<(), ClientError> {
    write_frame(stream, &encode_request(req)).map_err(ClientError::Protocol)
}

fn read_response(stream: &mut TcpStream) -> Result<Response, ClientError> {
    let payload = read_frame(stream)?;
    Ok(decode_response(&payload)?)
}

impl Client {
    /// Connect to `addr`, authenticate as `tenant`, and seed the
    /// session's crowd platform with `seed`.
    pub fn connect(
        addr: &str,
        tenant: &str,
        token: &str,
        seed: u64,
    ) -> Result<Client, ClientError> {
        let mut stream = connect_raw(addr)?;
        send_request(
            &mut stream,
            &Request::Hello {
                tenant: tenant.to_string(),
                token: token.to_string(),
                seed,
            },
        )?;
        match read_response(&mut stream)? {
            Response::HelloOk {
                session,
                cancel_key,
                server,
            } => Ok(Client {
                stream,
                addr: addr.to_string(),
                session,
                cancel_key,
                server,
            }),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The server's identification string from `HelloOk`.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// A handle that can cancel this session's in-flight statement from
    /// another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            addr: self.addr.clone(),
            session: self.session,
            key: self.cancel_key,
        }
    }

    /// Execute one statement and block until its result or error.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, ClientError> {
        send_request(
            &mut self.stream,
            &Request::Query {
                sql: sql.to_string(),
            },
        )?;
        match read_response(&mut self.stream)? {
            Response::RowSet(r) => Ok(r),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Register a standing query (`SELECT ...` or `SUBSCRIBE SELECT
    /// ...`). Returns the subscription id and output column names; the
    /// initial snapshot arrives as the first [`Self::poll_deltas`] batch.
    pub fn subscribe(&mut self, sql: &str) -> Result<(u64, Vec<String>), ClientError> {
        send_request(
            &mut self.stream,
            &Request::Subscribe {
                sql: sql.to_string(),
            },
        )?;
        match read_response(&mut self.stream)? {
            Response::SubscribeOk { id, columns } => Ok((id, columns)),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drain up to `max` queued delta batches of subscription `id`. An
    /// empty vector means the subscriber is caught up. A
    /// `subscription-lagged` remote error means queued batches were
    /// dropped; the next call resyncs with a snapshot batch.
    pub fn poll_deltas(&mut self, id: u64, max: u32) -> Result<Vec<DeltaBatch>, ClientError> {
        send_request(&mut self.stream, &Request::Poll { id, max })?;
        match read_response(&mut self.stream)? {
            Response::DeltaBatches { id: got, batches } if got == id => Ok(batches),
            Response::DeltaBatches { id: got, .. } => Err(ClientError::Unexpected(format!(
                "delta batches for subscription {got}, wanted {id}"
            ))),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drop standing query `id`.
    pub fn unsubscribe(&mut self, id: u64) -> Result<(), ClientError> {
        send_request(&mut self.stream, &Request::Unsubscribe { id })?;
        match read_response(&mut self.stream)? {
            Response::UnsubscribeOk => Ok(()),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's metrics registry as Prometheus text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        send_request(&mut self.stream, &Request::Metrics)?;
        match read_response(&mut self.stream)? {
            Response::MetricsText { text } => Ok(text),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Close the session cleanly (waits for the server's `CloseOk`).
    pub fn close(mut self) -> Result<(), ClientError> {
        send_request(&mut self.stream, &Request::Close)?;
        match read_response(&mut self.stream)? {
            Response::CloseOk => Ok(()),
            Response::Error { category, message } => Err(ClientError::Remote { category, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// This session's secret cancel key (key-independence tests only).
    #[doc(hidden)]
    pub fn raw_cancel_key(&self) -> u64 {
        self.cancel_key
    }

    /// Send a raw pre-framed byte sequence (corruption tests only).
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream
            .write_all(bytes)
            .map_err(|e| ClientError::Protocol(ProtocolError::Io(e.to_string())))
    }

    /// Read one response frame (corruption tests only).
    #[doc(hidden)]
    pub fn read_one(&mut self) -> Result<Response, ClientError> {
        read_response(&mut self.stream)
    }
}
