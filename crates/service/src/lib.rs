//! `taco_service` — a concurrent multi-workbook serving layer over the
//! TACO engine: sessions, lock-free snapshot reads, single-writer queues
//! with batch coalescing, and a framed TCP wire protocol.
//!
//! The paper makes dependents/precedents queries and dirty propagation
//! cheap enough to answer interactively; this crate is the subsystem that
//! lets *many concurrent clients over many workbooks* actually ask. The
//! pieces:
//!
//! - [`protocol`] — the command set (`Open`, `SetValue`, `SetFormula`,
//!   `Autofill`, `ClearRange`, `Get`, `GetRange`, `Dependents`,
//!   `Precedents`, `DirtyCount`, `Recalc`, `Save`, `Stats`, `Close`) as
//!   plain-data [`Request`]/[`Response`] enums with a compact binary
//!   encoding built from `taco_store`'s codec layer;
//! - [`session`] — per-session authentication tokens and sheet scoping;
//! - [`registry`] — the server core: a registry of named workbooks, each
//!   owned by a **single writer thread**. Reads execute against epoch
//!   [`Snapshot`]s (an `Arc` swapped under a lock held only for the
//!   pointer exchange — readers never wait for a write to apply or a
//!   recalculation to finish; republished copy-on-write by cell-store
//!   page, so publication copies what a batch wrote, not what the sheet
//!   holds);
//!   writes are funneled through the owner thread's queue, which
//!   **coalesces** queued edits into one [`Workbook::apply_batch`] + one
//!   recalculation instead of N;
//! - [`server`] — a thread-per-connection TCP acceptor over `std::net`
//!   with length-prefixed CRC-checked frames ([`taco_store::frame`]), a
//!   connection limit, and graceful shutdown;
//! - [`client`] — the same typed [`Client`] surface over two transports:
//!   in-process ([`InProcClient`]) and TCP ([`TcpClient`]).
//!
//! Every failure — bad auth, out-of-scope sheet, corrupt frame, peer
//! disconnect, oversized declared length — is a typed [`ServiceError`];
//! malformed input never panics a server thread and never wedges the
//! acceptor.
//!
//! [`Workbook::apply_batch`]: taco_engine::Workbook::apply_batch
//! [`Request`]: protocol::Request
//! [`Response`]: protocol::Response
//! [`Snapshot`]: registry::Snapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
mod obs;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;

pub use client::{Client, InProcClient, RetryPolicy, TcpClient, Transport};
pub use http::HttpSidecar;
pub use protocol::{Request, Response, ServiceStats};
pub use registry::{Registry, ServiceOptions, Snapshot};
pub use server::{Server, ServerOptions};
pub use session::{Session, SessionToken};

use std::fmt;
use taco_store::StoreError;

/// Errors from every service layer; encodable on the wire so a server can
/// report them to the offending client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// `Open` named a workbook the registry does not serve.
    NoSuchWorkbook(String),
    /// `Open`'s auth token did not match the workbook's.
    AuthFailed,
    /// The request carried no valid session token (expired, closed, or
    /// never issued).
    NoSession,
    /// The named sheet does not exist in the workbook.
    NoSuchSheet(String),
    /// The session's sheet scope does not cover the named sheet.
    OutOfScope(String),
    /// A structurally valid request that cannot be honoured (bad formula,
    /// unapplicable edit…).
    BadRequest(String),
    /// `Save` against a workbook with no persistent backing store.
    NotPersistent,
    /// The workbook is degraded: a storage fault left its write-ahead
    /// log (or snapshot file) behind the live state, so writes are
    /// refused until a successful `Save` rewrites the snapshot from the
    /// live workbook and heals the log. Reads keep working throughout.
    /// The payload says which fault started it.
    Degraded(String),
    /// The per-request deadline ([`ServiceOptions::deadline`]) elapsed
    /// before the workbook's writer replied. The operation may still
    /// complete after the fact — for writes, "deadline exceeded" means
    /// *unknown*, not *not applied*.
    DeadlineExceeded,
    /// The server is at its connection limit.
    Busy,
    /// The server (or this workbook's writer) is shutting down.
    ShuttingDown,
    /// A framing or decoding failure on the transport.
    Wire(StoreError),
    /// A transport I/O failure (connect, read, write).
    Io(String),
    /// The peer answered with a response the protocol does not allow for
    /// the request (a protocol bug, not an I/O failure).
    Protocol(&'static str),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoSuchWorkbook(n) => write!(f, "no workbook named {n:?}"),
            ServiceError::AuthFailed => write!(f, "authentication failed"),
            ServiceError::NoSession => write!(f, "no such session (open a workbook first)"),
            ServiceError::NoSuchSheet(n) => write!(f, "no sheet named {n:?}"),
            ServiceError::OutOfScope(n) => write!(f, "sheet {n:?} is outside the session scope"),
            ServiceError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServiceError::NotPersistent => write!(f, "workbook has no persistent backing store"),
            ServiceError::Degraded(why) => {
                write!(f, "workbook degraded (read-only until a successful Save): {why}")
            }
            ServiceError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServiceError::Busy => write!(f, "server is at its connection limit"),
            ServiceError::ShuttingDown => write!(f, "server is shutting down"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
            ServiceError::Io(why) => write!(f, "transport i/o error: {why}"),
            ServiceError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e.to_string())
    }
}
