//! The TCP transport: a thread-per-connection acceptor over `std::net`
//! with length-prefixed CRC-checked frames, a connection limit, and
//! graceful shutdown.
//!
//! Connection lifecycle:
//!
//! 1. **handshake** — the client sends `b"TSRV"` + version `u16 LE`; the
//!    server echoes the same six bytes. Anything else closes the socket
//!    (a stray peer never reaches the frame loop);
//! 2. **frames** — each request is one [`taco_store::frame`] frame
//!    (`len uvarint · crc32 u32 · payload`), answered by one response
//!    frame. Declared lengths are bounded before allocation
//!    ([`ServerOptions::max_frame`]); a checksum mismatch or malformed
//!    payload gets an error *reply* where the stream is still in sync
//!    (the frame parsed; its content didn't) and otherwise closes the
//!    connection — corrupt framing means the byte stream cannot be
//!    trusted to re-synchronize;
//! 3. **teardown** — when the connection ends (EOF, error, or server
//!    shutdown), every session it opened is closed, so dropped clients
//!    never leak sessions.
//!
//! Over the limit, a new connection is still handshaken and told
//! [`ServiceError::Busy`] in a well-formed error frame, then closed —
//! clients get a typed error instead of a hang or a reset.
//!
//! [`Server::shutdown`] stops the acceptor (unblocking it with a
//! loopback connect), shuts down every live socket (which pops the
//! per-connection threads out of their blocking reads), and joins them.

use crate::protocol::{Request, Response};
use crate::registry::lock;
use crate::registry::Registry;
use crate::ServiceError;
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use taco_store::{read_frame, write_frame, StoreError, DEFAULT_MAX_FRAME};

/// Leading handshake magic.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"TSRV";
/// The wire protocol version, and the only one either side accepts: a
/// peer that speaks another is refused at the handshake, before any frame.
/// Version 2 widened the `Stats` reply with degradation and deadline
/// counters.
pub const WIRE_VERSION: u16 = 2;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Concurrent connections served; the next one is told
    /// [`ServiceError::Busy`] and closed.
    pub max_connections: usize,
    /// Per-frame payload bound, enforced before allocation.
    pub max_frame: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { max_connections: 64, max_frame: DEFAULT_MAX_FRAME }
    }
}

/// Writes the six handshake bytes.
pub(crate) fn write_handshake(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&HANDSHAKE_MAGIC);
    hello[4..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    stream.write_all(&hello)
}

/// Reads and validates the six handshake bytes.
pub(crate) fn read_handshake(stream: &mut TcpStream) -> Result<(), ServiceError> {
    let mut hello = [0u8; 6];
    stream.read_exact(&mut hello)?;
    if hello[..4] != HANDSHAKE_MAGIC {
        return Err(ServiceError::Wire(StoreError::BadMagic));
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != WIRE_VERSION {
        return Err(ServiceError::Wire(StoreError::UnsupportedVersion(version)));
    }
    Ok(())
}

/// State shared by the acceptor and every connection thread.
struct ServerShared {
    registry: Arc<Registry>,
    opts: ServerOptions,
    stopping: AtomicBool,
    active: AtomicUsize,
    /// Live sockets by connection id, so shutdown can interrupt their
    /// blocking reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A running TCP server. Dropping it without [`Server::shutdown`] leaves
/// the acceptor thread running; call `shutdown` for a clean stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `registry`.
    pub fn start<A: ToSocketAddrs>(
        registry: Arc<Registry>,
        addr: A,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            registry,
            opts,
            stopping: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name(format!("taco-accept-{}", addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: no new connections, live sockets shut down, every
    /// connection thread joined. The registry is left running (it may be
    /// shared with in-process clients); shut it down separately.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Severs every live connection while the acceptor keeps serving —
    /// a failover drill. Each dropped connection's sessions are closed
    /// by its exiting thread, so reconnecting clients must re-`Open`;
    /// a retrying [`Client`](crate::Client) does both automatically.
    pub fn drop_connections(&self) {
        for (_, stream) in lock(&self.shared.conns).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn stop(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Pop every connection thread out of its blocking read.
        for (_, stream) in lock(&self.shared.conns).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = lock(&self.shared.handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            // Transient accept failures (fd exhaustion, aborted
            // connections) retry with a pause — never a busy-spin that
            // competes with the threads whose exit would clear them.
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        // Reap finished connection threads so a long-lived server does
        // not accumulate join handles.
        {
            let mut handles = lock(&shared.handles);
            let mut live = Vec::with_capacity(handles.len());
            for h in handles.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    live.push(h);
                }
            }
            *handles = live;
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("taco-conn".to_string())
            .spawn(move || serve_connection(stream, conn_shared));
        if let Ok(h) = spawned {
            lock(&shared.handles).push(h);
        }
    }
}

/// Handshakes and serves one connection to completion. Every exit path —
/// clean EOF, frame corruption, peer reset, server shutdown — cleans up
/// the sessions this connection opened and its registration; malformed
/// input is answered or dropped, never propagated as a panic.
fn serve_connection(mut stream: TcpStream, shared: Arc<ServerShared>) {
    let (over_limit, active_now) = {
        let active = shared.active.fetch_add(1, Ordering::SeqCst);
        (active >= shared.opts.max_connections, active + 1)
    };
    shared.registry.note_connections(active_now as i64);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let registered = match stream.try_clone() {
        Ok(clone) => {
            lock(&shared.conns).insert(conn_id, clone);
            true
        }
        // Without a registered clone, shutdown could not interrupt this
        // connection's blocking reads — refuse it rather than risk a
        // thread `stop` cannot join.
        Err(_) => false,
    };
    // Re-check *after* registering: `stop` sets the flag and then sweeps
    // `conns`, so either the sweep sees our socket, or we see the flag —
    // a connection can never slip between the two and block forever.
    let stopping = shared.stopping.load(Ordering::SeqCst);

    let mut opened_tokens: Vec<u64> = Vec::new();
    // Handshake both ways; then either serve frames or report Busy.
    let handshaken = registered
        && !stopping
        && read_handshake(&mut stream).is_ok()
        && write_handshake(&mut stream).is_ok();
    if handshaken {
        if over_limit {
            shared.registry.note_busy_rejection();
            let _ = write_frame(&mut stream, &Response::Err(ServiceError::Busy).encode());
        } else {
            frame_loop(&stream, &shared, &mut opened_tokens);
        }
    }

    for token in opened_tokens {
        shared.registry.close_session(token);
    }
    lock(&shared.conns).remove(&conn_id);
    let remaining = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
    shared.registry.note_connections(remaining as i64);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves frames until the peer goes or the server stops. Requests are
/// read through a buffer, so a frame's length, checksum and payload (and
/// any frames sent behind it) arrive in one `read`, not one per length
/// byte; the unbuffered handshake before it consumed exactly its six
/// bytes, so nothing is left behind.
fn frame_loop(stream: &TcpStream, shared: &ServerShared, opened: &mut Vec<u64>) {
    let (mut reader, mut stream) = (BufReader::new(stream), stream);
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut reader, shared.opts.max_frame) {
            Ok(p) => p,
            Err(e @ (StoreError::Malformed(_) | StoreError::ChecksumMismatch { .. })) => {
                // The stream's framing can no longer be trusted: report
                // (best effort) and close.
                let _ = write_frame(&mut stream, &Response::Err(ServiceError::Wire(e)).encode());
                return;
            }
            // EOF / reset / mid-frame disconnect: the peer is gone.
            Err(_) => return,
        };
        let (wire_ctx, req) = match Request::decode_traced(&payload) {
            Ok(pair) => pair,
            Err(e) => {
                // The frame was intact (CRC passed) but its content is not
                // a request: the stream is still in sync — answer and
                // keep serving.
                if write_frame(&mut stream, &Response::Err(ServiceError::Wire(e)).encode()).is_err()
                {
                    return;
                }
                continue;
            }
        };
        let closing = match &req {
            Request::Close { token } => Some(*token),
            _ => None,
        };
        let resp = shared.registry.execute_traced(req, wire_ctx, payload.len() as u64);
        if let Response::Opened { token, .. } = &resp {
            opened.push(*token);
        }
        if let Some(token) = closing {
            opened.retain(|t| *t != token);
        }
        if write_frame(&mut stream, &resp.encode()).is_err() {
            return;
        }
    }
}
