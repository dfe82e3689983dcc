//! Wire-protocol robustness (mirrors `crates/store/tests/corruption.rs`
//! for the service's framed transport): exhaustive frame truncations,
//! exhaustive per-byte bit flips, oversized declared lengths bounded
//! before allocation, bogus handshakes, and a mid-stream disconnect. The
//! server must answer with typed errors where the stream is still in
//! sync, close the connection where it is not, and in **every** case
//! keep serving subsequent well-behaved clients — no panics, no wedged
//! threads, no leaked sessions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use taco_engine::{RecalcMode, Workbook};
use taco_formula::Value;
use taco_grid::Cell;
use taco_obs::TraceContext;
use taco_service::server::WIRE_VERSION;
use taco_service::{
    Registry, Request, Response, Server, ServerOptions, ServiceError, ServiceOptions, TcpClient,
};
use taco_store::codec::{read_uvarint, write_uvarint};
use taco_store::{read_frame, write_frame, StoreError};

fn demo_registry() -> Arc<Registry> {
    let mut wb = Workbook::with_taco();
    let data = wb.add_sheet("Data").unwrap();
    for row in 1..=8u32 {
        wb.set_value(data, Cell::new(1, row), Value::Number(f64::from(row)));
    }
    wb.set_formula(data, Cell::new(2, 1), "=SUM(A1:A8)").unwrap();
    wb.recalculate(RecalcMode::Serial);
    let reg = Arc::new(Registry::new(ServiceOptions::default()));
    reg.add_workbook("book", wb, None).unwrap();
    reg
}

fn start_server(registry: &Arc<Registry>, opts: ServerOptions) -> Server {
    Server::start(Arc::clone(registry), "127.0.0.1:0", opts).unwrap()
}

/// A raw handshaken socket with a read timeout (so a misbehaving server
/// could never hang the test suite).
fn raw_conn(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(b"TSRV");
    hello[4..].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    s.write_all(&hello).unwrap();
    let mut echo = [0u8; 6];
    s.read_exact(&mut echo).unwrap();
    assert_eq!(echo, hello);
    s
}

/// Proves the server still serves: a fresh full client session succeeds.
fn assert_still_serving(server: &Server) {
    let mut client = TcpClient::connect(server.local_addr()).expect("connect after abuse");
    client.open("book", None, None).expect("open after abuse");
    let v = client.get("Data", Cell::new(2, 1)).expect("read after abuse");
    assert_eq!(v, Value::Number(36.0));
    client.close().expect("close after abuse");
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, payload).unwrap();
    frame
}

fn open_frame() -> Vec<u8> {
    framed(&Request::Open { workbook: "book".into(), auth: None, scope: None }.encode())
}

/// Every request sample of the protocol table as a frame a live client
/// could have sent: `Open` names the served workbook, and every other
/// request carries the token of a session opened for it on `server`
/// (kept open by the returned clients), so nothing about the frame but
/// the abuse applied to it is wrong.
fn live_sample_frames(server: &Server) -> (Vec<TcpClient>, Vec<Vec<u8>>) {
    let (mut sessions, mut frames) = (Vec::new(), Vec::new());
    for sample in Request::samples() {
        let payload = match sample {
            Request::Open { auth, scope, .. } => {
                Request::Open { workbook: "book".into(), auth, scope }.encode()
            }
            other => {
                let mut client = TcpClient::connect(server.local_addr()).unwrap();
                client.open("book", None, None).unwrap();
                // The token is the first field after the tag, so the
                // sample's is swapped for the live one on the wire.
                let bytes = other.encode();
                let mut rest = &bytes[1..];
                read_uvarint(&mut rest).unwrap();
                let mut patched = vec![bytes[0]];
                write_uvarint(&mut patched, client.token().unwrap()).unwrap();
                patched.extend_from_slice(rest);
                assert_eq!(Request::decode(&patched).unwrap().tag(), other.tag());
                sessions.push(client);
                patched
            }
        };
        frames.push(framed(&payload));
    }
    (sessions, frames)
}

/// Waits until only the sessions the test itself holds are left.
fn assert_sessions_settle_at(registry: &Registry, held: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.session_count() > held && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(registry.session_count(), held, "abuse must not leak sessions");
}

#[test]
fn every_frame_truncation_leaves_the_server_serving() {
    let registry = demo_registry();
    let server =
        start_server(&registry, ServerOptions { max_connections: 256, ..Default::default() });
    let (sessions, frames) = live_sample_frames(&server);
    for frame in &frames {
        for cut in 0..frame.len() {
            let mut s = raw_conn(&server);
            s.write_all(&frame[..cut]).unwrap();
            drop(s); // mid-stream disconnect at every possible byte boundary
        }
    }
    assert_still_serving(&server);
    assert_sessions_settle_at(&registry, sessions.len());
    server.shutdown();
}

#[test]
fn every_bit_flip_is_answered_or_dropped_never_wedged() {
    let registry = demo_registry();
    let server =
        start_server(&registry, ServerOptions { max_connections: 256, ..Default::default() });
    let (sessions, frames) = live_sample_frames(&server);
    for frame in &frames {
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut s = raw_conn(&server);
            // The flip may corrupt the length varint (server waits for
            // more bytes), the CRC, or the payload. Close our write side
            // so a waiting server sees EOF instead of hanging.
            let _ = s.write_all(&bad);
            let _ = s.shutdown(std::net::Shutdown::Write);
            // The server either answers (an error frame or, when the
            // flip left the frame valid, a reply) or closes. Drain
            // whatever comes; the only failure mode is a hang, which the
            // read timeout converts into an error we tolerate.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        }
    }
    assert_still_serving(&server);
    // Sessions from flips that *happened* to parse as a valid Open are
    // closed with their connections: nothing leaks once all are gone.
    assert_sessions_settle_at(&registry, sessions.len());
    server.shutdown();
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut s = raw_conn(&server);
    // Declare a 2^40-byte payload; send nothing else.
    let mut frame = Vec::new();
    write_uvarint(&mut frame, 1u64 << 40).unwrap();
    frame.extend_from_slice(&[0u8; 16]);
    s.write_all(&frame).unwrap();
    // The server answers with a typed wire error frame, then closes.
    let payload = read_frame(&mut s, 1 << 20).expect("error frame");
    let resp = Response::decode(&payload).expect("decodable response");
    assert!(
        matches!(resp, Response::Err(ServiceError::BadRequest(_) | ServiceError::Wire(_))),
        "oversized length must be a typed error, got {resp:?}"
    );
    let mut rest = Vec::new();
    let _ = s.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection must be closed after a framing violation");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn traced_wrapper_and_trace_dump_survive_truncation_and_bit_flips() {
    // The frame sweeps above never get past the checksum. Here the
    // *payload* of a trace-wrapped Open and of a TraceDump with a live
    // token is cut at every byte and flipped at every bit, then framed
    // correctly, so each corruption reaches the request decoder of a
    // live connection: it must get exactly one reply frame (a typed
    // error, or a real reply where the flip left a valid request), and
    // the same connection must keep serving.
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut session = TcpClient::connect(server.local_addr()).unwrap();
    session.open("book", None, None).unwrap();
    let ctx = TraceContext { trace_hi: 0xFEED, trace_lo: 0xBEEF, span_id: 7, parent_id: 0 };
    let open = Request::Open { workbook: "book".into(), auth: None, scope: None };
    let mut s = raw_conn(&server);
    let mut replies = 0usize;
    for payload in [
        open.encode_traced(ctx),
        Request::TraceDump { token: session.token().unwrap() }.encode(),
        Request::TraceDump { token: session.token().unwrap() }.encode_traced(ctx),
    ] {
        let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
        let flips = (0..payload.len() * 8).map(|bit| {
            let mut bad = payload.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            bad
        });
        for bad in cuts.chain(flips) {
            write_frame(&mut s, &bad).unwrap();
            Response::decode(&read_frame(&mut s, 1 << 20).expect("one reply frame per request"))
                .expect("a decodable reply");
            replies += 1;
        }
    }
    assert!(replies > 500, "the sweep ran ({replies} replies)");
    // Same connection, now a real request.
    write_frame(&mut s, &open.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    drop(s);
    assert_still_serving(&server);
    assert_sessions_settle_at(&registry, 1);
    server.shutdown();
}

#[test]
fn degenerate_trace_wrappers_are_typed_errors_on_a_live_stream() {
    // A zero trace id and a nested wrapper are both in-sync framing
    // violations: the server answers a typed error and the same
    // connection keeps working.
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut s = raw_conn(&server);

    let inner = Request::Open { workbook: "book".into(), auth: None, scope: None }.encode();
    // Tag 22 with an all-zero trace id.
    let mut zero_id = vec![22u8];
    zero_id.extend_from_slice(&[0u8; 24]);
    zero_id.extend_from_slice(&inner);
    // Tag 22 wrapping another tag 22.
    let ctx = TraceContext { trace_hi: 1, trace_lo: 2, span_id: 3, parent_id: 0 };
    let once =
        Request::Open { workbook: "book".into(), auth: None, scope: None }.encode_traced(ctx);
    let mut nested = vec![22u8];
    nested.extend_from_slice(&ctx.trace_hi.to_le_bytes());
    nested.extend_from_slice(&ctx.trace_lo.to_le_bytes());
    nested.extend_from_slice(&ctx.span_id.to_le_bytes());
    nested.extend_from_slice(&once);

    for bad in [zero_id, nested] {
        write_frame(&mut s, &bad).unwrap();
        let resp = Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap();
        assert!(
            matches!(resp, Response::Err(ServiceError::BadRequest(_) | ServiceError::Wire(_))),
            "degenerate wrapper must be a typed error, got {resp:?}"
        );
    }
    // Same connection, now a real traced request.
    write_frame(
        &mut s,
        &Request::Open { workbook: "book".into(), auth: None, scope: None }.encode_traced(ctx),
    )
    .unwrap();
    let resp = Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    server.shutdown();
}

#[test]
fn http_sidecar_answers_abuse_and_keeps_serving() {
    // The sidecar is plain HTTP: junk requests get 400/404 (or a clean
    // close for non-HTTP bytes), oversized heads are cut off, and the
    // scrape endpoints keep answering afterwards — no panics, ever.
    let obs = taco_obs::Obs::new_default();
    obs.metrics.counter("taco_robust_total").add(3);
    let sidecar = taco_service::HttpSidecar::start("127.0.0.1:0", Arc::clone(&obs)).unwrap();
    let addr = sidecar.addr();

    let roundtrip = |bytes: &[u8]| -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let _ = s.write_all(bytes);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        out
    };

    let abuses: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"\r\n".to_vec(),
        b"GET\r\n\r\n".to_vec(),
        b"POST /metrics HTTP/1.0\r\n\r\n".to_vec(),
        b"GET /metrics SMTP/1.0\r\n\r\n".to_vec(),
        b"GET /../../etc/passwd HTTP/1.0\r\n\r\n".to_vec(),
        vec![0xFFu8; 64],
        vec![b'A'; 64 * 1024], // far past the 8 KB head cap, no newline
        b"GET /metrics HTTP/1.0".to_vec(), // cut off mid-request-line
    ];
    for abuse in &abuses {
        let reply = roundtrip(abuse);
        if !reply.is_empty() {
            let head = String::from_utf8_lossy(&reply);
            assert!(
                head.starts_with("HTTP/1.0 400") || head.starts_with("HTTP/1.0 404"),
                "abuse must be refused with 400/404: {head:.60}"
            );
        }
    }

    // Still scraping after every abuse: both endpoints answer, an unknown
    // path is a 404 and a line that is not a request a 400.
    let text = |bytes: &[u8]| String::from_utf8_lossy(&roundtrip(bytes)).into_owned();
    let body = text(b"GET /metrics HTTP/1.0\r\n\r\n");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "sidecar must still serve: {body:.60}");
    assert!(body.contains("taco_robust_total 3"), "metrics body intact: {body}");
    let trace = text(b"GET /trace HTTP/1.0\r\n\r\n");
    assert!(trace.starts_with("HTTP/1.0 200 OK"), "trace status: {trace:.60}");
    assert!(trace.contains("\"traceEvents\":["), "trace body: {trace}");
    assert!(text(b"GET /nope HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 404"));
    assert!(text(b"BOGUS\r\n\r\n").starts_with("HTTP/1.0 400"));
    sidecar.shutdown();
}

#[test]
fn valid_frame_with_malformed_request_keeps_the_stream_alive() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut s = raw_conn(&server);
    // A well-framed payload that is not a request (unknown op 200): the
    // stream is still in sync, so the server answers and keeps serving
    // *this* connection.
    write_frame(&mut s, &[200u8, 1, 2, 3]).unwrap();
    let resp = Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap();
    assert!(matches!(resp, Response::Err(ServiceError::BadRequest(_) | ServiceError::Wire(_))));
    // Same connection, now a real request.
    write_frame(
        &mut s,
        &Request::Open { workbook: "book".into(), auth: None, scope: None }.encode(),
    )
    .unwrap();
    let resp = Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    server.shutdown();
}

/// The server reads frames through a buffer: two requests that arrive in
/// one segment, behind the handshake, are both answered, in order, and a
/// request that trickles in a byte at a time is answered once whole.
#[test]
fn coalesced_and_trickled_frames_are_each_answered_in_order() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut burst = b"TSRV".to_vec();
    burst.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    burst.extend(open_frame());
    s.write_all(&burst).unwrap();
    let mut echo = [0u8; 6];
    s.read_exact(&mut echo).unwrap();
    assert_eq!(echo[..], burst[..6]);
    let token = match Response::decode(&read_frame(&mut s, 1 << 20).unwrap()).unwrap() {
        Response::Opened { token, .. } => token,
        other => panic!("{other:?}"),
    };
    let get = |row| {
        let req = Request::Get { token, sheet: "Data".into(), cell: Cell::new(1, row) };
        framed(&req.encode())
    };
    let read_value =
        |s: &mut TcpStream| Response::decode(&read_frame(s, 1 << 20).unwrap()).unwrap();

    s.write_all(&[get(2), get(5)].concat()).unwrap();
    for want in [2.0, 5.0] {
        assert_eq!(read_value(&mut s), Response::Value(Value::Number(want)));
    }

    s.set_nodelay(true).unwrap();
    for byte in get(7) {
        s.write_all(&[byte]).unwrap();
        s.flush().unwrap();
    }
    assert_eq!(read_value(&mut s), Response::Value(Value::Number(7.0)));
    drop(s);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn bogus_handshake_is_dropped() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
    assert!(sink.is_empty(), "a non-protocol peer gets nothing back");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn other_wire_versions_are_refused_both_ways_and_the_server_keeps_serving() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    // A peer that speaks version 0, 1 (once accepted) or a future one is
    // dropped at the handshake with nothing sent back…
    for version in [0u16, 1, WIRE_VERSION + 1] {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"TSRV").unwrap();
        s.write_all(&version.to_le_bytes()).unwrap();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
        assert!(sink.is_empty(), "version {version} must not be echoed");
    }
    assert_still_serving(&server);
    server.shutdown();
    // …and a client that meets such a server reports the typed error.
    for version in [0u16, 1, WIRE_VERSION + 1] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let old_server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut hello = [0u8; 6];
            s.read_exact(&mut hello).unwrap();
            s.write_all(b"TSRV").unwrap();
            s.write_all(&version.to_le_bytes()).unwrap();
        });
        match TcpClient::connect(addr) {
            Err(ServiceError::Wire(StoreError::UnsupportedVersion(v))) => assert_eq!(v, version),
            Err(e) => panic!("version {version}: expected UnsupportedVersion, got {e}"),
            Ok(_) => panic!("version {version} was accepted"),
        }
        old_server.join().unwrap();
    }
}

#[test]
fn mid_stream_disconnect_releases_the_session() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    {
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.open("book", None, None).unwrap();
        assert_eq!(registry.session_count(), 1);
        // Send half a frame, then vanish.
        let mut s = raw_conn(&server);
        let frame = open_frame();
        s.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(s);
        drop(client); // vanish without Close
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.session_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(registry.session_count(), 0, "dropped connection must close its session");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn connection_limit_reports_busy_and_recovers() {
    let registry = demo_registry();
    let server =
        start_server(&registry, ServerOptions { max_connections: 1, ..ServerOptions::default() });
    let mut first = TcpClient::connect(server.local_addr()).unwrap();
    first.open("book", None, None).unwrap();
    // Second connection: handshake succeeds, then a typed Busy frame.
    let err = match TcpClient::connect(server.local_addr()) {
        Ok(mut second) => second.open("book", None, None).expect_err("over the limit"),
        Err(e) => e,
    };
    assert!(
        matches!(err, ServiceError::Busy | ServiceError::Io(_) | ServiceError::Wire(_)),
        "expected Busy (or a closed connection), got {err:?}"
    );
    // Releasing the first connection frees the slot.
    first.close().unwrap();
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match TcpClient::connect(server.local_addr()).and_then(|mut c| c.open("book", None, None)) {
            Ok(_) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_interrupts_blocked_readers() {
    let registry = demo_registry();
    let server = start_server(&registry, ServerOptions::default());
    let addr = server.local_addr();
    // A handshaken client parked in a blocking read (no request in
    // flight), waiting for the server to hang up.
    let mut parked = raw_conn(&server);
    let reader = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = parked.read_to_end(&mut sink);
    });
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown(); // must not hang on the parked connection
    reader.join().expect("parked client unblocked");
    // The port no longer accepts the protocol.
    assert!(
        TcpClient::connect(addr).and_then(|mut c| c.open("book", None, None)).is_err(),
        "server must be gone after shutdown"
    );
}
