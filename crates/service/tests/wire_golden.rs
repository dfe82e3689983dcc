//! The wire protocol's golden bytes. Round trips pass a symmetric mistake
//! (a field written and read in the same wrong order, a tag renumbered on
//! both sides); these literals do not. Every message below was encoded by
//! the hand-written codec of the commit before the protocol was declared
//! as one table, so the file also proves that change left every wire byte
//! where it was. A deliberate format change edits the literal it moves,
//! in the same commit as the `WIRE_VERSION` bump.

use taco_formula::{CellError, Value};
use taco_grid::{Cell, Range};
use taco_obs::{
    GaugeValue, HistogramSnapshot, MetricValue, MetricsSnapshot, SlowSpan, SpanCat, TraceContext,
    TraceDump,
};
use taco_service::{Request, Response, ServiceError, ServiceStats};
use taco_store::StoreError;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

fn cell() -> Cell {
    Cell::new(3, 7)
}

fn range() -> Range {
    Range::from_coords(1, 1, 4, 9)
}

fn requests() -> Vec<(Request, &'static str)> {
    let (c, r) = (cell(), range());
    let data = || String::from("Data");
    vec![
        (Request::Open { workbook: "Sales".into(), auth: None, scope: None }, "000553616c65730000"),
        (
            Request::Open {
                workbook: "Sales".into(),
                auth: Some("sekrit".into()),
                scope: Some(vec!["Data".into(), "My Summary".into()]),
            },
            "000553616c6573010673656b726974010204446174610a4d792053756d6d617279",
        ),
        (Request::Close { token: 99 }, "0163"),
        (
            Request::SetValue { token: 1, sheet: data(), cell: c, value: Value::Number(2.5) },
            "020104446174610307010000000000000440",
        ),
        (
            Request::SetFormula { token: 1, sheet: data(), cell: c, src: "SUM(A1:A9)".into() },
            "0301044461746103070a53554d2841313a413929",
        ),
        (
            Request::Autofill { token: 2, sheet: data(), src: c, targets: r },
            "04020444617461030701010308",
        ),
        (Request::ClearRange { token: 2, sheet: data(), range: r }, "0502044461746101010308"),
        (Request::Get { token: 3, sheet: data(), cell: c }, "060304446174610307"),
        (Request::GetRange { token: 3, sheet: data(), range: r }, "0703044461746101010308"),
        (Request::Dependents { token: 4, sheet: data(), range: r }, "0804044461746101010308"),
        (Request::Precedents { token: 4, sheet: data(), range: r }, "0904044461746101010308"),
        (Request::DirtyCount { token: 5 }, "0a05"),
        (Request::Recalc { token: 5 }, "0b05"),
        (Request::Save { token: 6 }, "0c06"),
        (Request::Stats { token: u64::MAX }, "0dffffffffffffffffff01"),
        (Request::RecalcRange { token: 7, sheet: data(), range: r }, "0e07044461746101010308"),
        (Request::GetRangeFresh { token: 7, sheet: data(), range: r }, "0f07044461746101010308"),
        (Request::InsertRows { token: 8, sheet: data(), at: 5, n: 3 }, "100804446174610503"),
        (Request::DeleteRows { token: 8, sheet: data(), at: 1, n: 200 }, "1108044461746101c801"),
        (Request::InsertCols { token: 8, sheet: data(), at: 2, n: 1 }, "120804446174610201"),
        (
            Request::DeleteCols { token: 8, sheet: data(), at: 7, n: u32::MAX },
            "1308044461746107ffffffff0f",
        ),
        (Request::Metrics { token: 9 }, "1409"),
        (Request::TraceDump { token: 10 }, "150a"),
    ]
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![MetricValue {
            name: "taco_wal_records_total".into(),
            labels: String::new(),
            value: 41,
        }],
        gauges: vec![GaugeValue {
            name: "taco_graph_edges".into(),
            labels: "book=\"demo\"".into(),
            value: -3,
        }],
        histograms: vec![HistogramSnapshot {
            name: "taco_request_ns".into(),
            labels: "op=\"recalc\"".into(),
            count: 3,
            sum: 905,
            buckets: vec![(3, 2), (10, 1)],
            p50: 7,
            p90: 1023,
            p99: 1023,
        }],
        slow_spans: vec![SlowSpan {
            name: "workbook.recalc".into(),
            cat: SpanCat::Recalc,
            trace_hi: 0x0123_4567_89AB_CDEF,
            trace_lo: u64::MAX,
            span_id: 11,
            parent_id: 7,
            start_ns: 5,
            dur_ns: 20_000_000,
            a: 100,
            b: 2,
        }],
    }
}

fn trace_dump() -> TraceDump {
    let span = |name: &str, cat, span_id, parent_id| SlowSpan {
        name: name.into(),
        cat,
        trace_hi: 0xFEED_FACE_CAFE_BEEF,
        trace_lo: 0x0102_0304_0506_0708,
        span_id,
        parent_id,
        start_ns: 10,
        dur_ns: 50,
        a: 1,
        b: 2,
    };
    TraceDump {
        recent: vec![
            span("request.recalc", SpanCat::Request, 1, 0),
            span("workbook.recalc", SpanCat::Recalc, 2, 1),
            span("wal.append", SpanCat::WalAppend, 3, 1),
        ],
        slow: vec![span("request.recalc", SpanCat::Request, 1, 0)],
    }
}

fn responses() -> Vec<(Response, &'static str)> {
    let (c, r) = (cell(), range());
    vec![
        (
            Response::Opened { token: 42, sheets: vec!["Data".into(), "Out".into()], epoch: 7 },
            "002a07020444617461034f7574",
        ),
        (Response::Closed, "01"),
        (Response::Applied { epoch: 8, dirty: 12 }, "02080c"),
        (Response::Value(Value::Text("héllo".into())), "03020668c3a96c6c6f"),
        (Response::Value(Value::Error(CellError::Ref)), "030402"),
        (
            Response::Cells(vec![(c, Value::Number(1.0)), (Cell::new(4, 7), Value::Bool(true))]),
            "0402030701000000000000f03f04070301",
        ),
        (
            Response::Ranges(vec![("Data".into(), r), ("Out".into(), Range::cell(c))]),
            "0502044461746101010308034f757403070000",
        ),
        (Response::Count(77), "064d"),
        (Response::Recalced { evaluated: 123, epoch: 9 }, "077b09"),
        (Response::Saved { wal_records: 0 }, "0800"),
        (
            Response::Stats(ServiceStats {
                epoch: 1,
                sheets: 2,
                cells: 3,
                dirty: 4,
                graph_edges: 5,
                cross_edges: 6,
                edits: 7,
                batches: 8,
                recalcs: 9,
                coalesced: 10,
                sessions: 11,
                busy_rejected: 12,
                auth_failures: 13,
                scope_denials: 14,
                degraded: 1,
                deadline_expired: 15,
            }),
            "090102030405060708090a0b0c0d0e010f",
        ),
        (
            Response::Metrics(Box::new(snapshot())),
            concat!(
                "0b01167461636f5f77616c5f7265636f7264735f746f74616c002901107461636f5f67726170",
                "685f65646765730b626f6f6b3d2264656d6f2205010f7461636f5f726571756573745f6e730b",
                "6f703d22726563616c63220389070203020a0107ff07ff07010f776f726b626f6f6b2e726563",
                "616c6300efcdab8967452301ffffffffffffffff0b0000000000000007000000000000000580",
                "dac4096402"
            ),
        ),
        (Response::Metrics(Box::default()), "0b00000000"),
        (
            Response::Traces(Box::new(trace_dump())),
            concat!(
                "0c030e726571756573742e726563616c6307efbefecacefaedfe080706050403020101000000",
                "0000000000000000000000000a3201020f776f726b626f6f6b2e726563616c6300efbefecace",
                "faedfe0807060504030201020000000000000001000000000000000a3201020a77616c2e6170",
                "70656e6404efbefecacefaedfe0807060504030201030000000000000001000000000000000a",
                "320102010e726571756573742e726563616c6307efbefecacefaedfe08070605040302010100",
                "00000000000000000000000000000a320102"
            ),
        ),
        (Response::Traces(Box::default()), "0c0000"),
        (Response::Err(ServiceError::NoSuchWorkbook("nope".into())), "0a00046e6f7065"),
        (Response::Err(ServiceError::AuthFailed), "0a0100"),
        (Response::Err(ServiceError::OutOfScope("Secret".into())), "0a0406536563726574"),
        (
            Response::Err(ServiceError::BadRequest("unparsable".into())),
            "0a050a756e7061727361626c65",
        ),
        (
            Response::Err(ServiceError::Degraded("wal append: disk full".into())),
            "0a0c1577616c20617070656e643a206469736b2066756c6c",
        ),
        (Response::Err(ServiceError::DeadlineExceeded), "0a0d00"),
    ]
}

/// Every error code, including the eight the sample responses above leave
/// out, with what the peer decodes it to: a peer's `Wire` and `Protocol`
/// failures arrive as `BadRequest`, by design.
fn errors() -> Vec<(ServiceError, &'static str, ServiceError)> {
    let same = |e: ServiceError, golden| (e.clone(), golden, e);
    vec![
        same(ServiceError::NoSuchWorkbook("nope".into()), "0a00046e6f7065"),
        same(ServiceError::AuthFailed, "0a0100"),
        same(ServiceError::NoSession, "0a0200"),
        same(ServiceError::NoSuchSheet("Gone".into()), "0a0304476f6e65"),
        same(ServiceError::OutOfScope("Secret".into()), "0a0406536563726574"),
        same(ServiceError::BadRequest("unparsable".into()), "0a050a756e7061727361626c65"),
        same(ServiceError::NotPersistent, "0a0600"),
        same(ServiceError::Busy, "0a0700"),
        same(ServiceError::ShuttingDown, "0a0800"),
        (
            ServiceError::Wire(StoreError::BadMagic),
            "0a09216e6f742061207461636f5f73746f72652066696c652028626164206d6167696329",
            ServiceError::BadRequest(format!("peer wire error: {}", StoreError::BadMagic)),
        ),
        same(ServiceError::Io("reset".into()), "0a0a057265736574"),
        (
            ServiceError::Protocol("expected Opened"),
            "0a0b0f6578706563746564204f70656e6564",
            ServiceError::BadRequest("peer protocol error: expected Opened".into()),
        ),
        same(
            ServiceError::Degraded("wal append: disk full".into()),
            "0a0c1577616c20617070656e643a206469736b2066756c6c",
        ),
        same(ServiceError::DeadlineExceeded, "0a0d00"),
    ]
}

#[test]
fn every_request_is_its_golden_bytes_both_ways() {
    for (req, golden) in requests() {
        assert_eq!(hex(&req.encode()), golden, "{req:?}");
        assert_eq!(Request::decode(&unhex(golden)).unwrap(), req, "{golden}");
    }
}

#[test]
fn every_response_is_its_golden_bytes_both_ways() {
    for (resp, golden) in responses() {
        assert_eq!(hex(&resp.encode()), golden, "{resp:?}");
        assert_eq!(Response::decode(&unhex(golden)).unwrap(), resp, "{golden}");
    }
}

#[test]
fn every_error_code_is_its_golden_bytes_and_decodes_as_documented() {
    for (sent, golden, received) in errors() {
        assert_eq!(hex(&Response::Err(sent.clone()).encode()), golden, "{sent:?}");
        assert_eq!(Response::decode(&unhex(golden)).unwrap(), Response::Err(received), "{golden}");
    }
}

#[test]
fn the_traced_wrapper_is_its_golden_bytes_both_ways() {
    let ctx = TraceContext {
        trace_hi: 0xAAAA_BBBB_CCCC_DDDD,
        trace_lo: 0x1111_2222_3333_4444,
        span_id: 42,
        parent_id: 0,
    };
    let req = Request::Recalc { token: 5 };
    let golden = "16ddddccccbbbbaaaa44443333222211112a000000000000000b05";
    assert_eq!(hex(&req.encode_traced(ctx)), golden);
    assert_eq!(Request::decode_traced(&unhex(golden)).unwrap(), (Some(ctx), req));
}
