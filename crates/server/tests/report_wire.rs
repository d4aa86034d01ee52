//! A report's vertex values on the wire: one `values` string, the hex of
//! each value's little-endian `f64` bits, 16 digits per vertex. Every bit
//! pattern round-trips, every malformed column is an error rather than a
//! panic, and the exact bytes of a small report are pinned.

use graphm_cachesim::VirtualClock;
use graphm_core::JobReport;
use graphm_server::protocol::{report_from_json, report_to_json};
use graphm_server::{hex_decode, hex_encode, Client, ClientError};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;

fn report(values: Vec<f64>) -> JobReport {
    JobReport {
        id: 7,
        name: "BFS".to_string(),
        iterations: 3,
        clock: VirtualClock { compute_ns: 1.5, ..VirtualClock::default() },
        instructions: 0,
        edges_processed: 42,
        submit_ns: 10.0,
        finish_ns: 12.5,
        values,
        error: None,
    }
}

/// Encodes `r` to one line and decodes it back, as daemon and client do.
fn through_the_wire(r: &JobReport) -> Result<JobReport, String> {
    let line = serde_json::to_string(&report_to_json(r)).unwrap();
    report_from_json(&serde_json::from_str(&line).unwrap())
}

/// `report`'s line with its `values` member replaced by `values`.
fn with_values(values: Value) -> Value {
    let Value::Object(mut map) = report_to_json(&report(vec![1.0])) else { unreachable!() };
    map.insert("values".to_string(), values);
    Value::Object(map)
}

#[test]
fn every_bit_pattern_round_trips() {
    let values = vec![
        f64::from_bits(0x7ff8_0000_0000_0001), // NaN with a payload
        f64::from_bits(0xfff0_0000_0000_0bad), // signalling NaN, sign set
        -0.0,
        0.0,
        f64::from_bits(1), // smallest subnormal
        f64::MIN_POSITIVE / 3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0 / 7.0,
        f64::MAX,
    ];
    let back = through_the_wire(&report(values.clone())).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&back.values), bits(&values));
    assert!(through_the_wire(&report(Vec::new())).unwrap().values.is_empty());
}

#[test]
fn malformed_columns_are_errors_not_panics() {
    let cases = [
        (serde_json::json!([1.0, 2.0]), "hex string"),
        (Value::Null, "hex string"),
        (Value::String("0".repeat(15)), "not a multiple of 16"),
        (Value::String("0".repeat(17)), "not a multiple of 16"),
        (Value::String(format!("{}g", "0".repeat(15))), "bad hex byte 0x67"),
        (Value::String(format!("{}{}é", "0".repeat(16), "0".repeat(14))), "bad hex byte 0xc3"),
    ];
    for (values, why) in cases {
        let err = report_from_json(&with_values(values.clone())).unwrap_err();
        assert!(err.contains(why), "{values}: {err}");
    }
    let Value::Object(mut map) = with_values(Value::Null) else { unreachable!() };
    map.remove("values");
    assert!(report_from_json(&Value::Object(map)).is_err(), "a report needs its values");
}

/// The client surfaces an undecodable column as a typed protocol error.
#[test]
fn a_client_gets_a_typed_error_for_a_bad_column() {
    let path = std::env::temp_dir().join(format!("graphm-report-wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let daemon = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(&stream).read_line(&mut request).unwrap();
        let report = with_values(Value::String("0123456789abcdeg".to_string()));
        let answer =
            serde_json::json!({ "ok": true, "job_id": 7, "state": "done", "report": report });
        (&stream).write_all(format!("{answer}\n").as_bytes()).unwrap();
    });
    let mut client = Client::connect_unix(&path).unwrap();
    match client.wait(7) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("bad hex byte 0x67"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    daemon.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_three_value_report_has_these_exact_bytes() {
    let line =
        serde_json::to_string(&report_to_json(&report(vec![0.0, 1.0, f64::INFINITY]))).unwrap();
    assert_eq!(
        line,
        concat!(
            r#"{"clock":{"compute_ns":1.5,"disk_ns":0,"mem_access_ns":0,"sync_ns":0},"#,
            r#""edges_processed":42,"finish_ns":12.5,"instructions":0,"iterations":3,"#,
            r#""job_id":7,"name":"BFS","submit_ns":10,"values":""#,
            "0000000000000000", // 0.0
            "000000000000f03f", // 1.0 = 0x3ff0_0000_0000_0000, little-endian
            "000000000000f07f", // +inf = 0x7ff0_0000_0000_0000
            r#""}"#,
        )
    );
}

#[test]
fn hex_round_trips_and_rejects_garbage() {
    let bytes: Vec<u8> = (0..=255u8).collect();
    let hex = hex_encode(&bytes);
    assert_eq!(hex.len(), 512);
    assert_eq!(hex_decode(&hex).unwrap(), bytes);
    assert_eq!(hex_decode("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    assert!(hex_decode("abc").unwrap_err().contains("odd hex length"));
    assert!(hex_decode("zz").unwrap_err().contains("bad hex byte"));
    assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
}
