//! Property-based protocol abuse against a live daemon: arbitrary byte
//! garbage, embedded newlines, oversized lines, invalid UTF-8, and
//! mid-request disconnects must never wedge a connection or kill the
//! daemon. Every abusive frame gets *some* one-line answer (typed error
//! or parse error), framing recovers at the next newline, and a
//! well-formed `ping` on the same socket always comes back.

mod common;

use graphm::graph::generators;
use graphm::server::{Client, Server};
use graphm::store::Convert;
use graphm::workloads::{AlgoKind, JobSpec};
use proptest::collection;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// One daemon shared by all cases (leaked for the process lifetime):
/// surviving 64 consecutive abuse cases on the same instance is the
/// property under test.
fn abuse_socket() -> &'static PathBuf {
    static SOCKET: OnceLock<PathBuf> = OnceLock::new();
    SOCKET.get_or_init(|| {
        let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 7);
        let dir =
            std::env::temp_dir().join(format!("graphm-server-abuse-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut config = common::daemon_config(&dir, "abuse", 5);
        // Small line cap so random payloads regularly exercise the
        // oversized-line shed path too.
        config.max_line_bytes = 512;
        let server = Server::start(config).unwrap();
        let socket = server.socket_path().unwrap().to_path_buf();
        std::mem::forget(server);
        socket
    })
}

fn connect() -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(abuse_socket()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// A damping outside `(0, 1)` is refused at the door for PageRank and
/// PPR alike (a rank job cannot be built with one), and the daemon goes
/// on serving: a valid submit and wait on it still returns a report.
#[test]
fn damping_outside_the_open_interval_is_refused_and_the_daemon_serves_on() {
    let (mut stream, mut reader) = connect();
    for algo in ["pagerank", "ppr"] {
        for damping in ["0", "0.0", "1", "1.0"] {
            let line =
                format!("{{\"cmd\":\"submit\",\"algo\":\"{algo}\",\"damping\":{damping}}}\n");
            stream.write_all(line.as_bytes()).unwrap();
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            assert!(
                answer.contains("\"ok\":false") && answer.contains("damping"),
                "{line:?} answered {answer:?}"
            );
        }
    }
    let mut client = Client::connect_unix(abuse_socket()).unwrap();
    let spec = JobSpec { kind: AlgoKind::Ppr, damping: 0.85, root: 3, max_iters: 5 };
    let report = client.run(&spec).unwrap();
    assert_eq!((report.name.as_str(), report.iterations), ("PPR", 5));
}

proptest! {
    #[test]
    fn daemon_survives_arbitrary_garbage_frames(
        bytes in collection::vec(0u8..255, 0..1024),
        disconnect in any::<bool>(),
    ) {
        let (mut stream, mut reader) = connect();
        if disconnect {
            // A truncated frame: raw bytes, no terminator, peer gone.
            // The daemon must simply drop the fragment.
            stream.write_all(&bytes).unwrap();
            drop(stream);
            drop(reader);
            // Liveness probe on a fresh connection.
            let (mut probe, mut probe_reader) = connect();
            probe.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
            let mut line = String::new();
            probe_reader.read_line(&mut line).unwrap();
            prop_assert!(line.contains("\"pong\":true"), "daemon wedged after disconnect: {line:?}");
        } else {
            // Garbage frame(s) — embedded b'\n' splits it into several,
            // each of which must be answered or (if a trailing fragment)
            // absorbed — then a valid ping on the SAME connection.
            stream.write_all(&bytes).unwrap();
            stream.write_all(b"\n{\"cmd\":\"ping\"}\n").unwrap();
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line).unwrap();
                prop_assert!(n > 0, "daemon closed the connection on garbage instead of answering");
                if line.contains("\"pong\":true") {
                    break;
                }
                // Every non-pong answer is a well-formed error line,
                // not echoed garbage.
                prop_assert!(
                    line.contains("\"ok\":false"),
                    "expected a typed error line, got {line:?}"
                );
            }
        }
    }
}
