//! The daemon's transport: a request or response line is one `write`
//! with `TCP_NODELAY` on both ends, so a TCP round trip costs
//! microseconds rather than a delayed ACK; and a `shutdown` is always
//! acknowledged before the daemon process exits.

use graphm_graph::generators;
use graphm_server::{Client, Server, ServerConfig};
use graphm_store::Convert;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A converted 64-vertex store under a fresh temp directory.
fn tiny_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphm-transport-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = generators::rmat(64, 256, generators::RmatParams::GRAPH500, 3);
    Convert::grid(2).write(&graph, &dir).unwrap();
    dir
}

#[test]
fn fifty_tcp_pings_take_microseconds_each() {
    let dir = tiny_store("ping");
    let mut config = ServerConfig::new(&dir);
    config.tcp_addr = Some("127.0.0.1:0".to_string());
    let server = Server::start(config).unwrap();
    let mut client = Client::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    client.ping().unwrap(); // connection warm-up
    let started = Instant::now();
    for _ in 0..50 {
        client.ping().unwrap();
    }
    let elapsed = started.elapsed();
    // A line written in two pieces waits out the peer's delayed ACK
    // (≈ 40–90 ms a round trip); fifty of those take seconds.
    assert!(elapsed < Duration::from_millis(250), "50 TCP pings took {elapsed:?}");
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the child if the test fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits for the daemon at `socket` to answer `health`.
fn wait_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !Client::connect_unix(socket).is_ok_and(|mut c| c.health().is_ok()) {
        assert!(Instant::now() < deadline, "daemon at {} never became ready", socket.display());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shutdown_is_acknowledged_before_the_process_exits() {
    let dir = tiny_store("shutdown");
    let socket = dir.join("d.sock");
    for round in 0..20 {
        let mut daemon = Daemon(
            Command::new(env!("CARGO_BIN_EXE_graphm-server"))
                .arg("--store")
                .arg(&dir)
                .arg("--socket")
                .arg(&socket)
                .stderr(Stdio::null())
                .spawn()
                .unwrap(),
        );
        wait_ready(&socket);
        let out = Command::new(env!("CARGO_BIN_EXE_graphm-client"))
            .arg("--socket")
            .arg(&socket)
            .arg("shutdown")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains(r#""shutting_down":true"#),
            "round {round}: shutdown exited {:?}, stdout {stdout:?}, stderr {:?}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(daemon.0.wait().unwrap().success(), "round {round}: the daemon failed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
