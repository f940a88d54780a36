//! Shared process-orchestration helpers for the distribution tests.
//!
//! Compiled once per test binary; not every binary uses every helper.
#![allow(dead_code)]

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Path to the compiled `seep-node` binary.
pub fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_seep-node")
}

/// A scratch directory unique to this test.
pub fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seep-node-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A child process that is SIGKILLed when the test ends, pass or fail.
pub struct Proc(pub Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `seep-node` with `args`.
pub fn spawn(args: &[&str]) -> Proc {
    Proc(
        Command::new(bin())
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn seep-node"),
    )
}

/// Wait until `path` exists with non-empty contents and return them.
pub fn wait_for_file(path: &Path, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(s) = fs::read_to_string(path) {
            if !s.trim().is_empty() {
                return s.trim().to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Scrape `http://{addr}/metrics` with a raw TCP request (no HTTP client
/// dependency) and return the body, or `None` while the server is down.
pub fn scrape_metrics(addr: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let body = response.split_once("\r\n\r\n")?.1;
    Some(body.to_string())
}

/// Value of the first sample whose name (with labels) starts with `prefix`.
pub fn metric_value(body: &str, prefix: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Sum of every sample of metric family `name`.
pub fn family_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Poll `/metrics` until `pred` passes on a scraped body and return that
/// body; panics on timeout.
pub fn wait_for_metric(
    addr: &str,
    what: &str,
    timeout: Duration,
    pred: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(body) = scrape_metrics(addr) {
            if pred(&body) {
                return body;
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Run `seep-node --baseline` and return its rendered output.
pub fn baseline(rounds: u64, rate: u64) -> String {
    let out = Command::new(bin())
        .args([
            "--baseline",
            "--rounds",
            &rounds.to_string(),
            "--rate",
            &rate.to_string(),
        ])
        .output()
        .expect("run baseline");
    assert!(out.status.success(), "baseline run failed");
    String::from_utf8(out.stdout).expect("utf8 baseline output")
}
