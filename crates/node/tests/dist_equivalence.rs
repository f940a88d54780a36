//! A job deployed across two OS processes over localhost TCP must produce
//! sink outputs and per-operator processed counts identical to the same job
//! run in-process.

mod util;

use std::fs;
use std::time::Duration;

use util::{baseline, family_sum, metric_value, scratch, spawn, wait_for_file, wait_for_metric};

#[test]
fn two_process_distribution_matches_in_process() {
    let dir = scratch("equivalence");
    let port_file = dir.join("port.txt");
    let out_file = dir.join("dist.txt");

    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        "6",
        "--rate",
        "25",
        "--port-file",
        port_file.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let addr = wait_for_file(&port_file, Duration::from_secs(20));

    let _w1 = spawn(&["--worker", "--name", "w1", "--coordinator-addr", &addr]);
    let _w2 = spawn(&["--worker", "--name", "w2", "--coordinator-addr", &addr]);

    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator exited with {status:?}");

    let distributed = fs::read_to_string(&out_file).expect("distributed outcome");
    let expected = baseline(6, 25);
    assert!(
        distributed.lines().count() > 6,
        "distributed run produced results"
    );
    assert_eq!(
        distributed, expected,
        "distributed outcome differs from in-process baseline"
    );
}

/// At 10 000 tuples a round the outcome is still byte-identical to the
/// baseline's, and the data plane ships batches: at least eight tuples to a
/// frame on average (`jobs::OUT_BATCH` is 64; only the last frame of a round
/// and the window results run short).
#[test]
fn ten_thousand_tuples_a_round_match_and_travel_in_batches() {
    let dir = scratch("equivalence-10k");
    let port_file = dir.join("port.txt");
    let metrics_port_file = dir.join("mport.txt");
    let out_file = dir.join("dist.txt");
    let (rounds, rate) = (3, 10_000);

    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        &rounds.to_string(),
        "--rate",
        &rate.to_string(),
        "--port-file",
        port_file.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "--metrics-addr",
        "127.0.0.1:0",
        "--metrics-port-file",
        metrics_port_file.to_str().unwrap(),
        "--hold-ms",
        "1500",
    ]);
    let addr = wait_for_file(&port_file, Duration::from_secs(20));
    let _w1 = spawn(&["--worker", "--name", "w1", "--coordinator-addr", &addr]);
    let _w2 = spawn(&["--worker", "--name", "w2", "--coordinator-addr", &addr]);

    // The snapshot published at the end of the last round holds the final
    // transport counters: nothing moves after the last capture.
    let metrics_addr = wait_for_file(&metrics_port_file, Duration::from_secs(20));
    let body = wait_for_metric(
        &metrics_addr,
        "the last round's checkpoints",
        Duration::from_secs(60),
        |body| metric_value(body, "seep_checkpoints_total") == Some(2.0 * rounds as f64),
    );
    let frames = family_sum(&body, "seep_transport_frames_total");
    let tuples = family_sum(&body, "seep_transport_tuples_total");
    // Both ends of every connection report: each tuple counts twice.
    assert!(tuples >= 2.0 * (rounds * rate) as f64, "{tuples} tuples");
    assert!(
        frames * 8.0 <= tuples,
        "{frames} frames for {tuples} tuples: the data plane is not batching"
    );

    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator exited with {status:?}");
    assert_eq!(
        fs::read_to_string(&out_file).expect("distributed outcome"),
        baseline(rounds, rate),
        "distributed outcome differs from in-process baseline"
    );
}

#[test]
fn duplicate_worker_name_is_rejected() {
    let dir = scratch("dup-name");
    let port_file = dir.join("port.txt");
    let out_file = dir.join("dist.txt");

    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        "2",
        "--rate",
        "10",
        "--port-file",
        port_file.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let addr = wait_for_file(&port_file, Duration::from_secs(20));

    let mut a = spawn(&["--worker", "--name", "w1", "--coordinator-addr", &addr]);
    let mut b = spawn(&["--worker", "--name", "w1", "--coordinator-addr", &addr]);

    // Exactly one of the two same-named workers is turned away with the
    // dedicated exit code; registration order over TCP is nondeterministic.
    let rejected_rc = loop {
        if let Some(st) = a.0.try_wait().expect("poll worker a") {
            break st.code();
        }
        if let Some(st) = b.0.try_wait().expect("poll worker b") {
            break st.code();
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(rejected_rc, Some(2), "duplicate name exits with code 2");

    // The cluster still forms once a distinct name arrives, and the run
    // completes normally.
    let _w2 = spawn(&["--worker", "--name", "w2", "--coordinator-addr", &addr]);
    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator exited with {status:?}");
    assert_eq!(
        fs::read_to_string(&out_file).expect("outcome"),
        baseline(2, 10)
    );
}
