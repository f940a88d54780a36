//! The life of a cluster around the rounds: coming up and going down with
//! no work to do, staying up through a command that takes longer than the
//! heartbeat timeout, and what the coordinator tells `/metrics` about where
//! a round's time goes.

mod util;

use std::fs;
use std::time::Duration;

use util::{baseline, metric_value, scratch, spawn, wait_for_file, wait_for_metric};

/// Twenty idle clusters up and down: every process exits 0 every time. The
/// coordinator reads each worker's `Ack` of `Shutdown` before its sockets
/// close, so no worker finds its connection reset under an unread command.
#[test]
fn idle_clusters_shut_down_cleanly() {
    let dir = scratch("idle-clusters");
    let port_file = dir.join("port.txt");
    for cluster in 0..20 {
        let _ = fs::remove_file(&port_file);
        let mut coordinator = spawn(&[
            "--coordinator",
            "--workers",
            "2",
            "--rounds",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
        ]);
        let addr = wait_for_file(&port_file, Duration::from_secs(20));
        let mut workers = [
            spawn(&["--worker", "--name", "w1", "--coordinator-addr", &addr]),
            spawn(&["--worker", "--name", "w2", "--coordinator-addr", &addr]),
        ];
        let status = coordinator.0.wait().expect("wait coordinator");
        assert!(
            status.success(),
            "cluster {cluster}: coordinator {status:?}"
        );
        for worker in &mut workers {
            let status = worker.0.wait().expect("wait worker");
            assert!(status.success(), "cluster {cluster}: worker {status:?}");
        }
    }
}

/// One `InjectMany` of 200 000 tuples keeps a worker's command loop busy for
/// longer than the heartbeat timeout allows silence (500 ms here). The
/// worker heartbeats from its own thread and its reply counts as a sign of
/// life, so the run completes — without a recovery — and matches the
/// baseline.
#[test]
fn a_long_command_is_not_a_dead_worker() {
    let dir = scratch("long-command");
    let port_file = dir.join("port.txt");
    let out_file = dir.join("dist.txt");
    let (rounds, rate) = (2, 200_000);
    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        &rounds.to_string(),
        "--rate",
        &rate.to_string(),
        "--heartbeat-timeout-ms",
        "500",
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
    assert_eq!(
        fs::read_to_string(&out_file).expect("distributed outcome"),
        baseline(rounds, rate),
        "distributed outcome differs from in-process baseline"
    );
}

/// The fixed cost of a round can be read off `/metrics`: wall time per
/// phase, commands sent per verb, and what the checkpoint store wrote.
#[test]
fn round_phases_and_commands_are_exported() {
    let dir = scratch("round-metrics");
    let port_file = dir.join("port.txt");
    let metrics_port_file = dir.join("mport.txt");
    let rounds = 4u64;
    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        &rounds.to_string(),
        "--rate",
        "50",
        "--port-file",
        port_file.to_str().unwrap(),
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

    // The last snapshot is published after the outcome is collected.
    let metrics_addr = wait_for_file(&metrics_port_file, Duration::from_secs(20));
    let collected = "seep_node_rpcs_total{verb=\"CollectState\"}";
    let body = wait_for_metric(
        &metrics_addr,
        "the final snapshot",
        Duration::from_secs(60),
        |body| metric_value(body, collected) == Some(1.0),
    );

    for phase in ["inject", "quiesce", "tick", "capture", "publish"] {
        let sample = format!("seep_node_round_phase_seconds_total{{phase=\"{phase}\"}}");
        let seconds = metric_value(&body, &sample);
        assert!(
            seconds.is_some_and(|s| s > 0.0 && s < 60.0),
            "{sample} = {seconds:?}"
        );
    }
    let sent = |verb: &str| {
        metric_value(&body, &format!("seep_node_rpcs_total{{verb=\"{verb}\"}}"))
            .unwrap_or_else(|| panic!("no seep_node_rpcs_total sample for {verb}"))
    };
    let rounds = rounds as f64;
    assert_eq!(sent("InjectMany"), rounds, "one injection a round");
    assert_eq!(sent("Tick"), 2.0 * rounds, "one tick per worker and round");
    assert_eq!(
        sent("Capture"),
        2.0 * rounds,
        "count and results, every round"
    );
    assert_eq!(sent("TrimBuffer"), 2.0 * rounds, "one upstream each");
    assert_eq!(sent("Deploy"), 2.0);
    // The checkpoint store the coordinator holds is exported like the
    // runtime's.
    let writes = util::family_sum(&body, "seep_store_writes_total");
    assert!(writes >= 2.0 * rounds, "{writes} store writes");
    // Two barriers a round, at least two waves each, two workers a wave.
    assert!(sent("Probe") >= 8.0 * rounds, "{} probes", sent("Probe"));

    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator exited with {status:?}");
}
