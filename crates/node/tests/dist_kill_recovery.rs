//! `kill -9` a worker mid-run: the coordinator must detect the failure via
//! heartbeats, recover the lost instance from its last checkpoint through
//! the runtime's own recovery plan, journal the recovery, surface it on
//! `/metrics`, and still finish with sink results identical to a run that
//! never failed — whether the lost instance is the stateful operator or the
//! sink.

mod util;

use std::fs;
use std::time::Duration;

use seep_runtime::{Journal, JournalKind};
use util::{baseline, metric_value, scratch, spawn, wait_for_file, wait_for_metric};

/// Run `workers` (name-sorted: the round-robin placement puts `feed`,
/// `count` and `results` on them in that order), SIGKILL `victim` after two
/// checkpoints, and check that `operator` — the one instance it hosted
/// besides any the other workers also lost — was recovered.
fn kill_and_recover(test: &str, workers: &[&str], victim: &str, operator: &str) {
    let dir = scratch(test);
    let port_file = dir.join("port.txt");
    let metrics_port_file = dir.join("mport.txt");
    let out_file = dir.join("dist.txt");
    let journal_file = dir.join("journal.jsonl");

    let rounds = 20;
    let rate = 20;
    let mut coordinator = spawn(&[
        "--coordinator",
        "--workers",
        &workers.len().to_string(),
        "--rounds",
        &rounds.to_string(),
        "--rate",
        &rate.to_string(),
        "--round-delay-ms",
        "150",
        "--port-file",
        port_file.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "--metrics-addr",
        "127.0.0.1:0",
        "--metrics-port-file",
        metrics_port_file.to_str().unwrap(),
        "--journal",
        journal_file.to_str().unwrap(),
        "--hold-ms",
        "2000",
    ]);
    let addr = wait_for_file(&port_file, Duration::from_secs(20));

    let mut procs: Vec<_> = workers
        .iter()
        .map(|name| {
            let proc = spawn(&["--worker", "--name", name, "--coordinator-addr", &addr]);
            (*name, proc)
        })
        .collect();

    // Let the run take at least two checkpoints, then SIGKILL the victim.
    let metrics_addr = wait_for_file(&metrics_port_file, Duration::from_secs(20));
    let body = wait_for_metric(
        &metrics_addr,
        "two checkpoints",
        Duration::from_secs(60),
        |body| metric_value(body, "seep_checkpoints_total").unwrap_or(0.0) >= 2.0,
    );
    let running = metric_value(&body, "seep_vms_running").expect("VMs exported");
    assert_eq!(running, workers.len() as f64);
    let (_, victim_proc) = procs
        .iter_mut()
        .find(|(name, _)| *name == victim)
        .expect("victim is one of the workers");
    victim_proc.0.kill().expect("SIGKILL the victim");

    // The failure must surface as a recovery on /metrics — with its own
    // phase series, the lost worker no longer running, and transport
    // counters still exported for the survivors.
    wait_for_metric(
        &metrics_addr,
        "a recovery",
        Duration::from_secs(60),
        |body| {
            metric_value(body, "seep_recoveries_total").unwrap_or(0.0) >= 1.0
                && metric_value(body, "seep_reconfig_phase_seconds_total{kind=\"recovery\"")
                    .is_some()
                && metric_value(body, "seep_vms_running") == Some(running - 1.0)
                && metric_value(body, "seep_transport_bytes_total").is_some()
                && metric_value(body, "seep_journal_events_total").unwrap_or(0.0) >= 1.0
        },
    );

    let status = coordinator.0.wait().expect("wait coordinator");
    assert!(status.success(), "coordinator exited with {status:?}");

    // The recovery went through the standard journal, as a committed event,
    // and reports what the executor reports in-process: the plan released
    // no VM (the lost one is gone, not handed back).
    let events = Journal::replay_file(&journal_file).expect("replay journal");
    let recovery = events
        .iter()
        .find(|e| e.kind == JournalKind::Recovery)
        .expect("journal holds a recovery event");
    assert!(recovery.committed(), "recovery committed");
    assert_eq!(recovery.operator, operator);
    assert!(
        recovery.released_vms.is_empty(),
        "{:?}",
        recovery.released_vms
    );

    // Sink results are exactly those of a run that never lost a worker.
    // (Processed counters reset when an instance is replaced, so only the
    // `result` lines are compared.)
    let distributed: String = fs::read_to_string(&out_file)
        .expect("distributed outcome")
        .lines()
        .filter(|l| l.starts_with("result "))
        .map(|l| format!("{l}\n"))
        .collect();
    let expected: String = baseline(rounds, rate)
        .lines()
        .filter(|l| l.starts_with("result "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!distributed.is_empty(), "distributed run produced results");
    assert_eq!(
        distributed, expected,
        "post-recovery results differ from the never-killed baseline"
    );
}

/// Two workers: `count` runs alone on w2, which is killed.
#[test]
fn sigkilled_worker_recovers_with_identical_results() {
    kill_and_recover("kill-recovery", &["w1", "w2"], "w2", "count");
}

/// Three workers, one instance each: the sink's worker w3 is killed, and the
/// sink is recovered from the backup its upstream holds.
#[test]
fn sigkilled_sink_worker_recovers_with_identical_results() {
    kill_and_recover("kill-sink", &["w1", "w2", "w3"], "w3", "results");
}
