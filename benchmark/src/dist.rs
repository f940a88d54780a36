//! `wordfreq_dist`: the built-in `wordfreq` job of `seep-node`, run as a
//! coordinator and two workers — three OS processes over loopback TCP.
//!
//! The only workload where wire encoding, framing, TCP and the node control
//! protocol are on the path. It is driven through the `seep-node` command
//! line alone. Throughput comes from the coordinator's wall time. Round
//! boundaries, for the latencies, are observed from outside: the
//! coordinator takes the same number of checkpoints at the end of every
//! round, and its `/metrics` endpoint is polled for the count.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::proc::{NodeChild, ScratchDir};
use crate::report::Report;
use crate::runstats::{self, Counters};
use crate::spec::RunArgs;
use crate::trace::Tracer;

/// Source tuples per round. The feed is a function of the round number
/// alone, so `--seed` has nothing to vary here.
pub const RATE: u64 = 10_000;
const POLL: Duration = Duration::from_millis(5);
const ROUNDS_PER_EPOCH: usize = 4;
/// How long an observed coordinator keeps its scrape endpoint up after the
/// last round, so that the final counts are seen. A plain wait; it is taken
/// off the coordinator's wall time again.
const HOLD: Duration = Duration::from_millis(100);
/// Idle clusters brought up and down to time set-up (175 ms each, and steady).
const CLUSTER_SETUPS: usize = 5;
/// Generous limit for anything that should take milliseconds.
const PATIENCE: Duration = Duration::from_secs(20);

/// One GET of the coordinator's scrape endpoint.
pub fn scrape(addr: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response.split_once("\r\n\r\n")?.1.to_string())
}

/// Sum of every sample of metric family `name` in a Prometheus text body.
pub fn family_sum(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn wait_for_file(path: &Path) -> Result<String, String> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.trim().is_empty() {
                return Ok(text.trim().to_string());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("{} was never written", path.display()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one cluster run measured.
pub struct ClusterRun {
    /// Coordinator spawn → coordinator exit, without the [`HOLD`].
    pub wall: Duration,
    /// Coordinator spawn → both workers spawned.
    pub spawn: Duration,
    /// Wall time of each round but the first (whose start cannot be seen
    /// from outside), in ms. Empty when the run was not observed.
    pub round_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Most tuples queued at the operators in any one scrape.
    pub queued_max: f64,
    /// The last `/metrics` body seen: the counts at the end of the run.
    pub last_scrape: String,
    pub unclean_worker_exits: u64,
    /// The coordinator's `--out` file.
    pub output: String,
}

impl ClusterRun {
    pub fn transport_bytes(&self) -> f64 {
        family_sum(&self.last_scrape, "seep_transport_bytes_total")
    }

    pub fn checkpoints(&self) -> f64 {
        family_sum(&self.last_scrape, CHECKPOINTS)
    }

    /// The cluster's counters as its coordinator's scrape endpoint shows
    /// them; a family it does not expose sums to zero, and store syncs and
    /// compactions have no family.
    pub fn counters(&self) -> Counters {
        let family = |name: &str| family_sum(&self.last_scrape, name) as u64;
        let micros = |name: &str| (family_sum(&self.last_scrape, name) * 1e6) as u64;
        Counters {
            processed: family("seep_processed_tuples_total"),
            checkpoints: family(CHECKPOINTS),
            store_puts: family("seep_store_writes_total"),
            store_bytes_written: family("seep_store_write_bytes_total"),
            store_write_us: micros("seep_store_write_seconds_total"),
            store_restores: family("seep_store_restores_total"),
            store_bytes_restored: family("seep_store_restore_bytes_total"),
            store_restore_us: micros("seep_store_restore_seconds_total"),
            pool_hits: family("seep_pool_hits_total"),
            pool_misses: family("seep_pool_misses_total"),
            ..Default::default()
        }
    }
}

const CHECKPOINTS: &str = "seep_checkpoints_total";

/// When each of `rounds` rounds ended, from the changes of the checkpoint
/// counter that were seen. The coordinator takes `final count ÷ rounds`
/// checkpoints per round, one after the other; round `k` has ended at the
/// first sighting of `k` times as many, so a poll that lands between two
/// checkpoints of one round adds no boundary.
fn round_ends(sightings: &[(Instant, u64)], rounds: u64) -> Result<Vec<Instant>, String> {
    let total = sightings.last().map_or(0, |s| s.1);
    if rounds == 0 || total == 0 || !total.is_multiple_of(rounds) {
        return Err(format!(
            "{total} checkpoints seen on /metrics do not divide into {rounds} rounds"
        ));
    }
    let per_round = total / rounds;
    Ok((1..=rounds)
        .map(|k| {
            sightings
                .iter()
                .find(|s| s.1 >= k * per_round)
                .expect("the last sighting holds the total")
                .0
        })
        .collect())
}

/// Run a coordinator and two workers to completion. Every process is
/// reaped before this returns, whichever way it returns.
pub fn run_cluster(
    node_bin: &Path,
    dir: &Path,
    rounds: u64,
    rate: u64,
    observe: bool,
    tracer: &mut Tracer,
) -> Result<ClusterRun, String> {
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (port_file, metrics_file, out_file) = (file("port"), file("metrics-port"), file("out"));
    for stale in [&port_file, &metrics_file, &out_file] {
        let _ = std::fs::remove_file(stale);
    }
    let io = |e: std::io::Error| format!("seep-node: {e}");

    let started = Instant::now();
    let open = tracer.enter("spawn");
    let (rounds_arg, rate_arg) = (rounds.to_string(), rate.to_string());
    let hold_arg = HOLD.as_millis().to_string();
    let mut coordinator_args = vec![
        "--coordinator",
        "--workers",
        "2",
        "--rounds",
        &rounds_arg,
        "--rate",
        &rate_arg,
        "--port-file",
        &port_file,
        "--out",
        &out_file,
    ];
    if observe {
        coordinator_args.extend([
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-port-file",
            &metrics_file,
            "--hold-ms",
            &hold_arg,
        ]);
    }
    let mut coordinator = NodeChild::spawn(node_bin, &coordinator_args).map_err(io)?;
    let addr = wait_for_file(Path::new(&port_file))?;
    let mut workers = Vec::new();
    for name in ["w1", "w2"] {
        let args = ["--worker", "--name", name, "--coordinator-addr", &addr];
        workers.push(NodeChild::spawn(node_bin, &args).map_err(io)?);
    }
    let spawn = tracer.exit(open);

    let open = tracer.enter("rounds");
    let metrics_addr = if observe {
        Some(wait_for_file(Path::new(&metrics_file))?)
    } else {
        None
    };
    let mut sightings: Vec<(Instant, u64)> = Vec::new();
    let mut last_scrape = String::new();
    let mut queued_max = 0.0f64;
    let mut polls = 0u64;
    let ok = loop {
        if let Some(ok) = coordinator.poll_exit().map_err(io)? {
            break ok;
        }
        if let Some(body) = metrics_addr.as_deref().and_then(scrape) {
            let seen = family_sum(&body, CHECKPOINTS) as u64;
            if seen > sightings.last().map_or(0, |s| s.1) {
                sightings.push((Instant::now(), seen));
            }
            queued_max = queued_max.max(family_sum(&body, "seep_operator_queued_tuples"));
            last_scrape = body;
        }
        if polls.is_multiple_of(16) {
            coordinator.sample_rss();
            workers.iter_mut().for_each(NodeChild::sample_rss);
        }
        polls += 1;
        if started.elapsed() > PATIENCE * 6 {
            return Err("the coordinator did not finish".into());
        }
        std::thread::sleep(POLL);
    };
    let wall = started.elapsed() - if observe { HOLD } else { Duration::ZERO };
    tracer.exit(open);
    if !ok {
        return Err("the coordinator exited with a failure".into());
    }

    // The coordinator tells its workers to shut down as it exits; one that
    // is still there shortly after has outlived the run. A worker that saw
    // the coordinator's socket close before it read the shutdown message
    // exits with an error status: counted, but not a failed run.
    let open = tracer.enter("reap");
    let mut unclean_worker_exits = 0;
    for worker in &mut workers {
        match worker.wait_exit(Duration::from_secs(5)).map_err(io)? {
            Some(true) => {}
            Some(false) => unclean_worker_exits += 1,
            None => return Err("a worker outlived the coordinator".into()),
        }
    }
    tracer.exit(open);

    let round_ms = if observe && rounds > 0 {
        round_ends(&sightings, rounds)?
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect()
    } else {
        Vec::new()
    };
    let peak_rss_mb = workers
        .iter()
        .map(|w| w.peak_rss_mb)
        .fold(coordinator.peak_rss_mb, f64::max);
    let output = std::fs::read_to_string(&out_file).map_err(io)?;
    Ok(ClusterRun {
        wall,
        spawn,
        round_ms,
        peak_rss_mb,
        queued_max,
        last_scrape,
        unclean_worker_exits,
        output,
    })
}

/// `seep-node --baseline`: the same job in one process. Returns its output
/// and how long the process ran.
pub fn run_baseline(
    node_bin: &Path,
    dir: &Path,
    rounds: u64,
    rate: u64,
) -> Result<(String, Duration), String> {
    let out_file = dir.join("baseline").to_string_lossy().into_owned();
    let started = Instant::now();
    let mut child = NodeChild::spawn(
        node_bin,
        &[
            "--baseline",
            "--rounds",
            &rounds.to_string(),
            "--rate",
            &rate.to_string(),
            "--out",
            &out_file,
        ],
    )
    .map_err(|e| format!("seep-node: {e}"))?;
    match child.wait_exit(PATIENCE * 3) {
        Ok(Some(true)) => {}
        other => return Err(format!("seep-node --baseline did not succeed: {other:?}")),
    }
    let wall = started.elapsed();
    let output = std::fs::read_to_string(&out_file).map_err(|e| format!("baseline output: {e}"))?;
    Ok((output, wall))
}

/// Lines that differ between two renderings, position by position.
fn differing_lines(a: &str, b: &str) -> u64 {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let common = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    (common + a.len().abs_diff(b.len())) as u64
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = ScratchDir::create(&args.out_dir, &args.workload).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(false);
    // One round more than the window has seconds (a round takes about one):
    // the first round's start cannot be seen, so it is not timed.
    let (rounds, rate) = if args.quick {
        (2, RATE / 10)
    } else {
        ((args.seconds.round() as u64).max(4) + 1, RATE)
    };

    // Set-up: what it costs to bring a cluster up and down again with no
    // work to do.
    report.time_setups(args, CLUSTER_SETUPS, || {
        run_cluster(&args.node_bin, dir.path(), 0, rate, false, &mut tracer).map(|_| ())
    })?;

    let mut tracer = Tracer::new(args.trace);
    tracer.set_epoch(1);
    let open = tracer.enter("epoch");
    let cluster = run_cluster(&args.node_bin, dir.path(), rounds, rate, true, &mut tracer)?;
    tracer.exit(open);

    let tuples = (rounds * rate) as f64;
    report.put(
        "throughput_tuples_per_s",
        tuples / cluster.wall.as_secs_f64(),
        "tuples/s",
    );
    report.put_median("latency_p50_ms", &cluster.round_ms, "ms");
    // Whole groups only; a quick run is too short for one.
    let mut peaks: Vec<f64> = cluster
        .round_ms
        .chunks_exact(ROUNDS_PER_EPOCH)
        .map(|epoch| epoch.iter().copied().fold(0.0, f64::max))
        .collect();
    if peaks.is_empty() {
        peaks.push(cluster.round_ms.iter().copied().fold(0.0, f64::max));
    }
    report.put_median("latency_ckpt_peak_ms", &peaks, "ms");
    report.put("peak_rss_mb", cluster.peak_rss_mb, "MB");
    report.put("wall_s", cluster.wall.as_secs_f64(), "s");
    report.put("spawn_ms", cluster.spawn.as_secs_f64() * 1e3, "ms");

    // The oracle: byte-identical to the same job run in one process.
    let (expected, baseline_wall) = run_baseline(&args.node_bin, dir.path(), rounds, rate)?;
    report.attempted = rounds * rate;
    report.failed = differing_lines(&cluster.output, &expected);
    report.put("oracle.differing_lines", report.failed as f64, "count");
    report.put(
        "oracle.result_lines",
        expected.lines().count() as f64,
        "count",
    );

    report.put("run.baseline_s", baseline_wall.as_secs_f64(), "s");
    report.put(
        "run.transport_bytes_per_tuple",
        cluster.transport_bytes() / tuples,
        "bytes",
    );
    report.put(
        "run.unclean_worker_exits",
        cluster.unclean_worker_exits as f64,
        "count",
    );
    runstats::put_counters(
        &mut report,
        &Counters::default(),
        &cluster.counters(),
        cluster.wall.as_secs_f64(),
    );
    report.put("runtime.backlog_max_tuples", cluster.queued_max, "count");
    report.put(
        "driver.timed_epochs",
        cluster.round_ms.len() as f64,
        "count",
    );
    let (first, last) = (
        cluster.round_ms[0],
        cluster.round_ms[cluster.round_ms.len() - 1],
    );
    report.put("driver.epoch_drift_pct", (last / first - 1.0) * 100.0, "%");
    if args.trace {
        crate::write_trace(args, tracer.spans());
        runstats::put_span_shares(&mut report, tracer.spans());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_sum_adds_labelled_samples_and_ignores_neighbours() {
        let body = "# HELP seep_checkpoints_total Checkpoints taken.\n\
                    seep_checkpoints_total 12\n\
                    seep_checkpoints_total_extra 99\n\
                    seep_transport_bytes_total{peer=\"a\",direction=\"out\"} 100\n\
                    seep_transport_bytes_total{peer=\"b\",direction=\"in\"} 50.5\n";
        assert_eq!(family_sum(body, "seep_checkpoints_total"), 12.0);
        assert_eq!(family_sum(body, "seep_transport_bytes_total"), 150.5);
        assert_eq!(family_sum(body, "absent"), 0.0);
    }

    #[test]
    fn a_round_ends_when_all_its_checkpoints_are_in() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two checkpoints a round; the second round was sighted half done.
        let sightings = [(at(10), 2), (at(20), 3), (at(25), 4), (at(40), 6)];
        assert_eq!(round_ends(&sightings, 3).unwrap(), [at(10), at(25), at(40)]);
        // The final count was missed, or nothing was seen at all.
        assert!(round_ends(&sightings[..2], 2).is_err());
        assert!(round_ends(&[], 3).is_err());
    }

    #[test]
    fn differing_lines_counts_changes_and_length_difference() {
        assert_eq!(differing_lines("a\nb\n", "a\nb\n"), 0);
        assert_eq!(differing_lines("a\nb\n", "a\nc\n"), 1);
        assert_eq!(differing_lines("a\nb\nc\n", "a\n"), 2);
    }
}
