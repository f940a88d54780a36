//! `all` and `selfcheck`: every workload in a child process of its own, one
//! after the other, and the comparison of two such sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{parse_lines, Report};
use crate::spec::{END_TO_END, PER_LAYER, PROBE_METRICS, WORKLOADS};
use crate::stats::median;
use crate::Cli;

/// Runs in each of the two sets `selfcheck` compares. Two single runs on a
/// shared machine can differ by 30 %; medians of three taken alternately
/// differ by what the code does.
const RUNS_PER_SET: usize = 3;

/// What one child run printed.
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run_child(cli: &Cli, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([if trace { "spans" } else { "run" }, "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .arg("--out-dir")
        .arg(&cli.out_dir)
        .arg("--node-bin")
        .arg(&cli.node_bin)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(seconds) = cli.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if cli.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    Ok(ChildRun {
        ok: output.status.success(),
        metrics: parse_lines(&text)
            .into_iter()
            .map(|(name, value, unit)| (name, (value, unit)))
            .collect(),
    })
}

fn json_object(
    metrics: &BTreeMap<String, (f64, String)>,
    declared: &[crate::spec::Declared],
) -> String {
    let mut out = String::from("{");
    for (i, d) in declared.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = metrics.get(d.name).map_or(f64::NAN, |m| m.0);
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            },
            d.unit
        );
    }
    out.push('}');
    out
}

/// `all`: the untraced set and (with `--trace`) the traced set, each
/// workload in a child process of its own; then the probe suite, once; then
/// one JSON document holding everything.
pub fn run_all_mode(cli: &Cli) -> Result<ExitCode, String> {
    let (probed, own_run) = PER_LAYER.split_at(PROBE_METRICS);
    let mut all_ok = true;
    let mut document = String::from("{\"workloads\": {");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let untraced = run_child(cli, workload, false)?;
        all_ok &= untraced.ok;
        if i > 0 {
            document.push_str(", ");
        }
        let _ = write!(
            document,
            "\"{workload}\": {{\"correct\": {}, \"end_to_end\": {}",
            untraced.ok,
            json_object(&untraced.metrics, &crate::spec::end_to_end_declared())
        );
        if cli.trace {
            let traced = run_child(cli, workload, true)?;
            all_ok &= traced.ok;
            // What tracing cost, on the two metrics a span could slow down.
            for (name, sign) in [("throughput_tuples_per_s", -1.0), ("latency_p50_ms", 1.0)] {
                if let (Some(plain), Some(spans)) =
                    (untraced.metrics.get(name), traced.metrics.get(name))
                {
                    println!(
                        "driver.trace_overhead_pct.{workload}.{name} {} %",
                        sign * (spans.0 / plain.0 - 1.0) * 100.0
                    );
                }
            }
            let _ = write!(
                document,
                ", \"per_layer\": {}",
                json_object(&traced.metrics, own_run)
            );
        }
        document.push('}');
    }
    document.push('}');
    if cli.trace {
        let mut report = Report::default();
        crate::probes::run_all(&cli.run_args("probes", true), &mut report)?;
        println!("# probe suite seed {}", cli.seed);
        print!("{}", report.lines());
        let metrics = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), (m.value, m.unit.to_string())))
            .collect();
        let _ = write!(document, ", \"probes\": {}", json_object(&metrics, probed));
    }
    document.push('}');
    println!("{document}");
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Counts that two runs of the same code must agree on exactly.
fn must_repeat(name: &str) -> bool {
    name.starts_with("runtime.processed.") || name == "store.puts" || name == "store.bytes_written"
}

/// `selfcheck`: two sets of [`RUNS_PER_SET`] untraced runs of every
/// workload, taken alternately so that the machine's wander hits both alike.
/// The medians of the two sets may differ, either way, by at most the
/// metric's bound (or its absolute floor, if that is more), and the counts
/// must be equal in every run.
pub fn selfcheck_mode(cli: &Cli) -> Result<ExitCode, String> {
    let mut failures = Vec::new();
    let mut table = String::new();
    for workload in WORKLOADS {
        let mut sets: [Vec<ChildRun>; 2] = Default::default();
        for _ in 0..RUNS_PER_SET {
            for set in &mut sets {
                set.push(run_child(cli, workload, false)?);
            }
        }
        if sets.iter().flatten().any(|run| !run.ok) {
            failures.push(format!("{workload}: a run failed its result check"));
        }
        let values = |set: &[ChildRun], name: &str| -> Vec<f64> {
            set.iter()
                .filter_map(|run| run.metrics.get(name))
                .map(|m| m.0)
                .collect()
        };
        for metric in END_TO_END {
            let (first, second) = (values(&sets[0], metric.name), values(&sets[1], metric.name));
            if first.len() < RUNS_PER_SET || second.len() < RUNS_PER_SET {
                failures.push(format!("{workload}: {} was not reported", metric.name));
                continue;
            }
            let (a, b) = (median(&first), median(&second));
            let verdict = if metric.differs(a, b) {
                failures.push(format!(
                    "{workload}: {} differs by {:.1}%",
                    metric.name,
                    (b / a - 1.0).abs() * 100.0
                ));
                "EXCEEDS"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "selfcheck {workload} {} {a} {b} {:+.2}% (bound {}) {verdict}",
                metric.name,
                (b / a - 1.0) * 100.0,
                metric.bound_text()
            );
        }
        let reference = &sets[0][0];
        for (name, a) in reference.metrics.iter().filter(|(n, _)| must_repeat(n)) {
            // The paced job checkpoints by the wall clock, so what its
            // store is handed differs from run to run.
            if workload == "lrb_paced" && name.starts_with("store.") {
                continue;
            }
            for run in sets.iter().flatten() {
                let b = run.metrics.get(name).map(|m| m.0);
                if b != Some(a.0) {
                    failures.push(format!("{workload}: {name} was {} then {b:?}", a.0));
                    break;
                }
            }
        }
    }
    print!("{table}");
    for failure in &failures {
        println!("selfcheck FAILED {failure}");
    }
    Ok(if failures.is_empty() {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
