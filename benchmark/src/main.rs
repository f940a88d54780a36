//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! seep-benchmark run --workload W --seed N --seconds S --trace 0|1
//! seep-benchmark all [--seed N] [--seconds S] [--trace]
//! seep-benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! `run` executes one workload in this process, on this thread, prints every
//! number it measured as `name value unit` and ends with the result line; a
//! traced run goes on to the probe suite. `all` and `selfcheck` run each
//! workload in a child process of its own; `all --trace` runs the traced
//! children as `spans` — a traced `run` without the probe suite — and the
//! suite once, after them.

mod dist;
mod inputs;
mod jobs;
mod lrb;
mod probes;
mod proc;
mod report;
mod runstats;
mod sched;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod wordfreq;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use spec::{RunArgs, PER_LAYER, WORKLOADS};

/// Length of the timed window when `--seconds` is not given; the value
/// `BENCHMARK.json` records as `run_seconds`.
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "\
usage: seep-benchmark <run|all|selfcheck> [--workload NAME] [--seed N]
                      [--seconds S] [--trace [0|1]] [--quick]
                      [--out-dir DIR] [--node-bin PATH]";

struct Cli {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
    node_bin: PathBuf,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let mut cli = Cli {
        mode: argv.first().cloned().ok_or("a mode is required")?,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        // `run.sh` builds both executables into the same directory.
        node_bin: exe_dir.join("seep-node"),
    };
    let mut i = 1;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => cli.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
                cli.seconds = Some(seconds);
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i, flag)?),
            "--node-bin" => cli.node_bin = PathBuf::from(value(&mut i, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

/// Write the spans of a traced run to `<out-dir>/trace.<workload>.json`.
pub fn write_trace(args: &RunArgs, spans: &[trace::Span]) {
    let path = args.out_dir.join(format!("trace.{}.json", args.workload));
    let json = trace::to_json(&args.workload, args.seed, spans);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

/// Run one workload in this process, with spans if `args.trace`, and
/// return what it measured.
pub fn run_workload(args: &RunArgs) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    Ok(match args.workload.as_str() {
        "lrb_paced" => lrb::run(args),
        "wordfreq_dist" => dist::run(args)?,
        name => match wordfreq::Kind::from_workload(name) {
            Some(kind) => wordfreq::run(kind, args),
            None => return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}")),
        },
    })
}

impl Cli {
    fn run_args(&self, workload: &str, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self
                .seconds
                .unwrap_or(if self.quick { 1.0 } else { DEFAULT_SECONDS }),
            trace,
            quick: self.quick,
            out_dir: self.out_dir.clone(),
            node_bin: self.node_bin.clone(),
        }
    }
}

/// `run`: one workload, then (traced) the probe suite, then the result
/// line. `spans`: a traced workload alone, for `all`, which runs the suite
/// itself; without the suite there is no result line to print.
fn run_mode(cli: &Cli, spans_only: bool) -> Result<ExitCode, String> {
    let workload = cli.workload.as_deref().ok_or("run needs --workload")?;
    let args = cli.run_args(workload, cli.trace || spans_only);
    let mut report = run_workload(&args)?;
    if args.trace && !spans_only {
        probes::run_all(&args, &mut report)?;
    }
    let label = if args.quick { "quick " } else { "" };
    println!(
        "# {label}{} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", report.lines());
    if !spans_only {
        let declared: Vec<spec::Declared> = if args.trace {
            PER_LAYER.to_vec()
        } else {
            spec::end_to_end_declared().to_vec()
        };
        println!("{}", report.result_json(&declared)?);
    }
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: the result check failed ({} of {} wrong)",
            args.workload, report.failed, report.attempted
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|cli| match cli.mode.as_str() {
        "run" => run_mode(&cli, false),
        "spans" => run_mode(&cli, true),
        "all" => selfcheck::run_all_mode(&cli),
        "selfcheck" => selfcheck::selfcheck_mode(&cli),
        other => Err(format!("unknown mode {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("seep-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn quick(workload: &str, trace: bool) -> RunArgs {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
        RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.3,
            trace,
            quick: true,
            out_dir: std::env::temp_dir().join(format!(
                "seep-benchmark-quick-{}-{workload}-{}",
                std::process::id(),
                u8::from(trace)
            )),
            node_bin: target.join("release").join("seep-node"),
        }
    }

    fn assert_reports(report: &Report, declared: &[spec::Declared]) {
        assert_eq!(report.failed, 0, "the result check must pass");
        assert!(report.attempted > 0);
        report
            .result_json(declared)
            .expect("every declared metric is reported, in its unit");
    }

    /// Every in-process workload, end to end, at a tenth of its size.
    #[test]
    fn quick_mode_drives_every_in_process_workload() {
        let end_to_end = spec::end_to_end_declared();
        for workload in WORKLOADS.iter().filter(|w| **w != "wordfreq_dist") {
            let args = quick(workload, false);
            let started = std::time::Instant::now();
            let report = run_workload(&args).expect("workload runs");
            assert_reports(&report, &end_to_end);
            for metric in END_TO_END {
                assert!(
                    report.get(metric.name).unwrap() > 0.0,
                    "{workload}: {} must not be zero",
                    metric.name
                );
            }
            // Debug builds are several times slower than what is measured.
            if !cfg!(debug_assertions) {
                assert!(
                    started.elapsed().as_secs_f64() < 2.0,
                    "{workload}: a quick run must stay under two seconds"
                );
            }
            let _ = std::fs::remove_dir_all(&args.out_dir);
        }
    }

    /// A traced run, the probe suite and the distributed workload need the
    /// `seep-node` executable, which `run.sh` builds; without it this test
    /// has nothing to drive.
    #[test]
    fn quick_mode_drives_the_traced_and_distributed_runs() {
        let args = quick("wordfreq_dist", false);
        if !args.node_bin.is_file() {
            eprintln!("skipped: {} is not built", args.node_bin.display());
            return;
        }
        let report = run_workload(&args).expect("distributed workload runs");
        assert_reports(&report, &spec::end_to_end_declared());
        let _ = std::fs::remove_dir_all(&args.out_dir);

        let args = quick("wordfreq_recovery", true);
        let mut report = run_workload(&args).expect("traced workload runs");
        probes::run_all(&args, &mut report).expect("probe suite runs");
        assert_reports(&report, &PER_LAYER);
        assert!(
            report.get("driver.self_share").unwrap() <= 5.0,
            "the spans must cover the timed window"
        );
        let trace = std::fs::read_to_string(args.out_dir.join("trace.wordfreq_recovery.json"))
            .expect("the trace file is written");
        assert!(trace.contains("\"name\":\"recovery\""));
        let left: Vec<_> = std::fs::read_dir(&args.out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tmp-"))
            .collect();
        assert!(left.is_empty(), "scratch directories left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&args.out_dir);
    }

    /// `BENCHMARK.json` and `spec.rs` declare the same names and units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for workload in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{workload}\",\"why\":")),
                "workload {workload} is not in BENCHMARK.json"
            );
        }
        for metric in END_TO_END {
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                metric.name, metric.unit, metric.bound
            );
            assert!(compact.contains(&entry), "{entry} is not in BENCHMARK.json");
        }
        for metric in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":",
                metric.name, metric.unit
            );
            assert!(compact.contains(&entry), "{entry} is not in BENCHMARK.json");
        }
        let declared = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(
            compact.matches("{\"name\":").count(),
            declared,
            "BENCHMARK.json declares something spec.rs does not"
        );
        assert!(compact.contains(&format!("\"run_seconds\":{DEFAULT_SECONDS}")));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse(&argv("run --trace --seed 4")).unwrap().trace);
        assert!(parse(&argv("run --trace 1")).unwrap().trace);
        assert!(!parse(&argv("run --seed 4 --trace 0")).unwrap().trace);
        assert_eq!(parse(&argv("run --trace --seed 4")).unwrap().seed, 4);
        assert!(parse(&argv("run --seconds 0")).is_err());
        assert!(parse(&argv("run --bogus")).is_err());
    }
}
