//! Elasticity experiment: the LRB pipeline under a trapezoid load profile
//! (ramp up → plateau → ramp down → idle tail), with the bidirectional
//! scaling policy merging under-utilised partitions and releasing their VMs
//! on the falling edge. Prints the VM count and accrued cost over time and
//! compares against the same run without scale in and against a static
//! peak-sized deployment — the pay-as-you-go argument of the paper made
//! concrete in both directions.
//!
//! A second section drives the **threaded runtime** (real operators,
//! serialising channels, checkpoints) through the same trapezoid shape with
//! auto-scaling in both directions, and reports the wall-clock cost of each
//! reconfiguration from the plan executor's per-phase timings — the measured
//! counterpart to the simulator's disruption model.
//!
//! A third section (`--consolidate`) compares scale-in-by-merge against
//! scale-in-by-**consolidation** on two-slot VMs: under-utilised partitions
//! are packed onto shared VMs (first-fit-decreasing) and the emptied VMs
//! released, keeping parallelism. The threaded runtime demo reports the
//! billing effect directly: VM-seconds per virtual hour before and after the
//! packing.
//!
//! Run with: `cargo run --release -p seep-bench --bin elasticity`
//! (`--smoke` for a seconds-long CI-sized run, `--consolidate` for the
//! consolidation arm).

use seep_bench::print_table;
use seep_bench::runtime_experiments::{
    runtime_consolidate, runtime_elasticity, RuntimeElasticityResult,
};
use seep_bench::sim_experiments::{elasticity, elasticity_with, ElasticityResult};
use seep_sim::ScalingPolicy;

/// Headline numbers of the simulator arm, for `BENCH_elasticity.json`.
#[derive(serde::Serialize)]
struct SimHeadline {
    scale_outs: usize,
    scale_ins: usize,
    peak_vms: usize,
    final_vms: usize,
    vm_seconds: f64,
    total_cost: f64,
    static_peak_cost: f64,
    savings_vs_static_pct: f64,
    savings_vs_no_scale_in_pct: f64,
}

/// The machine-readable result the bin writes next to its tables, so the
/// perf trajectory of elasticity runs can be tracked across commits.
#[derive(serde::Serialize)]
struct BenchReport {
    smoke: bool,
    sim: SimHeadline,
    runtime: RuntimeElasticityResult,
}

fn write_report(
    smoke: bool,
    elastic: &ElasticityResult,
    rigid: &ElasticityResult,
    run: &RuntimeElasticityResult,
) {
    let report = BenchReport {
        smoke,
        sim: SimHeadline {
            scale_outs: elastic.scale_outs,
            scale_ins: elastic.scale_ins,
            peak_vms: elastic.peak_vms,
            final_vms: elastic.final_vms,
            vm_seconds: elastic.vm_seconds,
            total_cost: elastic.total_cost,
            static_peak_cost: elastic.static_peak_cost,
            savings_vs_static_pct: (1.0 - elastic.total_cost / elastic.static_peak_cost) * 100.0,
            savings_vs_no_scale_in_pct: (1.0 - elastic.total_cost / rigid.total_cost) * 100.0,
        },
        runtime: run.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    match std::fs::write("BENCH_elasticity.json", json) {
        Ok(()) => println!("\nwrote BENCH_elasticity.json"),
        Err(e) => eprintln!("\ncould not write BENCH_elasticity.json: {e}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let consolidate_arm = std::env::args().any(|a| a == "--consolidate");
    let (ramp_up, plateau, ramp_down, tail) = if smoke {
        (60, 60, 60, 60)
    } else {
        (300, 300, 300, 300)
    };
    let (base, peak) = (1_000.0, 150_000.0);
    let elastic = elasticity(ramp_up, plateau, ramp_down, tail, base, peak, true);
    let rigid = elasticity(ramp_up, plateau, ramp_down, tail, base, peak, false);

    // VM count and cost over time, sampled every 30 s.
    let mut series: Vec<Vec<String>> = Vec::new();
    let mut elastic_cost = 0.0;
    let mut rigid_cost = 0.0;
    for (e, r) in elastic.trace.records.iter().zip(&rigid.trace.records) {
        let hourly = seep_cloud::VmSpec::small().hourly_cost / 3_600.0;
        elastic_cost += e.vms as f64 * hourly;
        rigid_cost += r.vms as f64 * hourly;
        if e.t % 30 == 0 {
            series.push(vec![
                e.t.to_string(),
                format!("{:.0}", e.offered),
                e.vms.to_string(),
                r.vms.to_string(),
                format!("{elastic_cost:.3}"),
                format!("{rigid_cost:.3}"),
            ]);
        }
    }
    print_table(
        "Elasticity — LRB, trapezoid load, scale out + scale in vs scale out only",
        &[
            "t_s",
            "offered_tps",
            "vms_elastic",
            "vms_no_scale_in",
            "cost_elastic",
            "cost_no_scale_in",
        ],
        &series,
    );

    let phase_rows: Vec<Vec<String>> = elastic
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.clone(),
                format!("{}..{}", p.from_s, p.to_s),
                format!("{:.0}", p.mean_offered),
                format!("{:.1}", p.mean_vms),
                p.end_vms.to_string(),
                format!("{:.3}", p.cost),
            ]
        })
        .collect();
    print_table(
        "Elastic run by phase",
        &[
            "phase", "window_s", "mean_tps", "mean_vms", "end_vms", "cost",
        ],
        &phase_rows,
    );

    println!(
        "\nelastic: {} scale outs, {} scale ins, peak {} VMs, final {} VMs, total cost {:.3}",
        elastic.scale_outs,
        elastic.scale_ins,
        elastic.peak_vms,
        elastic.final_vms,
        elastic.total_cost
    );
    println!(
        "no scale in: final {} VMs (= peak), total cost {:.3}",
        rigid.final_vms, rigid.total_cost
    );
    println!(
        "static peak-sized deployment would cost {:.3}; elasticity saves {:.1}% vs static, {:.1}% vs scale-out-only",
        elastic.static_peak_cost,
        (1.0 - elastic.total_cost / elastic.static_peak_cost) * 100.0,
        (1.0 - elastic.total_cost / rigid.total_cost) * 100.0
    );

    // The threaded runtime through the same trapezoid shape: real operators,
    // channels and checkpoints, with every reconfiguration's wall-clock cost
    // measured by the plan executor. The utilisation threshold is calibrated
    // to wall-clock busy time per virtual second.
    let (r_up, r_plateau, r_down, r_tail, r_peak) = if smoke {
        (6, 4, 6, 10, 1_000)
    } else {
        (20, 15, 20, 25, 3_000)
    };
    let run = runtime_elasticity(r_up, r_plateau, r_down, r_tail, 1, r_peak, 0.001);
    let phase_rows: Vec<Vec<String>> = run
        .phases
        .iter()
        .map(|p| {
            vec![
                p.phase.clone(),
                p.end_vms.to_string(),
                p.end_parallelism.to_string(),
            ]
        })
        .collect();
    print_table(
        "Threaded runtime — trapezoid profile, auto scale out + scale in",
        &["phase", "end_vms", "counter_partitions"],
        &phase_rows,
    );
    println!(
        "\nthreaded runtime: {} scale outs (mean reconfiguration {:.0} µs wall-clock), \
         {} scale ins (mean {:.0} µs), peak {} VMs, final {} VMs",
        run.scale_outs,
        run.mean_scale_out_us,
        run.scale_ins,
        run.mean_scale_in_us,
        run.peak_vms,
        run.final_vms
    );
    println!(
        "threaded runtime billed {:.0} VM-seconds over the run (provider billing ledger)",
        run.vm_seconds
    );
    println!(
        "simulator projects a {}..{} ms latency disruption per reconfiguration; the threaded \
         runtime completes the plan itself in {:.1} ms (catch-up excluded)",
        75,
        500,
        (run.mean_scale_out_us.max(run.mean_scale_in_us)) / 1_000.0
    );

    write_report(smoke, &elastic, &rigid, &run);

    if consolidate_arm {
        consolidate_section(ramp_up, plateau, ramp_down, tail, base, peak, smoke);
    }
}

/// The consolidation arm: merge-only scale-in vs consolidation on two-slot
/// VMs in the simulator, plus the threaded-runtime packing demo with its
/// billing effect.
#[allow(clippy::too_many_arguments)]
fn consolidate_section(
    ramp_up: u64,
    plateau: u64,
    ramp_down: u64,
    tail: u64,
    base: f64,
    peak: f64,
    smoke: bool,
) {
    let merge_only = elasticity(ramp_up, plateau, ramp_down, tail, base, peak, true);
    let packed = elasticity_with(
        ScalingPolicy::default()
            .with_scale_in(0.2)
            .with_consolidate(),
        2,
        ramp_up,
        plateau,
        ramp_down,
        tail,
        base,
        peak,
    );
    let rows: Vec<Vec<String>> = [("merge-only", &merge_only), ("consolidate", &packed)]
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
                r.scale_outs.to_string(),
                r.scale_ins.to_string(),
                r.consolidates.to_string(),
                r.peak_vms.to_string(),
                r.final_vms.to_string(),
                format!("{:.0}", r.vm_seconds),
                format!("{:.3}", r.total_cost),
            ]
        })
        .collect();
    print_table(
        "Consolidate arm — scale-in by merge vs bin-packing onto 2-slot VMs",
        &[
            "policy",
            "scale_outs",
            "scale_ins",
            "consolidates",
            "peak_vms",
            "final_vms",
            "vm_seconds",
            "cost",
        ],
        &rows,
    );

    let (seconds, rate) = if smoke { (6, 40) } else { (20, 400) };
    let demo = runtime_consolidate(seconds, rate);
    println!(
        "\nthreaded runtime consolidate: {} partitions packed {} -> {} VMs \
         ({} released, plan {:.1} ms); billing {:.0} -> {:.0} VM-seconds per virtual hour",
        demo.parallelism,
        demo.vms_before,
        demo.vms_after,
        demo.vms_released,
        demo.plan_us as f64 / 1_000.0,
        demo.vm_seconds_per_hour_before,
        demo.vm_seconds_per_hour_after,
    );
    assert_eq!(
        demo.counted_words, demo.expected_words,
        "consolidated run diverged from the never-reconfigured baseline"
    );
    println!(
        "equivalence: consolidated run counted {} words == never-reconfigured baseline",
        demo.counted_words
    );
}
