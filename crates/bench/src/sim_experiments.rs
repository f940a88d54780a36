//! Simulator-based experiments: Figs 6–10 (dynamic scale out on the cloud).

use serde::{Deserialize, Serialize};

use seep_sim::{lrb_query, mapreduce_query, ScalingPolicy, SimConfig, SimEngine, SimTrace};

/// Result of the LRB closed-loop run (Figs 6 and 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LrbClosedLoopResult {
    /// The full per-second trace.
    pub trace: SimTrace,
    /// Final number of operator VMs.
    pub final_vms: usize,
    /// Median of per-second median latency (ms).
    pub latency_p50_ms: f64,
    /// 95th percentile latency (ms).
    pub latency_p95_ms: f64,
    /// Peak end-to-end throughput in input tuples/s.
    pub peak_throughput: f64,
    /// Number of scale-out actions.
    pub scale_outs: usize,
    /// Final parallelism per stage, in pipeline order.
    pub final_parallelism: Vec<usize>,
}

/// Fig. 6 / Fig. 7: the Linear Road Benchmark closed-loop run.
///
/// The paper's run at L=350 lasts ~2000 s with the aggregate input rate
/// rising from ≈12 000 to ≈600 000 tuples/s and ends with ≈50 VMs allocated.
/// `duration_s` and the start/end rates are parameters so scaled-down runs
/// finish quickly in tests.
pub fn lrb_closed_loop(duration_s: u64, start_rate: f64, end_rate: f64) -> LrbClosedLoopResult {
    let mut engine = SimEngine::new(SimConfig {
        query: lrb_query(),
        vm_pool_size: 6,
        provisioning_delay_s: 90,
        ..SimConfig::default()
    });
    let trace = engine.run(duration_s, |t| {
        start_rate + (end_rate - start_rate) * t as f64 / duration_s.max(1) as f64
    });
    let summary = trace.summary();
    LrbClosedLoopResult {
        final_vms: summary.final_vms,
        latency_p50_ms: summary.latency_p50_ms,
        latency_p95_ms: summary.latency_p95_ms,
        peak_throughput: summary.peak_throughput,
        scale_outs: summary.scale_out_actions,
        final_parallelism: summary.final_parallelism,
        trace,
    }
}

/// The paper's headline configuration: L=350, 12 k → 600 k tuples/s, 2000 s.
pub fn lrb_l350() -> LrbClosedLoopResult {
    lrb_closed_loop(2_000, 12_000.0, 600_000.0)
}

/// Fig. 8: the open-loop map/reduce-style top-k query. The input rate is set
/// above the initial capacity (the paper's run sustains 550 000 tuples/s once
/// scaled out); tuples are dropped while the system is under-provisioned.
pub fn open_loop_topk(duration_s: u64, rate: f64) -> SimTrace {
    let mut engine = SimEngine::new(SimConfig {
        query: mapreduce_query(),
        open_loop: true,
        queue_cap: 100_000.0,
        vm_pool_size: 8,
        provisioning_delay_s: 45,
        ..SimConfig::default()
    });
    engine.run(duration_s, |_| rate)
}

/// One row of the threshold sweep (Fig. 9).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// Scale-out threshold δ (percent).
    pub threshold_pct: u32,
    /// VMs allocated at the end of the run.
    pub vms: usize,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub latency_p95_ms: f64,
}

/// Fig. 9: impact of the scale-out threshold δ on allocated VMs and latency
/// (the paper uses LRB at L=64).
pub fn threshold_sweep(duration_s: u64, l: u16, thresholds_pct: &[u32]) -> Vec<ThresholdRow> {
    thresholds_pct
        .iter()
        .map(|pct| {
            let mut engine = SimEngine::new(SimConfig {
                query: lrb_query(),
                policy: ScalingPolicy::default().with_threshold(*pct as f64 / 100.0),
                vm_pool_size: 6,
                provisioning_delay_s: 60,
                ..SimConfig::default()
            });
            let trace = engine.run(duration_s, |t| {
                seep_workloads::lrb::aggregate_rate_at(t as u32, duration_s as u32, l)
            });
            let s = trace.summary();
            ThresholdRow {
                threshold_pct: *pct,
                vms: s.final_vms,
                latency_p50_ms: s.latency_p50_ms,
                latency_p95_ms: s.latency_p95_ms,
            }
        })
        .collect()
}

/// One row of the manual-vs-dynamic comparison (Fig. 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationRow {
    /// "manual" or "dynamic".
    pub mode: String,
    /// VMs used.
    pub vms: usize,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub latency_p95_ms: f64,
}

/// Distribute `total` operator VMs across the LRB stages the way an expert
/// would: proportionally to each scalable stage's expected CPU demand, with
/// at least one VM per stage.
fn expert_allocation(total: usize, rate: f64) -> Vec<usize> {
    let query = lrb_query();
    let mut demand: Vec<f64> = Vec::new();
    let mut input = rate;
    for stage in &query.stages {
        let d = if stage.scalable {
            input * stage.cost_us / 1_000_000.0
        } else {
            0.0
        };
        demand.push(d);
        input *= stage.selectivity;
    }
    let fixed = query.stages.iter().filter(|s| !s.scalable).count();
    let scalable_budget = total.saturating_sub(fixed).max(query.len() - fixed);
    let total_demand: f64 = demand.iter().sum();
    let mut allocation: Vec<usize> = demand
        .iter()
        .zip(&query.stages)
        .map(|(d, s)| {
            if !s.scalable {
                1
            } else {
                ((d / total_demand.max(1e-9)) * scalable_budget as f64)
                    .round()
                    .max(1.0) as usize
            }
        })
        .collect();
    // Adjust rounding drift on the most demanding stage.
    let diff = total as i64 - allocation.iter().sum::<usize>() as i64;
    if diff != 0 {
        let max_idx = demand
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        allocation[max_idx] = (allocation[max_idx] as i64 + diff).max(1) as usize;
    }
    allocation
}

/// Fig. 10: latency as a function of the number of VMs for manual expert
/// allocations, compared against the dynamic policy (the paper uses LRB at
/// L=115; the dynamic policy ends with 25 VMs vs a 20-VM manual optimum).
pub fn manual_vs_dynamic(duration_s: u64, l: u16, manual_vms: &[usize]) -> Vec<AllocationRow> {
    let end_rate = seep_workloads::lrb::aggregate_rate_at(duration_s as u32, duration_s as u32, l);
    let mut rows = Vec::new();
    for &vms in manual_vms {
        let mut engine = SimEngine::new(SimConfig {
            query: lrb_query(),
            dynamic_scaling: false,
            initial_parallelism: expert_allocation(vms, end_rate),
            vm_pool_size: 0,
            ..SimConfig::default()
        });
        let trace = engine.run(duration_s, |t| {
            seep_workloads::lrb::aggregate_rate_at(t as u32, duration_s as u32, l)
        });
        let s = trace.summary();
        rows.push(AllocationRow {
            mode: "manual".into(),
            vms: s.final_vms,
            latency_p50_ms: s.latency_p50_ms,
            latency_p95_ms: s.latency_p95_ms,
        });
    }
    // Dynamic run.
    let mut engine = SimEngine::new(SimConfig {
        query: lrb_query(),
        vm_pool_size: 6,
        provisioning_delay_s: 60,
        ..SimConfig::default()
    });
    let trace = engine.run(duration_s, |t| {
        seep_workloads::lrb::aggregate_rate_at(t as u32, duration_s as u32, l)
    });
    let s = trace.summary();
    rows.push(AllocationRow {
        mode: "dynamic".into(),
        vms: s.final_vms,
        latency_p50_ms: s.latency_p50_ms,
        latency_p95_ms: s.latency_p95_ms,
    });
    rows
}

/// One row of the simulated skew comparison: the same skewed LRB run under
/// a scale-out-only policy vs the rebalance-aware one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkewSimRow {
    /// "scale-out-only" or "rebalance".
    pub mode: String,
    /// Operator VMs at the end of the run.
    pub vms: usize,
    /// Scale-out actions taken.
    pub scale_outs: usize,
    /// Rebalance actions taken.
    pub rebalances: usize,
    /// 95th-percentile latency (ms).
    pub latency_p95_ms: f64,
}

/// The simulator's projection of the skew experiment: a constant-rate LRB
/// run with `hot_fraction` of the traffic pinned to one partition's key
/// range, under the plain policy (which can only split, never move hot keys)
/// and under the rebalance-aware policy (which re-draws the boundary once,
/// for free).
pub fn skew_rebalance_sim(duration_s: u64, rate: f64, hot_fraction: f64) -> Vec<SkewSimRow> {
    let run = |rebalance: bool| {
        let policy = if rebalance {
            ScalingPolicy::default().with_rebalance()
        } else {
            ScalingPolicy::default()
        };
        let mut engine = SimEngine::new(SimConfig {
            query: lrb_query(),
            policy,
            hot_fraction,
            vm_pool_size: 6,
            provisioning_delay_s: 60,
            ..SimConfig::default()
        });
        engine.run(duration_s, |_| rate).summary()
    };
    let plain = run(false);
    let balanced = run(true);
    vec![
        SkewSimRow {
            mode: "scale-out-only".into(),
            vms: plain.final_vms,
            scale_outs: plain.scale_out_actions,
            rebalances: plain.rebalance_actions,
            latency_p95_ms: plain.latency_p95_ms,
        },
        SkewSimRow {
            mode: "rebalance".into(),
            vms: balanced.final_vms,
            scale_outs: balanced.scale_out_actions,
            rebalances: balanced.rebalance_actions,
            latency_p95_ms: balanced.latency_p95_ms,
        },
    ]
}

/// One phase of the elasticity experiment (ramp up / plateau / ramp down /
/// tail), aggregated from the per-second trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticityPhase {
    /// Phase label.
    pub phase: String,
    /// First second of the phase (inclusive).
    pub from_s: u64,
    /// Last second of the phase (exclusive).
    pub to_s: u64,
    /// Mean offered rate over the phase (tuples/s).
    pub mean_offered: f64,
    /// Mean number of operator VMs over the phase.
    pub mean_vms: f64,
    /// Operator VMs at the end of the phase.
    pub end_vms: usize,
    /// VM cost accrued during the phase (the paper's pay-as-you-go argument:
    /// a shrinking deployment stops paying).
    pub cost: f64,
}

/// Result of the elasticity experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElasticityResult {
    /// Per-second trace.
    pub trace: SimTrace,
    /// Per-phase aggregates, in time order.
    pub phases: Vec<ElasticityPhase>,
    /// Scale-out actions over the run.
    pub scale_outs: usize,
    /// Scale-in actions over the run.
    pub scale_ins: usize,
    /// Consolidation actions over the run (partitions packed onto shared VM
    /// slots; 0 unless the policy enables consolidation).
    #[serde(default)]
    pub consolidates: usize,
    /// Peak operator VMs.
    pub peak_vms: usize,
    /// Operator VMs at the end of the run.
    pub final_vms: usize,
    /// Total VM cost of the elastic run.
    pub total_cost: f64,
    /// Total VM-seconds billed over the run (the quantity the cost is
    /// derived from; printed next to it so runs with different VM specs stay
    /// comparable).
    #[serde(default)]
    pub vm_seconds: f64,
    /// What the same run would have cost had the deployment been statically
    /// provisioned at its peak size for the whole duration.
    pub static_peak_cost: f64,
}

/// The elasticity experiment: drive the LRB pipeline with a trapezoid load
/// profile (ramp up → plateau → ramp down → idle tail) and report VM count
/// and cost over time. With `scale_in` enabled the deployment grows on the
/// rising edge and gives VMs back after the falling edge; with it disabled
/// (the paper's original policy) the deployment stays at its peak forever.
pub fn elasticity(
    ramp_up_s: u64,
    plateau_s: u64,
    ramp_down_s: u64,
    tail_s: u64,
    base_rate: f64,
    peak_rate: f64,
    scale_in: bool,
) -> ElasticityResult {
    let mut policy = ScalingPolicy::default();
    if scale_in {
        policy = policy.with_scale_in(0.2);
    }
    elasticity_with(
        policy,
        1,
        ramp_up_s,
        plateau_s,
        ramp_down_s,
        tail_s,
        base_rate,
        peak_rate,
    )
}

/// The elasticity experiment with an explicit policy and VM slot capacity —
/// the entry point for the consolidate arm, which packs under-utilised
/// partitions onto shared VM slots instead of (only) merging siblings.
#[allow(clippy::too_many_arguments)]
pub fn elasticity_with(
    policy: ScalingPolicy,
    slots_per_vm: usize,
    ramp_up_s: u64,
    plateau_s: u64,
    ramp_down_s: u64,
    tail_s: u64,
    base_rate: f64,
    peak_rate: f64,
) -> ElasticityResult {
    use seep_workloads::RateSchedule;

    let mut engine = SimEngine::new(SimConfig {
        query: lrb_query(),
        policy,
        slots_per_vm,
        vm_pool_size: 6,
        provisioning_delay_s: 60,
        ..SimConfig::default()
    });
    let profile = RateSchedule::Trapezoid {
        base: base_rate,
        peak: peak_rate,
        ramp_up_ms: ramp_up_s * 1_000,
        plateau_ms: plateau_s * 1_000,
        ramp_down_ms: ramp_down_s * 1_000,
    };
    let duration_s = ramp_up_s + plateau_s + ramp_down_s + tail_s;
    let trace = engine.run(duration_s, |t| profile.rate_at(t * 1_000));

    let hourly = seep_cloud::VmSpec::small().hourly_cost;
    let cost_of = |records: &[seep_sim::SimRecord]| -> f64 {
        records
            .iter()
            .map(|r| r.vms as f64 * hourly / 3_600.0)
            .sum()
    };
    let bounds = [
        ("ramp-up", 0, ramp_up_s),
        ("plateau", ramp_up_s, ramp_up_s + plateau_s),
        (
            "ramp-down",
            ramp_up_s + plateau_s,
            ramp_up_s + plateau_s + ramp_down_s,
        ),
        ("tail", ramp_up_s + plateau_s + ramp_down_s, duration_s),
    ];
    let phases = bounds
        .iter()
        .filter(|(_, from, to)| to > from)
        .map(|(label, from, to)| {
            let records = &trace.records[*from as usize..*to as usize];
            let n = records.len().max(1) as f64;
            ElasticityPhase {
                phase: label.to_string(),
                from_s: *from,
                to_s: *to,
                mean_offered: records.iter().map(|r| r.offered).sum::<f64>() / n,
                mean_vms: records.iter().map(|r| r.vms as f64).sum::<f64>() / n,
                end_vms: records.last().map(|r| r.vms).unwrap_or(0),
                cost: cost_of(records),
            }
        })
        .collect();
    let summary = trace.summary();
    ElasticityResult {
        phases,
        scale_outs: summary.scale_out_actions,
        scale_ins: summary.scale_in_actions,
        consolidates: summary.consolidate_actions,
        peak_vms: summary.peak_vms,
        final_vms: summary.final_vms,
        total_cost: cost_of(&trace.records),
        vm_seconds: trace.records.iter().map(|r| r.vms as f64).sum(),
        static_peak_cost: summary.peak_vms as f64 * hourly / 3_600.0 * duration_s as f64,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_lrb_run_scales_out() {
        let result = lrb_closed_loop(300, 1_000.0, 60_000.0);
        assert!(result.scale_outs > 0);
        assert!(result.final_vms > 7);
        assert_eq!(result.trace.len(), 300);
        assert!(result.latency_p95_ms >= result.latency_p50_ms);
    }

    #[test]
    fn open_loop_run_reduces_drops_over_time() {
        let trace = open_loop_topk(300, 300_000.0);
        let early: f64 = trace.records[..100].iter().map(|r| r.dropped).sum();
        let late: f64 = trace.records[200..].iter().map(|r| r.dropped).sum();
        assert!(early > 0.0);
        assert!(late <= early);
    }

    #[test]
    fn threshold_sweep_monotone_in_vms() {
        let rows = threshold_sweep(300, 16, &[10, 90]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].vms >= rows[1].vms, "{rows:?}");
    }

    #[test]
    fn expert_allocation_sums_to_total_and_respects_minimums() {
        let allocation = expert_allocation(20, 100_000.0);
        assert_eq!(allocation.len(), lrb_query().len());
        assert_eq!(allocation.iter().sum::<usize>(), 20);
        assert!(allocation.iter().all(|&p| p >= 1));
        // The toll calculator gets the largest share.
        let toll = lrb_query().index_of("toll_calculator").unwrap();
        assert_eq!(allocation[toll], *allocation.iter().max().unwrap());
    }

    #[test]
    fn manual_vs_dynamic_produces_all_rows() {
        let rows = manual_vs_dynamic(200, 8, &[10, 14]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].mode, "dynamic");
        assert!(rows.iter().all(|r| r.vms > 0));
    }

    #[test]
    fn skew_sim_saves_vms_with_rebalancing() {
        let rows = skew_rebalance_sim(400, 30_000.0, 0.6);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rebalances, 0);
        assert!(rows[1].rebalances > 0);
        assert!(rows[1].vms < rows[0].vms, "{rows:?}");
    }

    #[test]
    fn elastic_run_shrinks_after_ramp_down_and_costs_less_than_static_peak() {
        let elastic = elasticity(100, 100, 100, 200, 500.0, 120_000.0, true);
        assert_eq!(elastic.phases.len(), 4);
        assert!(elastic.scale_outs > 0, "ramp up must scale out");
        assert!(elastic.scale_ins > 0, "ramp down must scale in");
        let plateau = &elastic.phases[1];
        let tail = &elastic.phases[3];
        assert!(
            tail.end_vms < plateau.end_vms,
            "VM count must drop after the ramp down ({} vs {})",
            tail.end_vms,
            plateau.end_vms
        );
        assert!(elastic.total_cost < elastic.static_peak_cost);

        // The same profile without scale in never gives VMs back.
        let rigid = elasticity(100, 100, 100, 200, 500.0, 120_000.0, false);
        assert_eq!(rigid.scale_ins, 0);
        assert_eq!(rigid.final_vms, rigid.peak_vms);
        assert!(elastic.final_vms < rigid.final_vms);
        assert!(elastic.total_cost < rigid.total_cost);
        assert!(elastic.vm_seconds < rigid.vm_seconds);
    }

    #[test]
    fn consolidate_arm_packs_partitions_and_reports_vm_seconds() {
        let merge_only = elasticity(100, 100, 100, 200, 500.0, 120_000.0, true);
        let consolidate = elasticity_with(
            ScalingPolicy::default()
                .with_scale_in(0.2)
                .with_consolidate(),
            2,
            100,
            100,
            100,
            200,
            500.0,
            120_000.0,
        );
        assert_eq!(merge_only.consolidates, 0);
        assert!(
            consolidate.consolidates > 0,
            "the consolidate arm must pack partitions"
        );
        assert!(consolidate.vm_seconds > 0.0);
        assert!(
            consolidate.total_cost < consolidate.static_peak_cost,
            "consolidation must beat the static peak deployment"
        );
    }
}
