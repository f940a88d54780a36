//! Elastic scale in: the runtime-driven merge path end to end.
//!
//! The windowed word-frequency query is scaled out under load, then the load
//! stops and the bidirectional scaling policy notices the idle sibling
//! partitions, merges their checkpoints back into one operator and releases
//! the freed VM to the cloud provider — billing stops with it. Word counts
//! are asserted identical across the whole round trip.
//!
//! Run with: `cargo run --release --example elastic_scale_in`

use seep::runtime::{RuntimeConfig, ScalingPolicy};
use seep_bench::harness::WordCountHarness;

fn main() {
    let mut policy = ScalingPolicy::default().with_scale_in(0.2);
    policy.scale_in_reports = 2;
    let config = RuntimeConfig {
        scaling_policy: policy,
        ..RuntimeConfig::default()
    };
    let mut harness = WordCountHarness::deploy(config, 2_000, 0);

    println!("Elastic scale in — runtime-driven operator merge\n");
    println!("driving 5 s of traffic at 400 fragments/s …");
    harness.run_for(5, 400);
    let counter = harness.counter_instance();
    println!(
        "  parallelism {}, {} VMs running",
        harness.handle.parallelism(harness.counter),
        harness.handle.vm_count()
    );

    // Split the hot word counter in two (what the bottleneck detector would
    // do under sustained load).
    println!("\nscaling the word counter out to 2 partitions …");
    harness.handle.scale_out(counter, 2).expect("scale out");
    harness.handle.drain();
    harness.run_for(3, 400);
    let words_at_peak = harness.total_counted_words();
    let vms_at_peak = harness.handle.vm_count();
    println!(
        "  parallelism {}, {} VMs, {} words counted",
        harness.handle.parallelism(harness.counter),
        vms_at_peak,
        words_at_peak
    );

    // The load stops. With auto-scale on, the control loop sees both
    // partitions idle below the low watermark and merges them.
    println!("\nload stops; auto-scale watches the utilisation reports …");
    harness.handle.set_auto_scale(true);
    let start = harness.handle.now_ms();
    let mut step = 0u64;
    while harness.handle.metrics().scale_ins().is_empty() && step < 10 {
        step += 1;
        harness.handle.advance_to(start + step * 5_000);
    }
    let scale_ins = harness.handle.metrics().scale_ins();
    let record = scale_ins.first().expect("the idle partitions were merged");
    println!(
        "  merged after {} idle report(s): parallelism {} -> {}, in {:.2} ms",
        step,
        2,
        record.parallelism,
        record.duration_us as f64 / 1_000.0
    );
    println!(
        "  {} VMs running (was {}), released VM billing stopped",
        harness.handle.vm_count(),
        vms_at_peak
    );

    // Semantics preserved across the round trip.
    harness.handle.drain();
    assert_eq!(harness.handle.parallelism(harness.counter), 1);
    assert_eq!(harness.total_counted_words(), words_at_peak);
    assert!(harness.handle.vm_count() < vms_at_peak);
    println!(
        "\nword counts identical across the round trip ({} words) — no loss, no duplicates",
        words_at_peak
    );

    let now = harness.handle.now_ms();
    println!(
        "total VM cost so far: {:.6} (only surviving VMs keep accruing)",
        harness.handle.provider().total_cost(now)
    );
}
