//! The settable surface: every field of `RuntimeConfig`, `ScalingPolicy` and
//! `StoreConfig`, destructured with no `..`, together with its default. A
//! new setting does not compile until it is named here, so it shows up as an
//! edit to this file.

use seep::cloud::VmPoolConfig;
use seep::runtime::{
    BatchConfig, RecoveryStrategy, RuntimeConfig, ScalingPolicy, SplitPolicy, StoreBackendKind,
    StoreConfig,
};

#[test]
fn runtime_config_has_nine_settings() {
    let RuntimeConfig {
        checkpoint_interval_ms,
        strategy,
        scaling_policy,
        pool,
        latency_probe_at_stateful,
        store,
        split,
        batch,
        worker_threads,
    } = RuntimeConfig::default();
    assert_eq!(checkpoint_interval_ms, 5_000);
    assert_eq!(strategy, RecoveryStrategy::StateManagement);
    assert_eq!(scaling_policy, ScalingPolicy::default());
    assert_eq!(pool.slots_per_vm, VmPoolConfig::default().slots_per_vm);
    assert!(!latency_probe_at_stateful);
    assert_eq!(store.backend, StoreBackendKind::Mem);
    assert_eq!(split, SplitPolicy::Even);
    assert_eq!(batch, BatchConfig::default());
    assert_eq!(worker_threads, 1);
}

#[test]
fn scaling_policy_has_eight_settings() {
    let ScalingPolicy {
        threshold,
        consecutive_reports,
        report_interval_ms,
        low_threshold,
        scale_in_reports,
        scale_in,
        rebalance,
        consolidate,
    } = ScalingPolicy::default();
    // δ = 70 %, k = 2, r = 5 s (§5.1).
    assert_eq!(threshold, 0.70);
    assert_eq!(consecutive_reports, 2);
    assert_eq!(report_interval_ms, 5_000);
    assert_eq!(low_threshold, 0.20);
    assert_eq!(scale_in_reports, 3);
    assert!(!scale_in && !rebalance && !consolidate);
}

#[test]
fn store_config_has_four_settings() {
    let StoreConfig {
        backend,
        dir,
        fsync,
        sync_every_n_frames,
    } = StoreConfig::default();
    assert_eq!(backend, StoreBackendKind::Mem);
    assert_eq!(dir, None);
    assert!(!fsync);
    assert_eq!(sync_every_n_frames, 1);
}
