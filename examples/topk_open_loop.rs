//! Map/reduce-style top-k query over a Wikipedia-like page-view trace
//! (§6.1, open-loop workload) — running on the real runtime with the real
//! operators, then scaling the stateful reducer out at runtime and showing
//! that the ranking is preserved across the partitioned state.
//!
//! Run with: `cargo run --release --example topk_open_loop`

use std::collections::HashMap;

use seep::api::{discard, passthrough, Job, JobHandle};
use seep::core::{Key, Tuple};
use seep::operators::top_k::ItemCount;
use seep::operators::{FilterFn, ProjectFields, TopKReducer};
use seep::runtime::RuntimeConfig;
use seep::workloads::{WikiConfig, WikiTraceGenerator};

/// Keep only well-formed page-view records: a decodable field vector with a
/// non-empty language code in field 1.
fn valid_record(tuple: &Tuple) -> bool {
    matches!(
        tuple.decode::<Vec<String>>(),
        Ok(fields) if fields.get(1).is_some_and(|lang| !lang.is_empty())
    )
}

fn main() {
    // Query: sources -> validate (drop malformed records) -> map (project
    // language field) -> reduce (top-k) -> sink, declared and deployed as one
    // typed job. Field 1 of the page-view record is the language code.
    //
    // `validate` and `map` are both stateless, single-input/single-output
    // stages, so the physical-plan compiler (on by default) fuses them into
    // one unit: one channel hop from the sources to the reducer instead of
    // two, with metrics still attributed per logical operator.
    let mut handle = Job::builder(RuntimeConfig::default())
        .source("sources", passthrough("feeder"))
        .then_stateless("validate", || FilterFn::new("validate", valid_record))
        .then_stateless("map", || ProjectFields::new(1))
        .then_stateful("reduce", || TopKReducer::new(5, 30_000))
        .sink("sink", discard("collector"))
        .deploy()
        .expect("valid job");

    for unit in &handle.plan_manifest().units {
        println!("fused unit: {} <- {:?}", unit.label, unit.members);
    }

    // Feed 20 000 synthetic page views (Zipf-distributed languages).
    let mut generator = WikiTraceGenerator::new(WikiConfig::default());
    for view in generator.next_batch(0, 20_000) {
        let payload = seep::core::encode_bytes(&view).expect("serialise");
        handle.inject("sources", Key::from_str_key(&view[1]), payload);
    }
    handle.drain();
    println!(
        "top languages with a single reducer: {:?}",
        ranking(&handle)
    );

    // The reducer becomes the bottleneck: scale it out to 3 partitions. Its
    // dictionary is split by key range and the map's routing state updated.
    let target = handle.partitions("reduce")[0];
    handle.scale_out(target, 3).expect("scale out");
    println!(
        "reducer scaled out to {} partitions",
        handle.parallelism("reduce")
    );

    // Keep streaming: another 20 000 page views now spread across partitions.
    for view in generator.next_batch(1, 20_000) {
        let payload = seep::core::encode_bytes(&view).expect("serialise");
        handle.inject("sources", Key::from_str_key(&view[1]), payload);
    }
    handle.drain();
    println!("top languages after scale out:      {:?}", ranking(&handle));
    println!("(the sink merges partial rankings from the partitioned reducers, §6.1)");
}

/// Merge the partial top-k rankings of every reducer partition, as the sink
/// operator does in the paper's query.
fn ranking(handle: &JobHandle) -> Vec<(String, u64)> {
    let mut totals: HashMap<String, u64> = HashMap::new();
    for id in handle.partitions("reduce") {
        let partial: Vec<(String, u64)> = handle
            .with_operator(id, |op| {
                let state = op.get_processing_state();
                state
                    .iter()
                    .filter(|(k, _)| *k != Key(u64::MAX))
                    .filter_map(|(k, _)| {
                        state
                            .get_decoded::<ItemCount>(k)
                            .ok()
                            .flatten()
                            .map(|e| (e.item, e.count))
                    })
                    .collect()
            })
            .unwrap_or_default();
        for (item, count) in partial {
            *totals.entry(item).or_insert(0) += count;
        }
    }
    let mut ranking: Vec<(String, u64)> = totals.into_iter().collect();
    ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranking.truncate(5);
    ranking
}
