//! Multi-core data plane: run the windowed word-frequency query on the
//! threaded worker pool. `worker_threads(n)` shards the live workers across
//! `n` OS threads by placement VM; scaling the hot stages out gives every
//! thread independent partitions to run, and the runtime quiesces the pool
//! to a barrier whenever the control plane acts — so reconfiguration plans,
//! checkpoints and recovery behave exactly as on the single-threaded
//! cooperative stepper.
//!
//! Run with: `cargo run --release --example multicore`

use seep::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{WindowedWordCount, WordSplitter};
use seep::runtime::RuntimeConfig;

const CORES: usize = 2;

fn main() {
    // 1. Same declaration as the quickstart, plus one knob: drain on two
    //    worker threads instead of the cooperative stepper.
    let frequencies: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut handle: JobHandle = Job::builder(RuntimeConfig::default())
        .worker_threads(CORES)
        .source("data_feeder", passthrough("feeder"))
        .then_stateless("word_splitter", WordSplitter::new)
        .then_stateful("word_counter", || WindowedWordCount::new(2_000))
        .sink_collect("sink", &frequencies)
        .deploy()
        .expect("valid job");

    // 2. Scale the hot stages to one partition per core so both threads have
    //    independent work. Sibling splitter partitions share an emit clock
    //    (and, under the pool, its emit gate), so downstream duplicate
    //    filters still see each logical stream in monotonic order.
    let splitter = handle.partitions("word_splitter")[0];
    handle.scale_out(splitter, CORES).expect("scale splitter");
    let counter = handle.partitions("word_counter")[0];
    handle.scale_out(counter, CORES).expect("scale counter");
    println!(
        "deployed {} operator instances on {} VMs, draining on {CORES} threads",
        handle.execution_graph().total_instances(),
        handle.vm_count()
    );

    // 3. Stream sentences through the parallel plane.
    for sequence in 0u64..5_000 {
        let sentence = format!("word{} word{}", sequence % 23, (sequence * 7) % 23);
        let payload = seep::core::encode_bytes(&sentence).expect("serialise");
        handle.inject("data_feeder", Key::from_str_key(&sentence), payload);
    }
    handle.drain();
    let processed: u64 = ["data_feeder", "word_splitter", "word_counter"]
        .iter()
        .flat_map(|name| handle.partitions(*name))
        .map(|id| handle.metrics().processed_by(id))
        .sum();
    println!("processed {processed} tuples across the pipeline");

    // 4. The control plane still works mid-stream: crash a counter partition
    //    and recover it — the pool quiesces, the plan runs single-threaded,
    //    the next drain goes parallel again.
    let victim = handle.partitions("word_counter")[0];
    handle.fail_operator(victim);
    let record = handle.recover(victim, 1).expect("recovery");
    println!(
        "recovered {victim} in {:.2} ms, {} tuples replayed",
        record.duration_ms(),
        record.replayed_tuples
    );

    // 5. Close the window and read the typed results.
    handle.advance_to(handle.now_ms() + 4_000);
    handle.drain();
    let mut collected = frequencies.take();
    collected.sort_by(|a, b| b.count.cmp(&a.count).then(a.word.cmp(&b.word)));
    let top: Vec<String> = collected
        .iter()
        .take(3)
        .map(|f| format!("{}={}", f.word, f.count))
        .collect();
    println!("top window results at the sink: {}", top.join(" "));
}
