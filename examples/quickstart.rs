//! Quickstart: deploy the windowed word-frequency query (the paper's running
//! example, Fig. 2), process a stream, checkpoint the stateful operator, kill
//! its VM and recover it from the checkpoint — then verify the word counts
//! survived the failure.
//!
//! The query is declared with the typed [`Job`] builder: topology and
//! operator factories in one fluent description, deployed in one call.
//!
//! Run with: `cargo run --release --example quickstart`

use seep::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{WindowedWordCount, WordSplitter};
use seep::runtime::RuntimeConfig;

fn main() {
    // 1. Describe the job: the dataflow src -> word_splitter -> word_counter
    //    -> sink, with each operator's factory given at declaration — there
    //    is no separate factory registry to keep in sync with the graph.
    //    Factories are reused whenever the SPS deploys new partitions during
    //    scale out or recovery. The sink collects typed window results.
    let frequencies: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut handle: JobHandle = Job::builder(RuntimeConfig::default())
        .source("data_feeder", passthrough("feeder"))
        .then_stateless("word_splitter", WordSplitter::new)
        .then_stateful("word_counter", || WindowedWordCount::new(30_000))
        .sink_collect("sink", &frequencies)
        .deploy()
        .expect("valid job");

    // 2. One VM per operator was acquired from the (simulated) cloud.
    println!(
        "deployed {} operator instances on {} VMs",
        handle.execution_graph().total_instances(),
        handle.vm_count()
    );

    // 3. Stream the sentences of the paper's Fig. 2 through the query.
    for sentence in [" first set ", " second set ", " third set "] {
        let payload = bincode_payload(sentence);
        handle.inject("data_feeder", Key::from_str_key(sentence), payload);
    }
    handle.drain();
    println!("after processing:    {}", counts_line(&handle));

    // 4. Advance time past the checkpoint interval (5 s): the word counter's
    //    state is checkpointed and backed up to the upstream VM.
    handle.advance_to(5_000);
    println!(
        "checkpoints taken:   {}",
        handle.metrics().checkpoints().len()
    );

    // 5. More data arrives after the checkpoint (it stays buffered upstream
    //    until the next checkpoint), then the word counter's VM crashes.
    handle.inject(
        "data_feeder",
        Key::from_str_key("x"),
        bincode_payload("second chance"),
    );
    handle.drain();
    let victim = handle.partitions("word_counter")[0];
    handle.fail_operator(victim);
    println!("operator {victim} failed — recovering from the checkpoint…");

    // 6. Recovery = scale out with parallelisation level 1: restore the
    //    checkpoint on a new VM and replay the buffered tuples.
    let record = handle.recover(victim, 1).expect("recovery");
    println!(
        "recovered in {:.2} ms, {} tuples replayed",
        record.duration_ms(),
        record.replayed_tuples
    );
    println!("after recovery:      {}", counts_line(&handle));
    println!("word 'set' count must still be 3, and 'second' must now be 2.");

    // 7. Close the 30 s window: the counter emits its frequencies, which the
    //    typed sink collector decodes for us.
    handle.advance_to(30_000);
    handle.drain();
    let mut collected = frequencies.take();
    collected.sort_by(|a, b| b.count.cmp(&a.count).then(a.word.cmp(&b.word)));
    let top: Vec<String> = collected
        .iter()
        .take(3)
        .map(|f| format!("{}={}", f.word, f.count))
        .collect();
    println!("window results at the sink: {}", top.join(" "));
}

fn bincode_payload(sentence: &str) -> bytes::Bytes {
    // Payloads are opaque bytes; the word splitter expects a bincode String.
    seep::core::encode_bytes(sentence).expect("serialise")
}

fn counts_line(handle: &JobHandle) -> String {
    let mut parts: Vec<String> = Vec::new();
    for word in ["first", "second", "third", "set", "chance"] {
        let total: u64 = handle
            .partitions("word_counter")
            .iter()
            .filter_map(|id| {
                handle.with_operator(*id, |op| {
                    op.get_processing_state()
                        .get_decoded::<seep::operators::word_count::WordEntry>(Key::from_str_key(
                            word,
                        ))
                        .ok()
                        .flatten()
                        .map(|e| e.count)
                })
            })
            .flatten()
            .sum();
        if total > 0 {
            parts.push(format!("{word}={total}"));
        }
    }
    parts.join(" ")
}
