//! Shared experiment harnesses on the threaded runtime: the windowed
//! word-frequency query (word splitter → word counter, §6.2/§6.3) driven at
//! a given input rate with fail/recover helpers, and the Linear Road
//! Benchmark pipeline fed by the (optionally expressway-skewed) LRB
//! generator for the repartitioning experiments.
//!
//! Both harnesses construct their dataflow with the typed
//! [`seep_runtime::api::Job`] builder and drive it through the
//! [`seep_runtime::api::JobHandle`] facade.

use seep_core::{Key, LogicalOpId, OperatorId};
use seep_operators::lrb::{Forwarder, TollCalculator};
use seep_operators::{EmptyTokenFilter, SentenceTokenizer, WindowedWordCount, WordKeyer};
use seep_runtime::api::{discard, passthrough, Job, JobHandle};
use seep_runtime::{FusionPolicy, RuntimeConfig};
use seep_workloads::sentences::{SentenceConfig, SentenceGenerator};
use seep_workloads::{LrbConfig, LrbGenerator};

/// The word-splitting work of the query, declared as a three-stage stateless
/// chain (tokenise → drop empties → lower-case and key by word) whose
/// end-to-end outputs equal the monolithic `WordSplitter`'s. Under the
/// default [`FusionPolicy::Fuse`] the physical-plan compiler collapses the
/// chain into one fused unit, so the deployed pipeline has the same physical
/// shape as the seed's four-operator query; compiled with
/// [`FusionPolicy::Disabled`] every stage is its own operator and each word
/// pays two extra channel hops.
pub const SPLITTER_STAGES: [&str; 3] = ["tokenizer", "word_filter", "word_keyer"];

/// A deployed word-frequency query ready to be driven by an experiment.
pub struct WordCountHarness {
    /// The handle driving the deployed query.
    pub handle: JobHandle,
    /// Logical id of the source (data feeder).
    pub source: LogicalOpId,
    /// Physical unit hosting the word-splitting chain: the fused unit under
    /// the default policy, the tokenizer stage when fusion is disabled (the
    /// remaining stages are then addressed through [`SPLITTER_STAGES`]).
    pub splitter: LogicalOpId,
    /// Logical id of the stateful word counter.
    pub counter: LogicalOpId,
    /// Logical id of the sink.
    pub sink: LogicalOpId,
    generator: SentenceGenerator,
    injected: u64,
}

/// Window length used by the word-frequency query in the paper (30 s).
pub const WINDOW_MS: u64 = 30_000;

impl WordCountHarness {
    /// Deploy the query with the given runtime configuration, vocabulary size
    /// (which controls the word counter's dictionary / state size, §6.3) and
    /// optional pre-populated dictionary entries. Compiles with the default
    /// fusion policy: the splitter chain is fused into one unit.
    pub fn deploy(config: RuntimeConfig, vocabulary: usize, prepopulate: usize) -> Self {
        Self::deploy_with_fusion(config, vocabulary, prepopulate, FusionPolicy::default())
    }

    /// Deploy the query under an explicit [`FusionPolicy`] — the throughput
    /// benchmark's lever for measuring the fused chain against the same
    /// chain left unfused.
    pub fn deploy_with_fusion(
        config: RuntimeConfig,
        vocabulary: usize,
        prepopulate: usize,
        fusion: FusionPolicy,
    ) -> Self {
        let handle = Job::builder(config)
            .fusion(fusion)
            .source("data_feeder", passthrough("feeder"))
            .then_stateless("tokenizer", SentenceTokenizer::new)
            .then_stateless("word_filter", EmptyTokenFilter::new)
            .then_stateless("word_keyer", WordKeyer::new)
            .then_stateful("word_counter", move || {
                let mut op = WindowedWordCount::new(WINDOW_MS);
                if prepopulate > 0 {
                    op.prepopulate(prepopulate);
                }
                op
            })
            .sink("sink", discard("collector"))
            .deploy()
            .expect("deploy");
        let source = handle.op("data_feeder");
        let splitter = handle.op("tokenizer");
        let counter = handle.op("word_counter");
        let sink = handle.op("sink");
        WordCountHarness {
            handle,
            source,
            splitter,
            counter,
            sink,
            generator: SentenceGenerator::new(SentenceConfig {
                vocabulary,
                ..Default::default()
            }),
            injected: 0,
        }
    }

    /// The physical instance currently hosting the word counter (first
    /// partition).
    pub fn counter_instance(&self) -> OperatorId {
        self.handle.partitions(self.counter)[0]
    }

    /// Scale the hot pipeline stages (the splitter chain and the counter)
    /// out to `partitions` partitions each, so a multi-threaded drain has
    /// enough independent workers per stage to occupy every core. The fused
    /// chain scales as one unit; unfused, every stage scales on its own.
    /// A no-op at 1.
    pub fn scale_pipeline(&mut self, partitions: usize) {
        if partitions <= 1 {
            return;
        }
        let mut units: Vec<LogicalOpId> = SPLITTER_STAGES
            .iter()
            .map(|stage| self.handle.op(stage))
            .collect();
        units.dedup();
        for unit in units {
            let target = self.handle.partitions(unit)[0];
            self.handle
                .scale_out(target, partitions)
                .expect("scale out splitter stage");
        }
        let counter = self.handle.partitions(self.counter)[0];
        self.handle
            .scale_out(counter, partitions)
            .expect("scale out counter");
    }

    /// Drive the query for `seconds` of virtual time at `rate` sentence
    /// fragments per second. Within each virtual second the due fragments are
    /// injected, periodic work (checkpoints, window ticks) runs while they
    /// are queued, and the pipeline is drained — so checkpoint cost shows up
    /// in the measured per-tuple latency exactly as it would on a busy VM.
    pub fn run_for(&mut self, seconds: u64, rate: u64) {
        let start = self.handle.now_ms();
        for s in 0..seconds {
            for _ in 0..rate {
                let fragment = self.generator.next_fragment();
                let payload = seep_core::encode_bytes(&fragment).expect("fragment serialises");
                self.handle
                    .inject(self.source, Key::from_str_key(&fragment), payload);
                self.injected += 1;
            }
            self.handle.advance_to(start + (s + 1) * 1_000);
            self.handle.drain();
        }
    }

    /// Total sentence fragments injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Open-loop injection: feed `fragments` sentence fragments as fast as
    /// the pipeline absorbs them — inject a chunk, drain, repeat — without
    /// advancing virtual time, so no window closes or checkpoints run and
    /// the measured cost is the data plane alone (the saturation mode of the
    /// throughput benchmark).
    pub fn pump(&mut self, fragments: u64, chunk: u64) {
        let chunk = chunk.max(1);
        let mut remaining = fragments;
        while remaining > 0 {
            let due = remaining.min(chunk);
            for _ in 0..due {
                let fragment = self.generator.next_fragment();
                let payload = seep_core::encode_bytes(&fragment).expect("fragment serialises");
                self.handle
                    .inject(self.source, Key::from_str_key(&fragment), payload);
                self.injected += 1;
            }
            self.handle.drain();
            remaining -= due;
        }
    }

    /// Tuples processed across every logical operator of the query — the
    /// total data-plane work performed, attributed per *logical* operator so
    /// fused and unfused deployments count the same work: a fused chain
    /// member's count is what its predecessor stage emitted, exactly what
    /// the stage would have processed as its own physical operator.
    pub fn total_processed(&self) -> u64 {
        let mut total = self.handle.processed_total("data_feeder")
            + self.handle.processed_total("word_counter");
        total += self.handle.processed_total("sink");
        for stage in SPLITTER_STAGES {
            total += self.handle.processed_total(stage);
        }
        total
    }

    /// Fail the word counter's VM and recover it with parallelism `pi`,
    /// returning the measured recovery time in milliseconds.
    pub fn fail_and_recover(&mut self, pi: usize) -> f64 {
        let victim = self.counter_instance();
        self.handle.fail_operator(victim);
        let record = self.handle.recover(victim, pi).expect("recovery succeeds");
        record.duration_ms()
    }

    /// Total word count across all partitions of the word counter (used for
    /// correctness checks).
    pub fn total_counted_words(&self) -> u64 {
        self.handle
            .partitions(self.counter)
            .iter()
            .filter_map(|id| {
                self.handle.with_operator(*id, |op| {
                    let state = op.get_processing_state();
                    state
                        .iter()
                        .filter(|(k, _)| *k != Key(u64::MAX))
                        .filter_map(|(k, _)| {
                            state
                                .get_decoded::<seep_operators::word_count::WordEntry>(k)
                                .ok()
                                .flatten()
                                .map(|e| e.count)
                        })
                        .sum::<u64>()
                })
            })
            .sum()
    }
}

/// The LRB pipeline (source → forwarder → toll calculator → sink) on the
/// threaded runtime, fed by the synthetic generator. The forwarder re-keys
/// position reports by segment, so the toll calculator's per-segment state
/// carries the workload's key distribution — the harness for the
/// skew-aware-repartitioning experiments.
pub struct LrbSkewHarness {
    /// The handle driving the deployed pipeline.
    pub handle: JobHandle,
    /// Logical id of the source.
    pub source: LogicalOpId,
    /// Logical id of the stateless forwarder.
    pub forwarder: LogicalOpId,
    /// Logical id of the stateful toll calculator.
    pub calculator: LogicalOpId,
    /// Logical id of the sink.
    pub sink: LogicalOpId,
    generator: LrbGenerator,
    /// Next simulated second to feed.
    t: u32,
}

impl LrbSkewHarness {
    /// Deploy the pipeline with the given runtime and workload
    /// configurations.
    pub fn deploy(config: RuntimeConfig, workload: LrbConfig) -> Self {
        let handle = Job::builder(config)
            .source("data_feeder", passthrough("feeder"))
            .then_stateless("forwarder", Forwarder::new)
            .then_stateful("toll_calculator", TollCalculator::new)
            .sink("sink", discard("lrb_sink"))
            .deploy()
            .expect("deploy");
        let source = handle.op("data_feeder");
        let forwarder = handle.op("forwarder");
        let calculator = handle.op("toll_calculator");
        let sink = handle.op("sink");
        LrbSkewHarness {
            handle,
            source,
            forwarder,
            calculator,
            sink,
            generator: LrbGenerator::new(workload),
            t: 0,
        }
    }

    /// Feed `seconds` of generator output, advancing virtual time one second
    /// per batch and draining the pipeline after each.
    pub fn run_for(&mut self, seconds: u64) {
        for _ in 0..seconds {
            let records = self.generator.generate_second(self.t);
            for record in records {
                let key = Key::from_u64((u64::from(record.time()) << 32) | u64::from(self.t));
                let payload = seep_core::encode_bytes(&record).expect("serialise");
                self.handle.inject(self.source, key, payload);
            }
            self.t += 1;
            self.handle.advance_to(u64::from(self.t) * 1_000);
            self.handle.drain();
        }
    }

    /// Tuples processed so far by each toll-calculator partition, in
    /// partition order.
    pub fn calculator_processed(&self) -> Vec<(OperatorId, u64)> {
        self.handle
            .partitions(self.calculator)
            .iter()
            .map(|id| (*id, self.handle.metrics().processed_by(*id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lrb_skew_harness_feeds_the_calculator() {
        let workload = LrbConfig {
            expressways: 2,
            duration_secs: 40,
            ..Default::default()
        }
        .with_skew(0.8, 8);
        let mut h = LrbSkewHarness::deploy(RuntimeConfig::default(), workload);
        h.run_for(6);
        let processed = h.calculator_processed();
        assert_eq!(processed.len(), 1);
        assert!(processed[0].1 > 0, "toll calculator must see tuples");
    }

    #[test]
    fn harness_runs_and_recovers() {
        let mut h = WordCountHarness::deploy(RuntimeConfig::default(), 100, 0);
        h.run_for(2, 20);
        assert_eq!(h.injected(), 40);
        let words_before = h.total_counted_words();
        assert!(words_before > 0);
        let recovery_ms = h.fail_and_recover(1);
        assert!(recovery_ms >= 0.0);
        assert_eq!(
            h.total_counted_words(),
            words_before,
            "state fully recovered"
        );
    }

    #[test]
    fn prepopulation_increases_state_size() {
        let h_small = WordCountHarness::deploy(RuntimeConfig::default(), 100, 100);
        let h_large = WordCountHarness::deploy(RuntimeConfig::default(), 100, 10_000);
        let small = h_small
            .handle
            .with_operator(h_small.counter_instance(), |op| {
                op.get_processing_state().size_bytes()
            })
            .unwrap();
        let large = h_large
            .handle
            .with_operator(h_large.counter_instance(), |op| {
                op.get_processing_state().size_bytes()
            })
            .unwrap();
        assert!(large > small * 10);
    }
}
