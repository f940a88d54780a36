//! Operator model (§2.2): deterministic operator functions over tuples, with
//! explicit access to processing state.
//!
//! A *stateful* operator implements [`StatefulOperator`], whose
//! [`get_processing_state`](StatefulOperator::get_processing_state) /
//! [`set_processing_state`](StatefulOperator::set_processing_state) methods
//! expose its internal state to the SPS as key/value pairs (§3.1). Stateless
//! operators (filter, map) can be wrapped in [`StatelessFn`], whose processing
//! state is always empty.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::batch::BatchOutput;
use crate::state::{ProcessingState, StateDelta};
use crate::tuple::{Key, StreamId, Timestamp, Tuple};

/// Identifier of a *physical* operator instance in the execution graph.
///
/// When a logical operator is scaled out to parallelisation level π, each of
/// the π partitioned operators has its own `OperatorId`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct OperatorId(pub u64);

impl OperatorId {
    /// Create an operator id from a raw integer.
    pub fn new(id: u64) -> Self {
        OperatorId(id)
    }

    /// The raw integer identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// An output tuple produced by an operator before the runtime assigns it a
/// timestamp from the operator's logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputTuple {
    /// Partitioning key of the output tuple.
    pub key: Key,
    /// Serialised payload.
    pub payload: bytes::Bytes,
}

impl OutputTuple {
    /// Create an output tuple from raw parts.
    pub fn new(key: Key, payload: impl Into<bytes::Bytes>) -> Self {
        OutputTuple {
            key,
            payload: payload.into(),
        }
    }

    /// Create an output tuple by serialising a typed payload
    /// ([`crate::tuple::encode_bytes`]).
    pub fn encode<T: Serialize + ?Sized>(key: Key, value: &T) -> crate::Result<Self> {
        Ok(OutputTuple::new(key, crate::tuple::encode_bytes(value)?))
    }

    /// Attach a timestamp, turning this into a full [`Tuple`].
    pub fn with_ts(self, ts: Timestamp) -> Tuple {
        Tuple {
            ts,
            key: self.key,
            payload: self.payload,
        }
    }
}

/// A deterministic stream operator with externally managed state.
///
/// The contract mirrors the paper's operator function
/// `f_o : (I_o, τ_o, θ_o, σ_o) → (O_o, τ_o, θ_o, σ_o)`:
///
/// * [`process`](Self::process) consumes one input tuple (the runtime calls it
///   for each tuple of the batch `I_o[τ_o]`) and appends any output tuples to
///   `out`. Operators must be deterministic and must not have externally
///   visible side effects.
/// * [`get_processing_state`](Self::get_processing_state) returns a consistent
///   copy of the operator's processing state θ_o as key/value pairs. The
///   runtime pairs it with the timestamp vector it maintains for the operator.
/// * [`set_processing_state`](Self::set_processing_state) replaces the
///   internal state from a (possibly partitioned) checkpoint.
/// * [`on_tick`](Self::on_tick) lets windowed operators emit periodic results
///   (e.g. "word frequencies every 30 s"); the runtime invokes it on a timer.
pub trait StatefulOperator: Send {
    /// Process one input tuple arriving on `stream`, appending outputs to `out`.
    fn process(&mut self, stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>);

    /// Process a run of consecutive input tuples from `stream`, attributing
    /// each output to the index of the input that produced it.
    ///
    /// The default loops [`process`](Self::process) over the batch, so every
    /// operator is batch-capable with per-tuple semantics. Hot operators
    /// override this with a hand-rolled loop that skips the per-tuple scratch
    /// allocation and dispatch bookkeeping; overrides must produce exactly
    /// the outputs the default would (the `batch_equivalence` suite holds
    /// them to it).
    fn process_batch(&mut self, stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        let mut scratch = Vec::new();
        for (index, tuple) in tuples.iter().enumerate() {
            self.process(stream, tuple, &mut scratch);
            out.absorb(index, &mut scratch);
        }
    }

    /// Take a consistent copy of the processing state as key/value pairs.
    fn get_processing_state(&self) -> ProcessingState;

    /// Replace the processing state from a checkpoint (or a partition of one).
    fn set_processing_state(&mut self, state: ProcessingState);

    /// Capture what changed in the processing state since the previous call
    /// of this method — the periodic checkpoint path (§3.2), which has to be
    /// cheap enough to run every interval `c`.
    ///
    /// An operator that keeps dirty marks (see [`crate::TrackedMap`])
    /// returns [`StateDelta::Changes`]: at least every entry inserted or
    /// modified and every key removed since the previous call, so the cost
    /// follows the keys touched, not the keys held. It must return
    /// [`StateDelta::Full`] whenever it cannot vouch for that: on the first
    /// call, and on the first call after
    /// [`set_processing_state`](Self::set_processing_state). The SPS ships a
    /// `Changes` capture as an incremental checkpoint only when the backup
    /// still holds the checkpoint of the previous call; otherwise it discards
    /// the capture and takes [`get_processing_state`](Self::get_processing_state).
    ///
    /// The default is a full snapshot every time (and "unchanged" for an
    /// operator that [is not stateful](Self::is_stateful)), which is always
    /// correct: an operator that does not track changes needs no code here.
    fn take_state_delta(&mut self) -> StateDelta {
        if self.is_stateful() {
            StateDelta::Full(self.get_processing_state())
        } else {
            StateDelta::unchanged()
        }
    }

    /// Whether the operator carries processing state. Stateless operators can
    /// skip checkpointing entirely.
    fn is_stateful(&self) -> bool {
        true
    }

    /// Periodic trigger for windowed / time-driven output. `now_ms` is the
    /// runtime's notion of elapsed milliseconds. Default: no-op.
    fn on_tick(&mut self, _now_ms: u64, _out: &mut Vec<OutputTuple>) {}

    /// A short human-readable name used in logs and metrics.
    fn name(&self) -> &str {
        "operator"
    }

    /// When this instance executes several fused logical stages in one
    /// physical operator (see [`crate::fused::FusedOperator`]), the
    /// per-stage attribution counts; `None` for ordinary operators. The
    /// runtime uses this to keep health and metrics reported per *logical*
    /// operator even after fusion.
    fn fusion_stages(&self) -> Option<Vec<crate::fused::FusionStageStats>> {
        None
    }
}

/// Adapter turning a pure function into a stateless operator.
///
/// The processing state of a stateless operator is the empty set (`θ_o = ∅`,
/// §2.2), so checkpoints of a `StatelessFn` are trivially empty and recovery
/// only needs to replay buffered tuples.
pub struct StatelessFn<F> {
    name: String,
    f: F,
}

impl<F> StatelessFn<F>
where
    F: FnMut(StreamId, &Tuple, &mut Vec<OutputTuple>) + Send,
{
    /// Wrap a function as a stateless operator.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        StatelessFn {
            name: name.into(),
            f,
        }
    }
}

impl<F> StatefulOperator for StatelessFn<F>
where
    F: FnMut(StreamId, &Tuple, &mut Vec<OutputTuple>) + Send,
{
    fn process(&mut self, stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        (self.f)(stream, tuple, out);
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Boxed trait objects act as operators themselves, so factories may return
/// either a concrete operator or an already-erased `Box<dyn StatefulOperator>`
/// interchangeably.
impl StatefulOperator for Box<dyn StatefulOperator> {
    fn process(&mut self, stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        (**self).process(stream, tuple, out)
    }

    // Forwarding matters: without it, a boxed operator would fall back to the
    // trait default and silently bypass the inner operator's batch override.
    fn process_batch(&mut self, stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        (**self).process_batch(stream, tuples, out)
    }

    fn get_processing_state(&self) -> ProcessingState {
        (**self).get_processing_state()
    }

    fn set_processing_state(&mut self, state: ProcessingState) {
        (**self).set_processing_state(state)
    }

    fn take_state_delta(&mut self) -> StateDelta {
        (**self).take_state_delta()
    }

    fn is_stateful(&self) -> bool {
        (**self).is_stateful()
    }

    fn on_tick(&mut self, now_ms: u64, out: &mut Vec<OutputTuple>) {
        (**self).on_tick(now_ms, out)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn fusion_stages(&self) -> Option<Vec<crate::fused::FusionStageStats>> {
        (**self).fusion_stages()
    }
}

/// Factory that builds fresh instances of an operator, used when the SPS
/// deploys new partitioned operators onto new VMs during scale out or
/// recovery. The fresh instance starts with empty state; the SPS then calls
/// [`StatefulOperator::set_processing_state`] with the partitioned checkpoint.
///
/// Any `Fn() -> O` closure where `O: StatefulOperator` is a factory, so
/// operator constructors can be passed directly — e.g.
/// `builder.then_stateful("count", || WindowedWordCount::new(30_000))` with
/// the job API, no boxing or `as Arc<dyn OperatorFactory>` casts required.
/// For operators that are `Clone`, [`CloneFactory`] turns a prototype value
/// into a factory.
pub trait OperatorFactory: Send + Sync {
    /// Build a fresh operator instance.
    fn build(&self) -> Box<dyn StatefulOperator>;

    /// Name of the operators this factory builds.
    fn name(&self) -> &str {
        "operator"
    }
}

impl<F, O> OperatorFactory for F
where
    F: Fn() -> O + Send + Sync,
    O: StatefulOperator + 'static,
{
    fn build(&self) -> Box<dyn StatefulOperator> {
        Box::new(self())
    }
}

/// Factory that clones a prototype operator value for every build.
///
/// This is the "factory from a [`StatefulOperator`] value" adapter: operators
/// that are `Clone` (most pure-state operators are) can be handed to the job
/// API directly as `CloneFactory::new(op)` instead of a construction closure.
pub struct CloneFactory<O> {
    prototype: O,
}

impl<O> CloneFactory<O>
where
    O: StatefulOperator + Clone + Sync + 'static,
{
    /// Wrap a prototype operator; every [`OperatorFactory::build`] clones it.
    pub fn new(prototype: O) -> Self {
        CloneFactory { prototype }
    }
}

impl<O> OperatorFactory for CloneFactory<O>
where
    O: StatefulOperator + Clone + Sync + 'static,
{
    fn build(&self) -> Box<dyn StatefulOperator> {
        Box::new(self.prototype.clone())
    }

    fn name(&self) -> &str {
        self.prototype.name()
    }
}

/// Conversion into a shared operator factory, accepted wherever the job API
/// takes a factory. Implemented by every [`OperatorFactory`] (closures
/// included, via the blanket impl) and by `Arc<dyn OperatorFactory>` itself,
/// so both fresh closures and pre-shared factories can be passed without
/// casts.
pub trait IntoOperatorFactory {
    /// Convert into a shared factory handle.
    fn into_factory(self) -> Arc<dyn OperatorFactory>;
}

impl<F> IntoOperatorFactory for F
where
    F: OperatorFactory + 'static,
{
    fn into_factory(self) -> Arc<dyn OperatorFactory> {
        Arc::new(self)
    }
}

impl IntoOperatorFactory for Arc<dyn OperatorFactory> {
    fn into_factory(self) -> Arc<dyn OperatorFactory> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_fn_forwards_tuples() {
        let mut op = StatelessFn::new("identity", |_s, t: &Tuple, out: &mut Vec<OutputTuple>| {
            out.push(OutputTuple::new(t.key, t.payload.clone()));
        });
        let mut out = Vec::new();
        let t = Tuple::new(1, Key(42), vec![1, 2, 3]);
        op.process(StreamId(0), &t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, Key(42));
        assert!(!op.is_stateful());
        assert!(op.get_processing_state().is_empty());
        assert_eq!(op.name(), "identity");
    }

    #[test]
    fn output_tuple_with_ts_builds_tuple() {
        let o = OutputTuple::new(Key(1), vec![9]);
        let t = o.with_ts(33);
        assert_eq!(t.ts, 33);
        assert_eq!(t.key, Key(1));
        assert_eq!(&t.payload[..], &[9]);
    }

    #[test]
    fn output_tuple_encode() {
        let o = OutputTuple::encode(Key(1), &("hi".to_string(), 3u32)).unwrap();
        let t = o.with_ts(1);
        let (s, n): (String, u32) = t.decode().unwrap();
        assert_eq!(s, "hi");
        assert_eq!(n, 3);
    }

    #[test]
    fn factory_from_closure() {
        let factory = || -> Box<dyn StatefulOperator> {
            Box::new(StatelessFn::new(
                "noop",
                |_, _, _: &mut Vec<OutputTuple>| {},
            ))
        };
        let op = OperatorFactory::build(&factory);
        assert!(!op.is_stateful());
    }

    #[test]
    fn factory_from_concrete_closure_needs_no_boxing() {
        // A closure returning a concrete operator type is a factory directly.
        let factory = || StatelessFn::new("noop", |_, _, _: &mut Vec<OutputTuple>| {});
        let op = OperatorFactory::build(&factory);
        assert!(!op.is_stateful());
        assert_eq!(op.name(), "noop");
    }

    #[test]
    fn boxed_operator_forwards_through_stateful_impl() {
        let mut boxed: Box<dyn StatefulOperator> = Box::new(StatelessFn::new(
            "fwd",
            |_s, t: &Tuple, out: &mut Vec<OutputTuple>| {
                out.push(OutputTuple::new(t.key, t.payload.clone()));
            },
        ));
        let mut out = Vec::new();
        StatefulOperator::process(
            &mut boxed,
            StreamId(0),
            &Tuple::new(1, Key(5), vec![7]),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(StatefulOperator::name(&boxed), "fwd");
        assert!(!StatefulOperator::is_stateful(&boxed));
        assert!(StatefulOperator::get_processing_state(&boxed).is_empty());
    }

    #[derive(Clone)]
    struct Proto {
        state: ProcessingState,
    }

    impl StatefulOperator for Proto {
        fn process(&mut self, _s: StreamId, _t: &Tuple, _o: &mut Vec<OutputTuple>) {}
        fn get_processing_state(&self) -> ProcessingState {
            self.state.clone()
        }
        fn set_processing_state(&mut self, state: ProcessingState) {
            self.state = state;
        }
        fn name(&self) -> &str {
            "proto"
        }
    }

    #[test]
    fn clone_factory_clones_the_prototype() {
        let mut state = ProcessingState::empty();
        state.insert(Key(1), vec![9]);
        let factory = CloneFactory::new(Proto { state });
        assert_eq!(factory.name(), "proto");
        let a = factory.build();
        let b = factory.build();
        assert_eq!(a.get_processing_state().len(), 1);
        assert_eq!(b.get_processing_state().len(), 1);
    }

    #[test]
    fn into_factory_accepts_closures_and_shared_factories() {
        let from_closure =
            (|| StatelessFn::new("a", |_, _, _: &mut Vec<OutputTuple>| {})).into_factory();
        assert!(!from_closure.build().is_stateful());
        // An already-shared factory passes through unchanged.
        let shared: Arc<dyn OperatorFactory> = from_closure.clone();
        let same = shared.into_factory();
        assert!(Arc::ptr_eq(&from_closure, &same));
    }

    #[test]
    fn default_process_batch_loops_process_with_attribution() {
        let mut op = StatelessFn::new("dup", |_s, t: &Tuple, out: &mut Vec<OutputTuple>| {
            out.push(OutputTuple::new(t.key, t.payload.clone()));
            out.push(OutputTuple::new(t.key, t.payload.clone()));
        });
        let tuples = vec![
            Tuple::new(1, Key(1), vec![1]),
            Tuple::new(2, Key(2), vec![2]),
        ];
        let mut out = BatchOutput::new();
        op.process_batch(StreamId(0), &tuples, &mut out);
        let items = out.into_items();
        assert_eq!(items.len(), 4);
        assert_eq!(items[0].0, 0);
        assert_eq!(items[1].0, 0);
        assert_eq!(items[2].0, 1);
        assert_eq!(items[3].0, 1);
        assert_eq!(items[3].1.key, Key(2));
    }

    struct Batchy;

    impl StatefulOperator for Batchy {
        fn process(&mut self, _s: StreamId, t: &Tuple, out: &mut Vec<OutputTuple>) {
            out.push(OutputTuple::new(t.key, vec![0]));
        }
        fn process_batch(&mut self, _s: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
            for (i, t) in tuples.iter().enumerate() {
                out.set_source(i);
                out.push(OutputTuple::new(t.key, vec![1]));
            }
        }
        fn get_processing_state(&self) -> ProcessingState {
            ProcessingState::empty()
        }
        fn set_processing_state(&mut self, _state: ProcessingState) {}
    }

    #[test]
    fn boxed_operator_forwards_batch_override() {
        let mut boxed: Box<dyn StatefulOperator> = Box::new(Batchy);
        let tuples = vec![Tuple::new(1, Key(3), vec![])];
        let mut out = BatchOutput::new();
        StatefulOperator::process_batch(&mut boxed, StreamId(0), &tuples, &mut out);
        // The override's payload marker, not the per-tuple default's.
        assert_eq!(&out.items()[0].1.payload[..], &[1]);
    }

    #[test]
    fn operator_id_display_and_order() {
        let a = OperatorId::new(1);
        let b = OperatorId::new(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "op1");
        assert_eq!(a.raw(), 1);
    }
}
