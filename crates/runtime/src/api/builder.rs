//! Fluent construction of [`Job`]s: topology and operator factories declared
//! together, validated as one artifact.

use std::collections::HashMap;
use std::sync::Arc;

use seep_core::operator::{IntoOperatorFactory, OperatorFactory};
use seep_core::{Error, LogicalOpId, OperatorKind, QueryGraph, Result};

use crate::config::RuntimeConfig;
use crate::plan::{FusionPolicy, PhysicalPlan};
use crate::runtime::Runtime;

use super::handle::{JobHandle, SinkCollector};

/// Factory for a pass-through operator that forwards every tuple unchanged —
/// the usual shape of a data-feeder source.
pub fn passthrough(name: &str) -> Arc<dyn OperatorFactory> {
    let name = name.to_string();
    Arc::new(move || {
        seep_core::StatelessFn::new(
            name.clone(),
            |_, t: &seep_core::Tuple, out: &mut Vec<seep_core::OutputTuple>| {
                out.push(seep_core::OutputTuple::new(t.key, t.payload.clone()));
            },
        )
    })
}

/// Factory for a sink operator that drops every tuple — for queries whose
/// results are read from operator state rather than collected at the sink
/// (use [`super::SinkCollector`] to collect typed results instead).
pub fn discard(name: &str) -> Arc<dyn OperatorFactory> {
    let name = name.to_string();
    Arc::new(move || {
        seep_core::StatelessFn::new(
            name.clone(),
            |_, _t: &seep_core::Tuple, _out: &mut Vec<seep_core::OutputTuple>| {},
        )
    })
}

/// A validated, deployable query: the topology, the operator factories and
/// the runtime configuration as one artifact.
///
/// Build one with [`Job::builder`]; deploy it with [`Job::deploy`], which
/// hands the paired graph and factories to the low-level
/// [`Runtime::deploy`] and wraps the result in a [`JobHandle`].
pub struct Job {
    config: RuntimeConfig,
    query: QueryGraph,
    factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>>,
    names: HashMap<String, LogicalOpId>,
    fusion: FusionPolicy,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("operators", &self.query.len())
            .field("streams", &self.query.streams().count())
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Start describing a job that will run under the given configuration.
    pub fn builder(config: RuntimeConfig) -> JobBuilder {
        JobBuilder {
            config,
            graph: QueryGraph::builder(),
            factories: HashMap::new(),
            names: HashMap::new(),
            cursor: None,
            error: None,
            fusion: FusionPolicy::default(),
        }
    }

    /// The validated logical query graph.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The logical operator declared under `name`, if any.
    pub fn op(&self, name: &str) -> Option<LogicalOpId> {
        self.names.get(name).copied()
    }

    /// Deploy the job on a fresh [`Runtime`].
    ///
    /// The logical graph is first lowered by the physical-plan compiler
    /// ([`PhysicalPlan::compile`], under the job's
    /// [`FusionPolicy`]): chains of single-input/single-output stateless
    /// operators fuse into single physical operators, dead branches are
    /// eliminated and default batch sizes are selected for fused edges.
    /// The compiled graph then deploys exactly as the low-level
    /// [`Runtime::deploy`] would — one VM and one worker per *physical*
    /// operator — and the returned [`JobHandle`] keeps resolving the
    /// original logical names, attributing clocks and counts back through
    /// the plan's manifest. [`FusionPolicy::Disabled`] reproduces the
    /// unplanned deployment bit for bit.
    pub fn deploy(self) -> Result<JobHandle> {
        let plan = PhysicalPlan::compile(
            &self.query,
            &self.factories,
            &self.config.batch,
            self.fusion,
        )?;
        let (query, factories, batch, manifest) = plan.into_parts();
        let mut config = self.config;
        config.batch = batch;
        let mut runtime = Runtime::new(config);
        runtime.deploy(query, factories)?;
        Ok(JobHandle::new(runtime, manifest))
    }

    /// Decompose into the low-level deployment artifacts: the configuration,
    /// the query graph and the factory map. Useful for tests and experiments
    /// that drive [`Runtime::deploy`] directly.
    pub fn into_parts(
        self,
    ) -> (
        RuntimeConfig,
        QueryGraph,
        HashMap<LogicalOpId, Arc<dyn OperatorFactory>>,
    ) {
        (self.config, self.query, self.factories)
    }
}

/// Fluent builder for [`Job`]s.
///
/// Linear pipelines chain with a cursor: [`source`](Self::source) starts the
/// chain, [`then_stateless`](Self::then_stateless) /
/// [`then_stateful`](Self::then_stateful) append an operator fed by the
/// previous one, [`sink`](Self::sink) terminates it. Fan-out and fan-in —
/// the LRB query's shape — use [`branch`](Self::branch) to move the cursor
/// back to an earlier operator and [`connect`](Self::connect) to add extra
/// streams by name.
///
/// Every node takes its factory at declaration, so an operator without a
/// factory cannot be expressed. Errors (duplicate names, chaining off a
/// missing cursor, unknown names) are deferred: the first one is reported by
/// [`build`](Self::build) / [`deploy`](Self::deploy), keeping the fluent
/// chain infallible.
///
/// ```
/// use seep_core::{OutputTuple, StatelessFn, StreamId, Tuple};
/// use seep_runtime::api::Job;
/// use seep_runtime::RuntimeConfig;
///
/// let fwd = |_: StreamId, t: &Tuple, out: &mut Vec<OutputTuple>| {
///     out.push(OutputTuple::new(t.key, t.payload.clone()));
/// };
/// // A diamond: src -> (left | right) -> sink.
/// let job = Job::builder(RuntimeConfig::default())
///     .source("src", move || StatelessFn::new("src", fwd))
///     .then_stateless("left", move || StatelessFn::new("left", fwd))
///     .branch("src")
///     .then_stateless("right", move || StatelessFn::new("right", fwd))
///     .sink("sink", || {
///         StatelessFn::new("sink", |_, _t: &Tuple, _out: &mut Vec<OutputTuple>| {})
///     })
///     .connect("left", "sink")
///     .build()
///     .expect("valid diamond");
/// assert_eq!(job.query().streams().count(), 4);
/// ```
pub struct JobBuilder {
    config: RuntimeConfig,
    graph: seep_core::QueryGraphBuilder,
    factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>>,
    names: HashMap<String, LogicalOpId>,
    /// The operator new `then_*` / `sink` nodes are fed from.
    cursor: Option<LogicalOpId>,
    /// First construction error; reported by `build`.
    error: Option<Error>,
    /// How the physical-plan compiler may rewrite the graph at deploy.
    fusion: FusionPolicy,
}

impl JobBuilder {
    fn fail(&mut self, error: Error) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    /// Register a node of the given kind, returning its id (or recording an
    /// error for a duplicate name).
    fn node(
        &mut self,
        name: &str,
        kind: OperatorKind,
        factory: impl IntoOperatorFactory,
    ) -> Option<LogicalOpId> {
        if self.names.contains_key(name) {
            self.fail(Error::InvalidGraph(format!(
                "duplicate operator name {name:?}"
            )));
            return None;
        }
        let id = self.graph.add_operator(name, kind);
        self.names.insert(name.to_string(), id);
        self.factories.insert(id, factory.into_factory());
        Some(id)
    }

    /// Add a source operator and make it the cursor. Sources are where
    /// [`JobHandle::inject`] feeds tuples in.
    pub fn source(mut self, name: &str, factory: impl IntoOperatorFactory) -> Self {
        self.cursor = self.node(name, OperatorKind::Source, factory);
        self
    }

    /// Append a stateless operator fed by the cursor, and move the cursor to
    /// it.
    pub fn then_stateless(self, name: &str, factory: impl IntoOperatorFactory) -> Self {
        self.then(name, OperatorKind::Stateless, factory)
    }

    /// Append a stateful operator fed by the cursor, and move the cursor to
    /// it. Stateful operators are checkpointed and can be scaled out,
    /// merged and recovered.
    pub fn then_stateful(self, name: &str, factory: impl IntoOperatorFactory) -> Self {
        self.then(name, OperatorKind::Stateful, factory)
    }

    /// Append a sink fed by the cursor. Additional inbound streams can be
    /// attached with [`connect`](Self::connect).
    pub fn sink(self, name: &str, factory: impl IntoOperatorFactory) -> Self {
        self.then(name, OperatorKind::Sink, factory)
    }

    /// Declare a sink **without** connecting it, leaving the cursor where it
    /// is; attach its inbound streams explicitly with
    /// [`connect`](Self::connect). For fan-in-heavy shapes where the sink is
    /// fed from several branches and none of them is "the" chain to
    /// terminate. A sink left with no inbound stream is rejected by
    /// [`build`](Self::build).
    pub fn add_sink(mut self, name: &str, factory: impl IntoOperatorFactory) -> Self {
        self.node(name, OperatorKind::Sink, factory);
        self
    }

    /// Append a sink that decodes every arriving tuple into `T` and appends
    /// it to `collector` — the typed result-collection path, replacing the
    /// hand-rolled `Arc<Mutex<Vec<T>>>` sink closures.
    pub fn sink_collect<T>(self, name: &str, collector: &SinkCollector<T>) -> Self
    where
        T: for<'de> serde::Deserialize<'de> + Send + 'static,
    {
        self.sink(name, collector.factory())
    }

    fn then(mut self, name: &str, kind: OperatorKind, factory: impl IntoOperatorFactory) -> Self {
        let Some(from) = self.cursor else {
            self.fail(Error::InvalidGraph(format!(
                "operator {name:?} has nothing to chain from: declare a source first \
                 (or use branch() to pick the upstream operator)"
            )));
            return self;
        };
        if let Some(id) = self.node(name, kind, factory) {
            self.graph.connect(from, id);
            self.cursor = Some(id);
        }
        self
    }

    /// Batch every operator's outputs into runs of `size` tuples per channel
    /// envelope (the data plane's transport unit). Size 1 — the default — is
    /// the per-tuple path; larger sizes amortise channel, dedup and clock
    /// costs without changing observable behaviour.
    pub fn batch_size(mut self, size: usize) -> Self {
        self.config.batch = crate::config::BatchConfig::uniform(size);
        self
    }

    /// Override the output batch size of one already-declared operator (the
    /// producing end of its outbound edges), keeping the job-wide
    /// [`batch_size`](Self::batch_size) for everything else.
    pub fn batch_size_at(mut self, name: &str, size: usize) -> Self {
        match self.names.get(name).copied() {
            Some(id) => {
                self.config.batch = self.config.batch.clone().with_producer(id, size);
            }
            None => self.fail(Error::InvalidGraph(format!(
                "batch_size_at target {name:?} is not a declared operator"
            ))),
        }
        self
    }

    /// Select how the physical-plan compiler may rewrite the job at deploy:
    /// [`FusionPolicy::Fuse`] (the default) fuses stateless chains and
    /// selects batch sizes for fused edges, [`FusionPolicy::FuseKeepBatches`]
    /// fuses but never touches batch configuration, and
    /// [`FusionPolicy::Disabled`] deploys the logical graph 1:1, exactly as
    /// the seed runtime would.
    pub fn fusion(mut self, policy: FusionPolicy) -> Self {
        self.fusion = policy;
        self
    }

    /// Drain the data plane across up to `threads` OS threads: workers are
    /// sharded by their placement VM and the shards stepped in parallel, while
    /// every reconfiguration, checkpoint and window tick keeps the
    /// single-threaded world (the drain's barrier is their quiesce point). At
    /// 1 — the default — the one shard runs on the calling thread.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.config.worker_threads = threads;
        self
    }

    /// Move the cursor back to an already-declared operator, so the next
    /// `then_*` / `sink` call branches off it (fan-out).
    pub fn branch(mut self, at: &str) -> Self {
        match self.names.get(at).copied() {
            Some(id) => self.cursor = Some(id),
            None => self.fail(Error::InvalidGraph(format!(
                "branch target {at:?} is not a declared operator"
            ))),
        }
        self
    }

    /// Add an explicit stream `from → to` between two declared operators
    /// (fan-in, or any edge the cursor-driven chaining cannot express).
    pub fn connect(mut self, from: &str, to: &str) -> Self {
        let resolved = (self.names.get(from).copied(), self.names.get(to).copied());
        match resolved {
            (Some(f), Some(t)) => {
                self.graph.connect(f, t);
            }
            (None, _) => self.fail(Error::InvalidGraph(format!(
                "connect source {from:?} is not a declared operator"
            ))),
            (_, None) => self.fail(Error::InvalidGraph(format!(
                "connect target {to:?} is not a declared operator"
            ))),
        }
        self
    }

    /// Validate and return the [`Job`].
    ///
    /// On top of the structural checks shared with
    /// [`QueryGraph::validate`](seep_core::QueryGraph::validate) (a source
    /// and a sink exist, sources have no inputs, sinks no outputs, the graph
    /// is acyclic), the builder rejects dataflow dead ends: every non-source
    /// operator — sinks included — must have at least one inbound stream,
    /// and every non-sink at least one outbound stream.
    pub fn build(mut self) -> Result<Job> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let query = self.graph.build()?;
        for op in query.operators() {
            if op.kind != OperatorKind::Source && query.upstream(op.id).is_empty() {
                return Err(Error::InvalidGraph(format!(
                    "operator {:?} has no inbound stream",
                    op.name
                )));
            }
            if op.kind != OperatorKind::Sink && query.downstream(op.id).is_empty() {
                return Err(Error::InvalidGraph(format!(
                    "operator {:?} has no outbound stream",
                    op.name
                )));
            }
        }
        Ok(Job {
            config: self.config,
            query,
            factories: self.factories,
            names: self.names,
            fusion: self.fusion,
        })
    }

    /// [`build`](Self::build) and [`Job::deploy`] in one step.
    pub fn deploy(self) -> Result<JobHandle> {
        self.build()?.deploy()
    }
}
