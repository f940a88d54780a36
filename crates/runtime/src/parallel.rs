//! The data plane's drain loop.
//!
//! [`drain`] shards live workers across up to N OS threads and steps the
//! shards until the whole plane is quiescent. The sharding rule follows
//! placement: a worker runs on thread `vm % threads`, so partitions
//! consolidated onto one VM share a thread and keep contending for the same
//! core — the simulator's CPU-contention story stays honest under real
//! threads. Within a shard workers are stepped in topological order, so a
//! pass pushes tuples as far downstream as it can.
//!
//! A shard steps its workers repeatedly until a full pass makes no progress.
//! With one shard — one thread configured, or every live worker on VMs of
//! one residue class — that silent pass already proves every inbound channel
//! is empty (a step sends only the outputs of what it processed), and the
//! shard runs on the calling thread: nothing is spawned. With several, the
//! protocol is a sequence of *rounds*: each round runs one scoped thread per
//! shard, the scope join is a global barrier, and the drain ends after a
//! round in which no shard processed anything.
//!
//! Either way the return is exactly the quiesce point the reconfiguration
//! protocol needs: ticks, checkpoints, utilisation reports, `ReconfigPlan`
//! execution, replay and the journal all run on the controller thread
//! *between* drains, against a provably idle data plane, so all five plan
//! kinds and recovery keep their single-threaded semantics at every thread
//! count. Workers need no mode for this: every flush stamps and sends under
//! the per-logical-operator emit gate (see [`SharedClock`]), which keeps each
//! logical stream's timestamps arriving monotonically at fan-ins — the
//! invariant the downstream duplicate filters rely on.

use std::collections::BTreeMap;
use std::time::Instant;

use seep_core::OperatorId;
use seep_net::Network;

use crate::metrics::Metrics;
use crate::placement::Placement;
use crate::worker::{SharedClock, WorkerCore, STEP_BUDGET};

/// Step the workers named by `order` (topologically sorted instances) across
/// up to `threads` OS threads until the data plane is quiescent; returns the
/// tuples processed.
pub(crate) fn drain(
    workers: &mut BTreeMap<OperatorId, WorkerCore>,
    order: &[OperatorId],
    placement: &Placement,
    network: &Network,
    metrics: &Metrics,
    epoch: Instant,
    threads: usize,
) -> u64 {
    let threads = threads.max(1);
    let mut live: BTreeMap<OperatorId, &mut WorkerCore> =
        workers.iter_mut().map(|(id, w)| (*id, w)).collect();
    let mut shards: Vec<Vec<&mut WorkerCore>> = (0..threads).map(|_| Vec::new()).collect();
    for id in order {
        if let Some(worker) = live.remove(id) {
            // Injected source tuples ship before the first pass: from here on
            // a step that processes nothing sends nothing, which is what lets
            // a silent pass or round stand for an empty plane.
            worker.flush_pending(network, metrics);
            let shard = placement
                .vm_of(*id)
                .map(|vm| (vm.0 % threads as u64) as usize)
                .unwrap_or(0);
            shards[shard].push(worker);
        }
    }
    shards.retain(|shard| !shard.is_empty());

    // Step one shard until a full pass over it makes no progress.
    let run = |shard: &mut Vec<&mut WorkerCore>| {
        let mut local = 0u64;
        loop {
            let mut pass = 0usize;
            for worker in shard.iter_mut() {
                pass += worker.step(network, metrics, epoch, STEP_BUDGET);
            }
            if pass == 0 {
                return local;
            }
            local += pass as u64;
        }
    };
    if let [only] = shards.as_mut_slice() {
        return run(only);
    }
    let mut total = 0u64;
    loop {
        let round: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|shard| scope.spawn(|| run(shard)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker thread panicked"))
                .sum()
        });
        if round == 0 {
            return total;
        }
        total += round;
    }
}

/// Everything a worker thread touches must cross the thread boundary; keep
/// that provable at compile time rather than discovered at monomorphisation.
#[allow(dead_code)]
fn assert_thread_bounds() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<WorkerCore>();
    send::<SharedClock>();
    sync::<SharedClock>();
    sync::<Network>();
    sync::<Metrics>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use seep_core::{Key, LogicalOpId, OutputTuple, RoutingState, StatelessFn, StreamId, Tuple};

    /// A pass-through operator that records the thread each call ran on.
    fn passthrough(seen: &Arc<Mutex<Vec<ThreadId>>>) -> Box<dyn seep_core::StatefulOperator> {
        let seen = Arc::clone(seen);
        Box::new(StatelessFn::new(
            "pass",
            move |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
                seen.lock().unwrap().push(std::thread::current().id());
                out.push(OutputTuple::new(t.key, t.payload.clone()));
            },
        ))
    }

    const PER_SIBLING: u64 = 2_000;

    /// Two sibling partitions (operators 10 and 11) of one logical operator,
    /// hosted on `vms`, feeding a shared fan-in (operator 30) with
    /// `PER_SIBLING` queued tuples each. Returns the workers, their
    /// placement, the siblings' shared clock and the fan-in's receiver.
    fn siblings(
        network: &Network,
        vms: [u64; 2],
        seen: &Arc<Mutex<Vec<ThreadId>>>,
    ) -> (
        BTreeMap<OperatorId, WorkerCore>,
        Placement,
        SharedClock,
        seep_net::DataReceiver,
    ) {
        let mut placement = Placement::new(2);
        let clock = SharedClock::new();
        let sink_rx = network.register(OperatorId::new(30));
        let mut workers = BTreeMap::new();
        for (id, vm) in [10u64, 11].into_iter().zip(vms) {
            let rx = network.register(OperatorId::new(id));
            let mut routing = BTreeMap::new();
            routing.insert(LogicalOpId(2), RoutingState::single(OperatorId::new(30)));
            let mut worker = WorkerCore::new(
                OperatorId::new(id),
                LogicalOpId(1),
                passthrough(seen),
                rx,
                routing,
                clock.clone(),
                false,
                false,
            );
            worker.out_batch = 7;
            workers.insert(OperatorId::new(id), worker);
            placement
                .assign(OperatorId::new(id), seep_cloud::VmId(vm), &[])
                .unwrap();
            for i in 0..PER_SIBLING {
                // Upstream timestamps are per-partition monotonic (distinct
                // synthetic upstream streams), as real routing guarantees.
                network
                    .send_tuple(
                        OperatorId::new(id - 10),
                        OperatorId::new(id),
                        StreamId((id - 10) as u32),
                        Tuple::new(i + 1, Key(i), vec![]),
                    )
                    .unwrap();
            }
        }
        (workers, placement, clock, sink_rx)
    }

    const ORDER: [OperatorId; 2] = [OperatorId(10), OperatorId(11)];

    /// Two sibling partitions of one logical operator emit concurrently from
    /// two threads into a shared fan-in; the emit gate must keep the shared
    /// stream monotonic so the downstream duplicate filter drops nothing.
    #[test]
    fn concurrent_siblings_reach_the_fan_in_without_false_drops() {
        let network = Network::new(65_536);
        let metrics = Metrics::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        // Distinct VMs so the two siblings land on different threads.
        let (mut workers, placement, clock, sink_rx) = siblings(&network, [0, 1], &seen);
        let epoch = Instant::now();
        let processed = drain(
            &mut workers,
            &ORDER,
            &placement,
            &network,
            &metrics,
            epoch,
            2,
        );
        assert_eq!(processed, 2 * PER_SIBLING);
        let here = std::thread::current().id();
        assert!(
            seen.lock().unwrap().iter().all(|id| *id != here),
            "two shards must run on spawned threads"
        );

        // Every envelope the fan-in received must pass its duplicate filter:
        // per-stream timestamps must be strictly increasing in arrival order.
        let mut last_ts = 0u64;
        let mut received = 0u64;
        for env in sink_rx.drain() {
            for t in &env.message.batch.tuples {
                assert!(
                    t.ts > last_ts,
                    "shared stream went non-monotonic: {} after {last_ts}",
                    t.ts
                );
                last_ts = t.ts;
                received += 1;
            }
        }
        assert_eq!(received, 2 * PER_SIBLING);
        assert_eq!(clock.last(), 2 * PER_SIBLING);
    }

    /// With every live worker in one shard the drain never leaves the
    /// calling thread, whatever thread count is configured.
    #[test]
    fn a_single_shard_runs_on_the_calling_thread() {
        for (threads, vms) in [(1, [0, 1]), (2, [0, 2]), (4, [3, 3])] {
            let network = Network::new(65_536);
            let metrics = Metrics::new();
            let seen = Arc::new(Mutex::new(Vec::new()));
            let (mut workers, placement, _clock, _sink_rx) = siblings(&network, vms, &seen);
            let processed = drain(
                &mut workers,
                &ORDER,
                &placement,
                &network,
                &metrics,
                Instant::now(),
                threads,
            );
            assert_eq!(processed, 2 * PER_SIBLING);
            let here = std::thread::current().id();
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len() as u64, 2 * PER_SIBLING);
            assert!(
                seen.iter().all(|id| *id == here),
                "threads={threads} vms={vms:?} left the calling thread"
            );
        }
    }

    /// An empty data plane is quiescent at once.
    #[test]
    fn empty_plane_quiesces_immediately() {
        let network = Network::new(16);
        let metrics = Metrics::new();
        let placement = Placement::new(1);
        let mut workers = BTreeMap::new();
        let total = drain(
            &mut workers,
            &[],
            &placement,
            &network,
            &metrics,
            Instant::now(),
            4,
        );
        assert_eq!(total, 0);
    }
}
