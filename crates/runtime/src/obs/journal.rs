//! The structured reconfiguration event journal.
//!
//! Every [`crate::reconfig::ReconfigPlan`] the runtime executes — scale out,
//! scale in, rebalance, consolidate, recovery, whether triggered manually or
//! by the control loop — appends one [`JournalEvent`] carrying the plan
//! kind, the trigger, the per-phase [`ReconfigTiming`], the placement delta
//! and the VMs released/acquired. Events land in a bounded in-memory ring
//! ([`seep_core::EventRing`]) and, when a sink is attached, in a JSONL file
//! whose lines [`Journal::replay_file`] parses back so post-mortems can
//! reconstruct exactly what the control loop did ([`Journal::render`]).

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use seep_core::EventRing;

use crate::metrics::ReconfigTiming;

/// Default number of events the in-memory ring retains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1_024;

/// The kind of a reconfiguration plan, without its arguments: the one name
/// the journal, the [`crate::metrics::ReconfigRecord`] list, the per-kind
/// exposition series and the health derivation all use. (The plan *shape*,
/// with the instances it addresses, is [`crate::reconfig::ReconfigKind`];
/// recovery shares the scale-out shape and differs only here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JournalKind {
    /// One instance replaced by π fresh partitions on new VMs.
    ScaleOut,
    /// Two sibling partitions merged; a VM slot vacated.
    ScaleIn,
    /// All π partitions re-split in place by the observed key distribution.
    Rebalance,
    /// Partitions bin-packed onto shared VM slots; emptied VMs released.
    Consolidate,
    /// A failed instance restored — the same plan as a scale out of the
    /// failed operator, recorded under its own kind.
    Recovery,
}

impl JournalKind {
    /// Lowercase label used by the replay printer and the exposition.
    pub fn label(self) -> &'static str {
        match self {
            JournalKind::ScaleOut => "scale_out",
            JournalKind::ScaleIn => "scale_in",
            JournalKind::Rebalance => "rebalance",
            JournalKind::Consolidate => "consolidate",
            JournalKind::Recovery => "recovery",
        }
    }
}

/// What initiated a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanTrigger {
    /// An explicit API call (experiment script, operator action).
    #[default]
    Manual,
    /// The bottleneck detector's control loop.
    AutoScale,
}

impl PlanTrigger {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            PlanTrigger::Manual => "manual",
            PlanTrigger::AutoScale => "auto_scale",
        }
    }
}

/// One partition ↔ VM slot binding, as raw ids so the journal stays
/// serialisable without depending on the id newtypes' wire format. `vm` is
/// `None` for an instance that had no slot (a failed operator whose
/// placement was already released).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotBinding {
    /// Physical operator instance id.
    pub operator: u64,
    /// Hosting VM id, when placed.
    pub vm: Option<u64>,
}

/// One reconfiguration, as recorded by the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Monotone sequence number over the journal's lifetime (assigned by
    /// [`Journal::append`]).
    pub seq: u64,
    /// Virtual time of the plan (ms).
    pub at_ms: u64,
    /// Plan shape.
    pub kind: JournalKind,
    /// What initiated the plan.
    pub trigger: PlanTrigger,
    /// Raw id of the logical operator the plan reconfigured.
    pub logical: u32,
    /// Name of the logical operator.
    pub operator: String,
    /// Parallelism after the plan (0 for a rejected plan).
    pub new_parallelism: usize,
    /// Tuples replayed from restored and upstream buffers.
    pub replayed_tuples: usize,
    /// Per-phase wall-clock cost of the plan.
    pub timing: ReconfigTiming,
    /// Placement delta: the slots the replaced instances vacated.
    pub vacated: Vec<SlotBinding>,
    /// Placement delta: the slots the new instances occupy.
    pub placed: Vec<SlotBinding>,
    /// VMs released back to the provider by the plan (billing stopped).
    pub released_vms: Vec<u64>,
    /// VMs newly drawn from the pool by the plan.
    pub acquired_vms: Vec<u64>,
    /// `"ok"`, or `"rejected: <error>"` for a plan the executor refused
    /// (fail-before-rewrite: the runtime is exactly as it was).
    pub outcome: String,
}

impl JournalEvent {
    /// Whether the plan committed.
    pub fn committed(&self) -> bool {
        self.outcome == "ok"
    }
}

struct JournalInner {
    ring: EventRing<JournalEvent>,
    sink: Option<File>,
    sink_path: Option<PathBuf>,
    sink_errors: u64,
}

/// Thread-safe reconfiguration journal: bounded in-memory ring plus an
/// optional JSONL file sink.
pub struct Journal {
    inner: Mutex<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Journal")
            .field("retained", &inner.ring.len())
            .field("total", &inner.ring.total())
            .field("sink", &inner.sink_path)
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// An empty journal retaining at most `capacity` events in memory.
    pub fn new(capacity: usize) -> Self {
        Journal {
            inner: Mutex::new(JournalInner {
                ring: EventRing::new(capacity),
                sink: None,
                sink_path: None,
                sink_errors: 0,
            }),
        }
    }

    /// Append an event; its `seq` is overwritten with the journal's next
    /// sequence number, which is returned. When a file sink is attached the
    /// event is also written as one JSON line; write failures are counted
    /// ([`sink_errors`](Self::sink_errors)) but never fail the append — the
    /// journal must not take down the reconfiguration that feeds it.
    pub fn append(&self, mut event: JournalEvent) -> u64 {
        let mut inner = self.inner.lock();
        event.seq = inner.ring.total();
        if let Some(sink) = inner.sink.as_mut() {
            match write_jsonl(sink, &event) {
                Ok(()) => {}
                Err(_) => inner.sink_errors += 1,
            }
        }
        inner.ring.push(event)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.inner.lock().ring.items()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether nothing was ever appended (the ring never shrinks, so an
    /// empty ring means an empty lifetime).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// Total events appended over the journal's lifetime.
    pub fn total(&self) -> u64 {
        self.inner.lock().ring.total()
    }

    /// JSONL lines that failed to reach the sink.
    pub fn sink_errors(&self) -> u64 {
        self.inner.lock().sink_errors
    }

    /// Attach (or replace) a JSONL file sink at `path`. The file is created
    /// fresh and the events already retained in memory are written first, so
    /// the file is complete from the journal's retained horizon onward.
    pub fn attach_sink(&self, path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path)?;
        let mut inner = self.inner.lock();
        for event in inner.ring.items() {
            write_jsonl(&mut file, &event)?;
        }
        inner.sink = Some(file);
        inner.sink_path = Some(path.clone());
        Ok(path)
    }

    /// The attached sink path, if any.
    pub fn sink_path(&self) -> Option<PathBuf> {
        self.inner.lock().sink_path.clone()
    }

    /// Detach the file sink (the file is flushed and closed).
    pub fn detach_sink(&self) {
        let mut inner = self.inner.lock();
        if let Some(mut sink) = inner.sink.take() {
            let _ = sink.flush();
        }
        inner.sink_path = None;
    }

    /// Parse a JSONL journal file back into events (the `journal replay`
    /// entry point). A malformed line surfaces as `InvalidData` with the
    /// line number.
    pub fn replay_file(path: impl AsRef<Path>) -> std::io::Result<Vec<JournalEvent>> {
        let reader = BufReader::new(File::open(path)?);
        let mut events = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let event: JournalEvent = serde_json::from_str(&line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal line {}: {e}", lineno + 1),
                )
            })?;
            events.push(event);
        }
        Ok(events)
    }

    /// Pretty-print events for a post-mortem: one block per event with the
    /// plan kind, trigger, per-phase timings and the placement delta.
    pub fn render(events: &[JournalEvent]) -> String {
        let mut out = String::new();
        for e in events {
            let t = &e.timing;
            out.push_str(&format!(
                "#{:<4} t={}ms  {:<11} {} (L{}) -> pi={}  trigger={}  outcome={}\n",
                e.seq,
                e.at_ms,
                e.kind.label(),
                e.operator,
                e.logical,
                e.new_parallelism,
                e.trigger.label(),
                e.outcome,
            ));
            out.push_str(&format!(
                "      phases µs: drain={} checkpoint={} rewrite={} transform={} \
                 restore={} commit={} replay={} total={}\n",
                t.drain_us,
                t.checkpoint_us,
                t.rewrite_us,
                t.transform_us,
                t.restore_us,
                t.commit_us,
                t.replay_us,
                t.total_us,
            ));
            let fmt_slots = |slots: &[SlotBinding]| -> String {
                slots
                    .iter()
                    .map(|s| match s.vm {
                        Some(vm) => format!("op{}@vm{}", s.operator, vm),
                        None => format!("op{}@-", s.operator),
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "      placement: -[{}] +[{}]  released_vms={:?} acquired_vms={:?}\n",
                fmt_slots(&e.vacated),
                fmt_slots(&e.placed),
                e.released_vms,
                e.acquired_vms,
            ));
            out.push_str(&format!(
                "      replayed {} tuples; split={} (sampled imbalance {:.2})\n",
                e.replayed_tuples,
                t.split.label(),
                t.post_split_imbalance,
            ));
        }
        out
    }
}

fn write_jsonl(sink: &mut File, event: &JournalEvent) -> std::io::Result<()> {
    let line = serde_json::to_string(event)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    sink.write_all(line.as_bytes())?;
    sink.write_all(b"\n")?;
    sink.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SplitKind;

    fn event(at_ms: u64, kind: JournalKind) -> JournalEvent {
        JournalEvent {
            seq: 0,
            at_ms,
            kind,
            trigger: PlanTrigger::Manual,
            logical: 2,
            operator: "word_counter".into(),
            new_parallelism: 2,
            replayed_tuples: 17,
            timing: ReconfigTiming {
                drain_us: 1,
                checkpoint_us: 2,
                rewrite_us: 3,
                transform_us: 4,
                restore_us: 5,
                commit_us: 6,
                replay_us: 7,
                total_us: 28,
                split: SplitKind::Even,
                post_split_imbalance: 1.0,
            },
            vacated: vec![SlotBinding {
                operator: 3,
                vm: Some(1),
            }],
            placed: vec![
                SlotBinding {
                    operator: 7,
                    vm: Some(1),
                },
                SlotBinding {
                    operator: 8,
                    vm: Some(4),
                },
            ],
            released_vms: vec![],
            acquired_vms: vec![4],
            outcome: "ok".into(),
        }
    }

    #[test]
    fn append_assigns_monotone_sequence_numbers() {
        let j = Journal::new(8);
        assert!(j.is_empty());
        assert_eq!(j.append(event(1_000, JournalKind::ScaleOut)), 0);
        assert_eq!(j.append(event(2_000, JournalKind::Rebalance)), 1);
        assert_eq!(j.total(), 2);
        let events = j.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].committed());
    }

    #[test]
    fn ring_keeps_newest_events_only() {
        let j = Journal::new(2);
        for i in 0..5 {
            j.append(event(i * 1_000, JournalKind::ScaleOut));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.total(), 5);
        assert_eq!(j.events()[0].seq, 3);
    }

    #[test]
    fn jsonl_sink_roundtrips_through_replay() {
        let dir = std::env::temp_dir().join("seep-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("j-{}.jsonl", std::process::id()));
        let j = Journal::new(16);
        // One event before the sink attaches: attach writes the backlog.
        j.append(event(1_000, JournalKind::ScaleOut));
        j.attach_sink(&path).unwrap();
        j.append(event(2_000, JournalKind::Rebalance));
        j.append(event(3_000, JournalKind::Consolidate));
        assert_eq!(j.sink_errors(), 0);
        assert_eq!(j.sink_path().as_deref(), Some(path.as_path()));
        j.detach_sink();

        let replayed = Journal::replay_file(&path).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed, j.events());
        assert_eq!(replayed[1].kind, JournalKind::Rebalance);
        assert_eq!(replayed[2].at_ms, 3_000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("seep-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{not json\n").unwrap();
        let err = Journal::replay_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn render_lists_phases_and_placement_delta() {
        let events = vec![
            event(5_000, JournalKind::ScaleOut),
            event(9_000, JournalKind::Consolidate),
        ];
        let text = Journal::render(&events);
        assert!(text.contains("scale_out"), "{text}");
        assert!(text.contains("consolidate"), "{text}");
        assert!(text.contains("drain=1"), "{text}");
        assert!(text.contains("total=28"), "{text}");
        assert!(text.contains("-[op3@vm1]"), "{text}");
        assert!(text.contains("+[op7@vm1, op8@vm4]"), "{text}");
        assert!(text.contains("word_counter"), "{text}");
    }
}
