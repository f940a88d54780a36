//! # seep-store
//!
//! The durable checkpoint-store subsystem (§3.2 of the paper, "backup-state"
//! made pluggable). The seed system only ever kept backed-up checkpoints in a
//! `HashMap` behind a lock, which made backup durability, checkpoint size and
//! recovery I/O cost unmeasurable. This crate turns the storage side of
//! operator state management into a first-class subsystem:
//!
//! * [`CheckpointStore`] — the trait every backend implements: `put` a full
//!   checkpoint, `apply_incremental` a delta on top of the stored base,
//!   `latest` for restore, and the two
//!   elasticity hooks run against the stored copies:
//!   `partition_for_scale_out` (Algorithm 2) and its inverse
//!   `merge_for_scale_in` (the §3.3 merge primitive).
//! * [`MemStore`] — the in-memory backend, extracted from the seed's
//!   `InMemoryBackupStore`: one checkpoint per owner.
//! * [`FileStore`] — a log-structured on-disk backend: length+CRC-framed
//!   append-only segments, incremental-checkpoint delta records whose
//!   chain never outgrows its base, reclamation of dead segments and
//!   crash-safe recovery by log scan.
//! * [`TieredStore`] — hot latest checkpoint in memory, every checkpoint
//!   durable on disk, with the eviction decision delegated to the
//!   [`seep_core::spill::SpillPolicy`] hooks.
//! * [`BackupCoordinator`] — Algorithm 1 (`backup-state(o)`): selects the
//!   upstream backup operator by hashing, stores the checkpoint there,
//!   releases stale backups and reports how far upstream buffers may be
//!   trimmed. Moved here from `seep-core` so it can coordinate any backend.
//! * [`StoreConfig`] — serialisable configuration from which the runtime
//!   builds one store per upstream VM.
//!
//! Every backend tracks per-store write/restore byte and latency counters
//! ([`StoreStats`]), which `seep-runtime` aggregates into its metrics so the
//! checkpoint/recovery benches can compare backends honestly.
//!
//! # Example
//!
//! Store a checkpoint per partition, split one for scale out, then merge the
//! two halves back for scale in — every backend supports the same loop:
//!
//! ```
//! use seep_core::state::{BufferState, ProcessingState};
//! use seep_core::{Checkpoint, Key, KeyRange, OperatorId};
//! use seep_store::{CheckpointStore, MemStore};
//!
//! let store = MemStore::new(); // or StoreConfig::file(dir).build("op-1")?
//! let owner = OperatorId::new(1);
//! let mut state = ProcessingState::empty();
//! state.insert(Key(3), b"three".to_vec());
//! state.insert(Key(u64::MAX - 3), b"huge".to_vec());
//! store.put(owner, Checkpoint::new(owner, 1, state, BufferState::new()))?;
//!
//! // Scale out: Algorithm 2 runs against the stored copy.
//! let halves = KeyRange::full().split_even(2)?;
//! let (left, right) = (OperatorId::new(2), OperatorId::new(3));
//! let parts = store.partition_for_scale_out(owner, &[(left, halves[0]), (right, halves[1])])?;
//! assert_eq!(parts.len(), 2);
//! store.put(left, parts[0].clone())?;
//! store.put(right, parts[1].clone())?;
//!
//! // Scale in: merge the adjacent halves back into one owner.
//! let merged_owner = OperatorId::new(4);
//! let (merged, range) =
//!     store.merge_for_scale_in(merged_owner, (left, halves[0]), (right, halves[1]))?;
//! assert_eq!(range, KeyRange::full());
//! assert_eq!(merged.processing.len(), 2, "both keys back in one state");
//! # Ok::<(), seep_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod file;
pub mod mem;
pub mod tiered;
pub mod traits;

pub use config::{StoreBackendKind, StoreConfig};
pub use coordinator::{BackupCoordinator, BackupOutcome, BackupRegistry};
pub use file::{FileStore, FileStoreConfig};
pub use mem::MemStore;
pub use tiered::TieredStore;
pub use traits::{CheckpointStore, PutOutcome, StoreStats};
