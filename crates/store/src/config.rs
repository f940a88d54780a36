//! Serialisable store configuration from which the runtime builds one
//! checkpoint store per upstream VM.

use std::path::PathBuf;
use std::sync::Arc;

use serde::ser::SerializeRecord;
use serde::{Deserialize, Serialize, Serializer};

use seep_core::error::{Error, Result};

use crate::file::{FileStore, FileStoreConfig, SEGMENT_TARGET_BYTES};
use crate::mem::MemStore;
use crate::tiered::TieredStore;
use crate::traits::CheckpointStore;

/// Which backend a [`StoreConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreBackendKind {
    /// In-memory only (the seed's behaviour): fastest, lost with the VM.
    Mem,
    /// Log-structured on-disk store: durable, recovery reads from disk.
    File,
    /// Hot latest checkpoint in memory, everything durable on disk.
    Tiered,
}

impl StoreBackendKind {
    /// Short label used in metrics and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            StoreBackendKind::Mem => "mem",
            StoreBackendKind::File => "file",
            StoreBackendKind::Tiered => "tiered",
        }
    }
}

/// Byte budget of each `TieredStore`'s in-memory hot tier.
const HOT_BYTES_BUDGET: usize = 64 * 1024 * 1024;

/// Configuration of the checkpoint-store subsystem.
#[derive(Debug, Clone, Deserialize)]
pub struct StoreConfig {
    /// Backend to build.
    pub backend: StoreBackendKind,
    /// Base directory for on-disk backends; each store gets a subdirectory
    /// named after the VM/operator hosting it. Required for `File`/`Tiered`.
    pub dir: Option<PathBuf>,
    /// `FileStore`: fsync appended records.
    pub fsync: bool,
    /// `FileStore`: with `fsync` on, coalesce to one `sync_data` per this
    /// many appended frames (1 = sync every record).
    pub sync_every_n_frames: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            backend: StoreBackendKind::Mem,
            dir: None,
            fsync: false,
            sync_every_n_frames: 1,
        }
    }
}

impl StoreConfig {
    /// The in-memory backend (the seed's behaviour).
    pub fn mem() -> Self {
        StoreConfig::default()
    }

    /// The durable on-disk backend rooted at `dir`.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            backend: StoreBackendKind::File,
            dir: Some(dir.into()),
            ..StoreConfig::default()
        }
    }

    /// The tiered backend rooted at `dir`.
    pub fn tiered(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            backend: StoreBackendKind::Tiered,
            dir: Some(dir.into()),
            ..StoreConfig::default()
        }
    }

    /// Enable per-record durability, coalescing the `sync_data` calls to one
    /// per `n` appended frames (1 = sync every record; a crash loses at most
    /// the last `n - 1` unflushed records, which the crash scan truncates on
    /// the next open).
    pub fn with_fsync_every(mut self, n: usize) -> Self {
        self.fsync = true;
        self.sync_every_n_frames = n.max(1);
        self
    }

    /// Backend label for metrics.
    pub fn label(&self) -> &'static str {
        self.backend.label()
    }

    fn file_config(&self, label: &str) -> Result<FileStoreConfig> {
        let dir = self.dir.clone().ok_or_else(|| {
            Error::Store(format!(
                "{} store requires a base directory (StoreConfig.dir)",
                self.backend.label()
            ))
        })?;
        Ok(FileStoreConfig {
            fsync: self.fsync,
            sync_every_n_frames: self.sync_every_n_frames,
            ..FileStoreConfig::new(dir.join(label))
        })
    }

    /// Build a store instance. `label` names the hosting VM/operator and
    /// becomes the subdirectory of on-disk backends.
    pub fn build(&self, label: &str) -> Result<Arc<dyn CheckpointStore>> {
        Ok(match self.backend {
            StoreBackendKind::Mem => Arc::new(MemStore::new()),
            StoreBackendKind::File => Arc::new(FileStore::open(self.file_config(label)?)?),
            StoreBackendKind::Tiered => Arc::new(TieredStore::open(
                self.file_config(label)?,
                HOT_BYTES_BUDGET,
            )?),
        })
    }

    /// Remove what [`build`](Self::build) left on disk for `label`, best
    /// effort. Call it once nothing reads that store any more.
    pub fn remove(&self, label: &str) {
        if let (StoreBackendKind::File | StoreBackendKind::Tiered, Some(dir)) =
            (self.backend, &self.dir)
        {
            let _ = std::fs::remove_dir_all(dir.join(label));
        }
    }
}

/// The encoding still carries the segment size and the hot-tier budget, now
/// constants, so it stays byte for byte what it was when both were fields;
/// decoding skips them.
impl Serialize for StoreConfig {
    fn serialize<S: Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        let mut record = s.serialize_record(6)?;
        record.serialize_field("backend", &self.backend)?;
        record.serialize_field("dir", &self.dir)?;
        record.serialize_field("segment_target_bytes", &SEGMENT_TARGET_BYTES)?;
        record.serialize_field("hot_bytes_budget", &HOT_BYTES_BUDGET)?;
        record.serialize_field("fsync", &self.fsync)?;
        record.serialize_field("sync_every_n_frames", &self.sync_every_n_frames)?;
        record.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_mem_and_builds() {
        let config = StoreConfig::default();
        assert_eq!(config.backend, StoreBackendKind::Mem);
        let store = config.build("op-1").unwrap();
        assert_eq!(store.backend(), "mem");
    }

    #[test]
    fn file_backend_requires_dir() {
        let config = StoreConfig {
            backend: StoreBackendKind::File,
            dir: None,
            ..StoreConfig::default()
        };
        assert!(config.build("op-1").is_err());
    }

    #[test]
    fn file_and_tiered_build_under_label_subdir() {
        let base =
            std::env::temp_dir().join(format!("seep-storeconfig-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let store = StoreConfig::file(&base).build("op-7").unwrap();
        assert_eq!(store.backend(), "file");
        assert!(base.join("op-7").is_dir());
        let store = StoreConfig::tiered(&base).build("op-8").unwrap();
        assert_eq!(store.backend(), "tiered");
        assert!(base.join("op-8").is_dir());
    }

    #[test]
    fn config_roundtrips_through_serde() {
        let config = StoreConfig::file("/tmp/x").with_fsync_every(4);
        let bytes = bincode::serialize(&config).unwrap();
        let back: StoreConfig = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back.backend, StoreBackendKind::File);
        assert_eq!((back.fsync, back.sync_every_n_frames), (true, 4));
        assert_eq!(back.dir.as_deref(), config.dir.as_deref());
    }
}
