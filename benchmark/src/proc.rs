//! Process-level helpers: resident-set peaks, scratch directories that are
//! removed on every exit path, and child processes that cannot outlive us.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of process `pid` in MB, read from `/proc`.
/// `None` once the process is gone (or on a system without `/proc`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(0.0)
}

/// A directory under the output directory, deleted when dropped — also
/// while unwinding from a failed assertion.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(out_dir: &Path, label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = out_dir.join(format!(
            "tmp-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A spawned `seep-node` process, killed and reaped when dropped.
pub struct NodeChild {
    child: Child,
    /// Last peak resident set seen while the process was alive.
    pub peak_rss_mb: f64,
}

impl NodeChild {
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Self> {
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        Ok(NodeChild {
            child,
            peak_rss_mb: 0.0,
        })
    }

    /// Refresh [`peak_rss_mb`](Self::peak_rss_mb) if the process is alive.
    pub fn sample_rss(&mut self) {
        if let Some(mb) = peak_rss_mb(self.child.id()) {
            self.peak_rss_mb = self.peak_rss_mb.max(mb);
        }
    }

    /// `Some(success)` once the process has exited.
    pub fn poll_exit(&mut self) -> std::io::Result<Option<bool>> {
        Ok(self.child.try_wait()?.map(|status| status.success()))
    }

    /// Wait up to `limit` for the process to exit by itself.
    pub fn wait_exit(&mut self, limit: Duration) -> std::io::Result<Option<bool>> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(ok) = self.poll_exit()? {
                return Ok(Some(ok));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for NodeChild {
    fn drop(&mut self) {
        // Errors mean it is already gone, which is what we want.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        assert!(own_peak_rss_mb() > 0.0);
        assert!(peak_rss_mb(u32::MAX).is_none());
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_unwind() {
        let base = std::env::temp_dir().join(format!("seep-benchmark-test-{}", std::process::id()));
        let kept;
        {
            let dir = ScratchDir::create(&base, "a").unwrap();
            kept = dir.path().to_path_buf();
            std::fs::write(kept.join("f"), b"x").unwrap();
            assert!(kept.is_dir());
        }
        assert!(!kept.exists());

        let base2 = base.clone();
        let unwound = std::panic::catch_unwind(move || {
            let dir = ScratchDir::create(&base2, "b").unwrap();
            let path = dir.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        })
        .unwrap_err();
        let path = unwound.downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
