//! The storage layer's part of every workload: recover a store directory
//! and check the recovered posterior bit for bit against the live one.

use crate::record::{median, timed, Outcome};
use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;
use smn_storage::DurableStore;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Recoveries per run; `recover_s` is their median.
const RECOVERIES: usize = 11;

/// What recovering one store directory measured.
pub struct Recovery {
    /// Median `DurableStore::recover` time in seconds.
    pub recover_s: f64,
    /// `DurableStore::open` time when the store was written here as a
    /// checkpoint of the final state.
    pub open: Option<Duration>,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
}

impl Recovery {
    /// Writes a checkpoint of `live` to a fresh `dir` and recovers it.
    pub fn checkpoint(
        dir: &Path,
        live: &ProbabilisticNetwork,
        history: &[Assertion],
        out: &mut Outcome,
    ) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let (store, open) = timed(|| {
            DurableStore::open(dir, live, history, history.len() as u64)
                .expect("checkpoint store opens")
        });
        drop(store);
        Self { open: Some(open), ..Self::existing(dir, live.probabilities(), out) }
    }

    /// Recovers an existing store directory whose posterior should equal
    /// `live`.
    pub fn existing(dir: &Path, live: &[f64], out: &mut Outcome) -> Self {
        let mut times = Vec::with_capacity(RECOVERIES);
        for _ in 0..RECOVERIES {
            let (recovered, elapsed) = timed(|| DurableStore::recover(dir));
            times.push(elapsed.as_secs_f64());
            match recovered {
                Ok(r) => {
                    let same = r.wal_error.is_none()
                        && r.network
                            .probabilities()
                            .iter()
                            .map(|p| p.to_bits())
                            .eq(live.iter().map(|p| p.to_bits()));
                    out.check(same, || {
                        "the recovered posterior is not bitwise equal to the live one".into()
                    });
                }
                Err(e) => out.check(false, || format!("recovery failed: {e}")),
            }
        }
        Self {
            recover_s: median(&times),
            open: None,
            wal_bytes: dir_bytes(dir, "wal-"),
            snapshot_bytes: dir_bytes(dir, "snapshot-"),
        }
    }

    /// The storage layer metrics of a traced run.
    pub fn layer_metrics(&self, out: &mut Outcome, open: Duration) {
        out.metric("storage.open_ms", self.open.unwrap_or(open).as_secs_f64() * 1e3, "ms");
        out.metric("storage.wal_bytes", self.wal_bytes as f64, "bytes");
        out.metric("storage.snapshot_bytes", self.snapshot_bytes as f64, "bytes");
        out.metric("storage.recover_ms", self.recover_s * 1e3, "ms");
    }
}

/// A fresh, empty directory under the run's output directory.
pub fn fresh_dir(out_dir: &Path, name: &str) -> PathBuf {
    let dir = out_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
