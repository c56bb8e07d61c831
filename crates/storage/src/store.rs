//! The file-backed durable store: snapshot generations + WAL rotation.
//!
//! A store is a directory of generation-numbered file pairs:
//!
//! ```text
//! snapshot-0000000007.smn   the generation-7 snapshot
//! wal-0000000007.log        the log continuing that snapshot
//! ```
//!
//! Opening a store publishes a fresh generation (snapshot + empty log);
//! [`publish`](DurableStore::publish) between reconciliation rounds
//! rotates to the next one. Snapshot writes are atomic — temp file,
//! `sync_all`, rename, directory sync — so a crash mid-publish leaves
//! the previous generation intact; the previous generation's pair is
//! kept as a fallback against a snapshot torn *after* the rename (e.g.
//! media corruption), and older ones are pruned.
//!
//! [`DurableStore::recover`] walks generations newest-first, takes the
//! first snapshot that decodes, and replays every WAL of that generation
//! and later (ascending, with the `seq > applied_seq` filter), so a
//! corrupt newest snapshot degrades to *older snapshot + longer replay*,
//! never to data loss.
//!
//! # Fault latch
//!
//! The store latches its first storage fault. The first failed
//! [`append`](DurableStore::append), [`sync`](DurableStore::sync) or
//! [`publish`](DurableStore::publish) is kept; every later call returns
//! that same error without touching a file, and
//! [`fault`](DurableStore::fault) reports it. Stopping at the first
//! fault is what recovery needs anyway: records appended after a torn
//! one are dropped by [`wal::decode_prefix`]. Callers can therefore
//! journal without checking results and read the fault once, at report
//! time.

use crate::error::StorageError;
use crate::recover::{replay, Recovered};
use crate::{load_with_history, save_with_history, wal};
use smn_core::feedback::Assertion;
use smn_core::persist::NetworkEvent;
use smn_core::ProbabilisticNetwork;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A directory-backed durable store for one probabilistic network.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    generation: u64,
    wal_file: File,
    next_seq: u64,
    /// The first failed `append`/`sync`/`publish`; see the module docs.
    fault: Option<StorageError>,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:010}.smn"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:010}.log"))
}

/// Parses `<stem>-<generation>.<ext>` names produced by this module.
fn parse_generation(name: &str, stem: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(stem)?.strip_prefix('-')?;
    rest.strip_suffix(ext)?.strip_suffix('.')?.parse().ok()
}

fn list_generations(dir: &Path, stem: &str, ext: &str) -> Result<Vec<u64>, StorageError> {
    let mut generations = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(generation) = parse_generation(name, stem, ext) {
                generations.push(generation);
            }
        }
    }
    generations.sort_unstable();
    Ok(generations)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    Ok(())
}

fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    // directory fsync makes the rename itself durable on unix; other
    // platforms get a best-effort no-op
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Writes generation `g`: the snapshot atomically, then a fresh WAL
/// holding only the header. Returns the open WAL file.
fn write_generation(
    dir: &Path,
    generation: u64,
    pn: &ProbabilisticNetwork,
    history: &[Assertion],
    applied_seq: u64,
) -> Result<File, StorageError> {
    write_atomic(&snapshot_path(dir, generation), &save_with_history(pn, history, applied_seq))?;
    let mut f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(wal_path(dir, generation))?;
    f.write_all(&wal::wal_header())?;
    f.sync_all()?;
    sync_dir(dir)?;
    Ok(f)
}

impl DurableStore {
    /// Opens (creating if needed) a store directory and publishes a
    /// fresh generation for `pn`: a snapshot carrying `history` and
    /// `applied_seq`, plus an empty WAL whose first record will be
    /// `applied_seq + 1`. Use `applied_seq` from a prior
    /// [`recover`](DurableStore::recover) to resume an existing store,
    /// or `0` for a new one.
    pub fn open(
        dir: &Path,
        pn: &ProbabilisticNetwork,
        history: &[Assertion],
        applied_seq: u64,
    ) -> Result<Self, StorageError> {
        fs::create_dir_all(dir)?;
        let generation = list_generations(dir, "snapshot", "smn")?
            .last()
            .map_or(0, |&g| g + 1)
            .max(list_generations(dir, "wal", "log")?.last().map_or(0, |&g| g + 1));
        let wal_file = write_generation(dir, generation, pn, history, applied_seq)?;
        let store = Self {
            dir: dir.to_path_buf(),
            generation,
            wal_file,
            next_seq: applied_seq + 1,
            fault: None,
        };
        store.prune(generation)?;
        Ok(store)
    }

    /// Removes snapshot/WAL pairs older than `generation - 1`: the
    /// current pair plus one fallback generation are kept.
    fn prune(&self, generation: u64) -> Result<(), StorageError> {
        let keep_from = generation.saturating_sub(1);
        for g in list_generations(&self.dir, "snapshot", "smn")? {
            if g < keep_from {
                fs::remove_file(snapshot_path(&self.dir, g))?;
            }
        }
        for g in list_generations(&self.dir, "wal", "log")? {
            if g < keep_from {
                fs::remove_file(wal_path(&self.dir, g))?;
            }
        }
        Ok(())
    }

    /// Runs one writing operation under the fault latch: a latched
    /// fault is returned without running `op`, and `op`'s own failure
    /// becomes the latched fault.
    fn latched<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        op(self).inspect_err(|e| self.fault = Some(e.clone()))
    }

    /// Appends one event to the current WAL and flushes it to the file;
    /// returns the assigned sequence number. Call
    /// [`sync`](DurableStore::sync) to force it to media. Fails with the
    /// latched fault, if any, without writing.
    pub fn append(&mut self, event: &NetworkEvent) -> Result<u64, StorageError> {
        self.latched(|store| {
            let seq = store.next_seq;
            let mut frame = Vec::with_capacity(33);
            wal::encode_record_into(&mut frame, seq, event);
            store.wal_file.write_all(&frame)?;
            store.wal_file.flush()?;
            store.next_seq += 1;
            Ok(seq)
        })
    }

    /// Forces the current WAL to stable media (`fsync`). Fails with the
    /// latched fault, if any, without syncing.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.latched(|store| Ok(store.wal_file.sync_data()?))
    }

    /// Publishes the next snapshot generation for `pn` (which must have
    /// every appended event applied) and rotates the WAL: the new
    /// snapshot carries `applied_seq` = the last appended sequence, the
    /// new log starts right after it, and generations older than the
    /// previous one are pruned. Returns the new generation number.
    /// Fails with the latched fault, if any, without writing.
    pub fn publish(
        &mut self,
        pn: &ProbabilisticNetwork,
        history: &[Assertion],
    ) -> Result<u64, StorageError> {
        self.latched(|store| {
            store.wal_file.sync_data()?;
            let generation = store.generation + 1;
            let applied_seq = store.next_seq - 1;
            store.wal_file = write_generation(&store.dir, generation, pn, history, applied_seq)?;
            store.generation = generation;
            store.prune(generation)?;
            Ok(generation)
        })
    }

    /// The latched storage fault: the first failed
    /// [`append`](DurableStore::append), [`sync`](DurableStore::sync) or
    /// [`publish`](DurableStore::publish), or `None` while the store is
    /// healthy.
    pub fn fault(&self) -> Option<&StorageError> {
        self.fault.as_ref()
    }

    /// The current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sequence number the next appended event will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Recovers the newest durable state from a store directory: the
    /// newest *decodable* snapshot, plus the intact prefix of every WAL
    /// of its generation and later, replayed in order. Fails only when
    /// no snapshot in the directory decodes.
    pub fn recover(dir: &Path) -> Result<Recovered, StorageError> {
        let generations = list_generations(dir, "snapshot", "smn")?;
        let mut last_error = StorageError::Io(format!("no snapshot found in {}", dir.display()));
        for &generation in generations.iter().rev() {
            let loaded = fs::read(snapshot_path(dir, generation))
                .map_err(StorageError::from)
                .and_then(|bytes| load_with_history(&bytes));
            let (network, history, applied_seq) = match loaded {
                Ok(l) => l,
                Err(e) => {
                    last_error = e;
                    continue;
                }
            };
            // chain every log from this snapshot's generation on; a tear
            // in any of them ends the trustworthy suffix
            let mut records = Vec::new();
            let mut wal_error = None;
            for wal_gen in list_generations(dir, "wal", "log")? {
                if wal_gen < generation {
                    continue;
                }
                let wal_bytes = match fs::read(wal_path(dir, wal_gen)) {
                    Ok(b) => b,
                    Err(e) => {
                        wal_error = Some(StorageError::from(e));
                        break;
                    }
                };
                let (prefix, err) = wal::decode_prefix(&wal_bytes);
                records.extend(prefix);
                if let Some(e) = err {
                    wal_error = Some(e);
                    break;
                }
            }
            return replay(network, history, applied_seq, records, wal_error);
        }
        Err(last_error)
    }
}
