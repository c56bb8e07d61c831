//! Crash recovery: snapshot load + WAL suffix replay.
//!
//! The recovery contract this module certifies (and the crash-injection
//! suite in `tests/crash.rs` proves): after any crash,
//!
//! ```text
//! recover(latest decodable snapshot, its WAL)
//!     ≡ the live network at the last record that reached the log
//! ```
//!
//! — structurally equal conflict index and partition, bit-identical
//! probabilities/entropy (recomputation from the restored samples runs
//! the same kernels over the same matrix), and a byte-identical history.

use crate::error::StorageError;
use crate::{load_with_history, wal};
use smn_core::feedback::Assertion;
use smn_core::persist::{apply_event, apply_to_history};
use smn_core::ProbabilisticNetwork;

/// The result of a recovery: the rebuilt network, its session history,
/// the last applied WAL sequence number, and the anomaly (if any) that
/// ended the log scan.
#[derive(Debug)]
pub struct Recovered {
    /// The network as of the last durable record.
    pub network: ProbabilisticNetwork,
    /// The recovered session history (snapshot history + replayed
    /// assertions, with retirements renumbering exactly like the live
    /// session).
    pub history: Vec<Assertion>,
    /// The last WAL sequence number folded into `network`.
    pub applied_seq: u64,
    /// How many log records were replayed on top of the snapshot.
    pub replayed: usize,
    /// The anomaly that ended the WAL scan: `None` for a log that ended
    /// cleanly, otherwise the torn/corrupt record the crash left behind.
    /// Recovery *succeeds* either way — the readable prefix is durable;
    /// the caller decides whether a tear is acceptable.
    pub wal_error: Option<StorageError>,
}

/// Recovers a network from a snapshot buffer plus the WAL that continued
/// it. The snapshot is decoded strictly (a damaged snapshot is a hard
/// error — the caller falls back to an older generation); the WAL is
/// decoded tolerantly ([`wal::decode_prefix`]) and its intact suffix
/// (`seq > applied_seq`, strictly increasing) is replayed.
pub fn recover(snapshot: &[u8], wal_bytes: &[u8]) -> Result<Recovered, StorageError> {
    let (network, history, applied_seq) = load_with_history(snapshot)?;
    let (records, wal_error) = wal::decode_prefix(wal_bytes);
    replay(network, history, applied_seq, records, wal_error)
}

/// The replay half of [`recover`], reusable for multi-file WAL chains:
/// applies every record with `seq > applied_seq` in order, requiring
/// strictly increasing sequence numbers. A record that fails to apply
/// (possible only if the log and snapshot disagree — i.e. corruption the
/// checksums cannot see) ends the replay and is reported in `wal_error`,
/// never panicked.
pub fn replay(
    mut network: ProbabilisticNetwork,
    mut history: Vec<Assertion>,
    mut applied_seq: u64,
    records: Vec<(u64, smn_core::persist::NetworkEvent)>,
    mut wal_error: Option<StorageError>,
) -> Result<Recovered, StorageError> {
    let mut replayed = 0usize;
    for (seq, event) in records {
        if seq <= applied_seq {
            // already folded into the snapshot (the log predates it)
            continue;
        }
        if let Err(reason) = apply_event(&mut network, &event) {
            wal_error = Some(StorageError::Invalid(format!(
                "replay of wal record seq {seq} failed: {reason}"
            )));
            break;
        }
        apply_to_history(&mut history, &event);
        applied_seq = seq;
        replayed += 1;
    }
    Ok(Recovered { network, history, applied_seq, replayed, wal_error })
}
