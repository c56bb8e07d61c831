//! # smn-storage
//!
//! Durable probabilistic networks: a versioned binary snapshot format
//! ([`mod@format`]), an append-only write-ahead log of assertion/evolution
//! events ([`wal`]), crash recovery as *load snapshot + replay log
//! suffix* ([`recover()`]), and a file-backed [`store::DurableStore`]
//! managing snapshot generations and log rotation.
//!
//! The store latches its first storage fault: after one failed append,
//! sync or publish, every later write returns that error without
//! touching a file, and [`DurableStore::fault`] reports it. Engines
//! journal through it without a latch of their own.
//!
//! The load path rebuilds along the same `Arc` boundaries the live
//! network uses — shared [`SampleData`]/[`ShardSnapshot`] behind
//! copy-on-write pointers — without re-sampling: the recorded instance
//! multiset Ω\* is re-recorded in discovery order, which reconstructs the
//! transposed sample matrix bit-identically, and probabilities are then
//! *recomputed* through the same kernels. Hence `load(save(pn))` matches
//! `pn` exactly: probabilities, entropy and information gain to the last
//! bit, conflict index and component partition structurally equal.
//!
//! [`SampleData`]: smn_core::sampling::SampleStore
//! [`ShardSnapshot`]: smn_core::ProbabilisticNetwork
//!
//! Nothing in this crate panics on untrusted bytes: every decoder
//! returns a typed [`StorageError`].

pub mod error;
pub mod format;
pub mod frame;
pub mod recover;
pub mod store;
pub mod wal;

pub use error::StorageError;
pub use frame::{decode_frame, encode_frame, read_frame, write_frame, Frame};
pub use recover::{recover, Recovered};
pub use store::DurableStore;
pub use wal::WalBuffer;

use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;

/// Snapshot persistence for a value — implemented for
/// [`ProbabilisticNetwork`]. The dependency points this way (storage →
/// core) so the core model stays free of encoding concerns; call sites
/// simply `use smn_storage::Durable`.
pub trait Durable: Sized {
    /// Serializes to a self-describing snapshot buffer.
    fn save(&self) -> Vec<u8>;
    /// Reconstructs from a snapshot buffer. Never panics on any input.
    fn load(bytes: &[u8]) -> Result<Self, StorageError>;
}

impl Durable for ProbabilisticNetwork {
    fn save(&self) -> Vec<u8> {
        save_with_history(self, &[], 0)
    }

    fn load(bytes: &[u8]) -> Result<Self, StorageError> {
        load_with_history(bytes).map(|(pn, _, _)| pn)
    }
}

/// Serializes a network together with its session history and the WAL
/// sequence number the snapshot is current to (`applied_seq`; the WAL
/// continuing this snapshot starts at `applied_seq + 1`).
pub fn save_with_history(
    pn: &ProbabilisticNetwork,
    history: &[Assertion],
    applied_seq: u64,
) -> Vec<u8> {
    format::encode_snapshot(&pn.to_state(), history, applied_seq)
}

/// Reconstructs a network, its history and its applied sequence number
/// from a snapshot buffer. Strict: any corruption is a typed error.
pub fn load_with_history(
    bytes: &[u8],
) -> Result<(ProbabilisticNetwork, Vec<Assertion>, u64), StorageError> {
    let (state, history, applied_seq) = format::decode_snapshot(bytes)?;
    let pn = ProbabilisticNetwork::from_state(&state).map_err(StorageError::Invalid)?;
    Ok((pn, history, applied_seq))
}
