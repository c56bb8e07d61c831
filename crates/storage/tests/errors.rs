//! Typed-error regressions: one test per [`StorageError`] variant proving
//! the decoder reports that variant (and *returns* — never panics) on the
//! corruption shape it names, plus a fuzz property that no byte string
//! whatsoever can panic any decoder.

use proptest::prelude::*;
use smn_core::persist::{NetworkEvent, StoreState};
use smn_core::{ProbabilisticNetwork, ShardingConfig};
use smn_schema::CandidateId;
use smn_storage::format::{
    crc64, decode_shard_state, decode_snapshot, encode_shard_state, encode_snapshot, SNAP_VERSION,
};
use smn_storage::wal::{decode_prefix, decode_records, WalBuffer};
use smn_storage::{load_with_history, save_with_history, StorageError};
use smn_testkit::faults::{corrupt_range, flip_bit, truncate_at, FaultRng};
use smn_testkit::{fig1_network, tiny_sampler};

fn snapshot_bytes() -> Vec<u8> {
    let mut pn = ProbabilisticNetwork::new_sharded(
        fig1_network(),
        tiny_sampler(5),
        ShardingConfig::default(),
    );
    let a = smn_core::feedback::Assertion { candidate: CandidateId(2), approved: true };
    pn.assert_candidate(a).unwrap();
    save_with_history(&pn, &[a], 1)
}

fn wal_bytes() -> Vec<u8> {
    let mut wal = WalBuffer::new(1);
    wal.append(&NetworkEvent::Assert { candidate: CandidateId(2), approved: true });
    wal.append(&NetworkEvent::Retire { candidate: CandidateId(0) });
    wal.bytes().to_vec()
}

#[test]
fn bad_magic_is_typed() {
    let mut snap = snapshot_bytes();
    snap[..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(decode_snapshot(&snap), Err(StorageError::BadMagic { .. })));
    let mut wal = wal_bytes();
    wal[..8].copy_from_slice(b"NOTAWAL!");
    assert!(matches!(decode_records(&wal), Err(StorageError::BadMagic { .. })));
    let (prefix, err) = decode_prefix(&wal);
    assert!(prefix.is_empty());
    assert!(matches!(err, Some(StorageError::BadMagic { .. })));
}

#[test]
fn version_mismatch_is_typed() {
    // the version field sits right after the 8-byte magic in both formats
    let mut snap = snapshot_bytes();
    snap[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
    assert_eq!(
        decode_snapshot(&snap).unwrap_err(),
        StorageError::VersionMismatch { expected: SNAP_VERSION, found: SNAP_VERSION + 1 }
    );
    let mut wal = wal_bytes();
    wal[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(decode_records(&wal), Err(StorageError::VersionMismatch { found: 99, .. })));
}

#[test]
fn checksum_mismatch_is_typed() {
    // a flip in the offset table breaks the header checksum
    let snap = snapshot_bytes();
    let tampered = {
        let mut b = snap.clone();
        b[30] ^= 0x10;
        b
    };
    assert!(matches!(
        decode_snapshot(&tampered),
        Err(StorageError::ChecksumMismatch { what: "header", .. })
    ));
    // a flip in a section payload breaks that section's checksum
    let tampered = {
        let mut b = snap.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        b
    };
    assert!(matches!(
        decode_snapshot(&tampered),
        Err(StorageError::ChecksumMismatch { what: "section", .. })
    ));
    // a flip in a WAL record payload breaks that record's checksum —
    // strict decode errors, tolerant decode keeps the earlier records
    let wal = wal_bytes();
    let tampered = {
        let mut b = wal.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        b
    };
    assert!(matches!(
        decode_records(&tampered),
        Err(StorageError::ChecksumMismatch { what: "wal record", .. })
    ));
    let (prefix, err) = decode_prefix(&tampered);
    assert_eq!(prefix.len(), 1, "the intact first record survives");
    assert!(matches!(err, Some(StorageError::ChecksumMismatch { .. })));
}

#[test]
fn truncated_record_is_typed() {
    let snap = snapshot_bytes();
    // cut inside the header
    assert!(matches!(
        decode_snapshot(&truncate_at(&snap, 20)),
        Err(StorageError::TruncatedRecord { .. })
    ));
    // cut inside the last section (header + table intact)
    assert!(matches!(
        decode_snapshot(&truncate_at(&snap, snap.len() - 3)),
        Err(StorageError::TruncatedRecord { .. })
    ));
    let wal = wal_bytes();
    assert!(matches!(
        decode_records(&truncate_at(&wal, wal.len() - 2)),
        Err(StorageError::TruncatedRecord { .. })
    ));
}

#[test]
fn semantically_impossible_content_is_invalid_not_a_panic() {
    // structurally pristine bytes whose conflict index references a
    // candidate the snapshot does not contain
    let pn = ProbabilisticNetwork::new(fig1_network(), tiny_sampler(5));
    let mut state = pn.to_state();
    state.pair_conflicts[0].push(1_000_000);
    let bytes = smn_storage::format::encode_snapshot(&state, &[], 0);
    assert!(matches!(load_with_history(&bytes), Err(StorageError::Invalid(_))));
    // ... and a feedback set sized for a different candidate universe
    let mut state = pn.to_state();
    state.feedback.len = 3;
    let bytes = smn_storage::format::encode_snapshot(&state, &[], 0);
    assert!(matches!(load_with_history(&bytes), Err(StorageError::Invalid(_))));
}

/// Offset of the store's reserved `u64` slot (written 0) inside one
/// encoded shard state: it sits right before the instance list, whose
/// length follows from the state.
fn reserved_slot(store: &StoreState, encoded_len: usize) -> usize {
    let instances: usize = store.samples.iter().map(|s| 8 + 4 * s.len()).sum();
    let tail = 8 + instances + 8 + 8 * store.counts.len();
    encoded_len - tail - 8
}

#[test]
fn nonzero_reserved_store_slot_is_invalid() {
    let pn = ProbabilisticNetwork::new_sharded(
        fig1_network(),
        tiny_sampler(5),
        ShardingConfig::default(),
    );
    let state = pn.to_state();
    assert!(state.sharding.enabled, "section 8 then carries shard feedback per store");
    let shard = encode_shard_state(&state.shards[0]);
    let slot = reserved_slot(&state.shards[0].store, shard.len());
    assert_eq!(shard[slot..slot + 8], [0; 8], "the encoder writes 0");
    for value in [1u64, u64::MAX] {
        let mut bad = shard.clone();
        bad[slot..slot + 8].copy_from_slice(&value.to_le_bytes());
        assert!(matches!(decode_shard_state(&bad), Err(StorageError::Invalid(_))));
    }

    // the same slot of the first store inside a snapshot, with the
    // section and header checksums recomputed so only the slot is wrong
    let snap = save_with_history(&pn, &[], 0);
    let sections = u32::from_le_bytes(snap[20..24].try_into().unwrap()) as usize;
    let entry = (0..sections)
        .map(|i| 24 + 28 * i)
        .find(|&e| u32::from_le_bytes(snap[e..e + 4].try_into().unwrap()) == 8)
        .expect("stores section in the table");
    let offset = u64::from_le_bytes(snap[entry + 4..entry + 12].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(snap[entry + 12..entry + 20].try_into().unwrap()) as usize;
    // the stores section opens with `u64 store_count`, then the first
    // store's bytes are exactly its shard-state encoding
    let first = offset + 8;
    assert_eq!(snap[first..first + shard.len()], shard[..]);
    let mut bad = snap.clone();
    bad[first + slot..first + slot + 8].copy_from_slice(&1u64.to_le_bytes());
    let section_crc = crc64(&bad[offset..offset + len]);
    bad[entry + 20..entry + 28].copy_from_slice(&section_crc.to_le_bytes());
    let header_end = 24 + 28 * sections;
    let header_crc = crc64(&bad[..header_end]);
    bad[header_end..header_end + 8].copy_from_slice(&header_crc.to_le_bytes());
    assert!(matches!(decode_snapshot(&bad), Err(StorageError::Invalid(_))));
    assert!(decode_snapshot(&snap).is_ok(), "the untouched snapshot still decodes");
}

#[test]
fn a_stored_sample_that_is_not_a_matching_instance_is_invalid() {
    // a well-formed snapshot, re-encoded so every checksum holds, whose
    // fig1 store holds the non-maximal sample {c0} (c1 can still join it)
    let pn = ProbabilisticNetwork::new_sharded(
        fig1_network(),
        tiny_sampler(5),
        ShardingConfig::default(),
    );
    let (mut state, history, applied_seq) =
        decode_snapshot(&save_with_history(&pn, &[], 0)).unwrap();
    let store = &mut state.shards[0].store;
    store.samples = vec![vec![0]];
    store.counts = vec![1];
    let bad = encode_snapshot(&state, &history, applied_seq);
    assert!(decode_snapshot(&bad).is_ok(), "the bytes themselves are well-formed");
    match load_with_history(&bad) {
        Err(StorageError::Invalid(e)) => assert!(e.contains("not a matching instance"), "{e}"),
        other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn io_failure_is_typed() {
    let missing = std::path::Path::new("/nonexistent-smn-store-dir/definitely-absent");
    assert!(matches!(smn_storage::DurableStore::recover(missing), Err(StorageError::Io(_))));
}

proptest! {
    /// No mutation of a valid snapshot can pass the decoder: every
    /// damaged buffer is a typed error (checksums cover every byte), and
    /// none panics.
    #[test]
    fn mutated_snapshots_never_decode_and_never_panic(seed in any::<u64>()) {
        let snap = snapshot_bytes();
        let mut rng = FaultRng::new(seed);
        let mutations = [
            flip_bit(&snap, 0, &mut rng),
            truncate_at(&snap, rng.below(snap.len())),
            corrupt_range(&snap, 16, &mut rng),
        ];
        for m in mutations {
            if m != snap {
                prop_assert!(load_with_history(&m).is_err(), "damaged bytes must not load");
            }
        }
    }

    /// Arbitrary byte strings never panic any decoder — snapshot or WAL,
    /// strict or tolerant.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_snapshot(&bytes);
        let _ = load_with_history(&bytes);
        let _ = decode_records(&bytes);
        let (_prefix, _err) = decode_prefix(&bytes);
    }
}
