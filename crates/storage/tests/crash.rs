//! Crash-injection differential harness: the durability contract under
//! randomized interleavings of assertions, arrivals and retirements with
//! faults injected at arbitrary byte positions —
//!
//! ```text
//! recover(save(run)) ≡ live run
//! ```
//!
//! — conflict index and component partition structurally equal,
//! probabilities/entropy/information gain within 1e-12 (bit-identical in
//! fact: the load path re-records the same samples in the same order and
//! recomputes through the same kernels), histories byte-identical.
//!
//! Like the evolution harness (`smn-core/tests/evolution.rs`) the
//! generators stay in the *exact* regime — every conflict component at or
//! below the exact threshold — where the posterior is a pure function of
//! (index, feedback) and maintenance never touches the RNG, so the
//! differential is a hard invariant, not a statistical one. The fault
//! menu: WAL torn at an arbitrary byte, a bit flipped mid-log, a bit
//! flipped in the snapshot, a kill between snapshot publication and log
//! fsync, and stale-log replay (seq filtering).

use proptest::prelude::*;
use smn_constraints::ConstraintConfig;
use smn_core::feedback::Assertion;
use smn_core::persist::{apply_event, apply_to_history, NetworkEvent};
use smn_core::{MatchingNetwork, ProbabilisticNetwork, SamplerConfig, ShardingConfig};
use smn_schema::{
    AttributeId, CandidateId, CandidateSet, Catalog, CatalogBuilder, InteractionGraph,
};
use smn_storage::wal::decode_prefix;
use smn_storage::{load_with_history, recover, save_with_history, DurableStore, WalBuffer};
use smn_testkit::faults::{flip_bit, torn_tail, FaultRng};
use smn_testkit::tiny_sampler;

fn three_schema_catalog(sizes: [usize; 3]) -> (Catalog, InteractionGraph) {
    let mut b = CatalogBuilder::new();
    for (i, &n) in sizes.iter().enumerate() {
        let attrs: Vec<String> = (0..n).map(|j| format!("a{i}_{j}")).collect();
        b.add_schema_with_attributes(format!("s{i}"), attrs).unwrap();
    }
    (b.build(), InteractionGraph::complete(3))
}

fn pair_pool(cat: &Catalog) -> Vec<(AttributeId, AttributeId)> {
    let mut pool = Vec::new();
    for x in 0..cat.attribute_count() {
        for y in (x + 1)..cat.attribute_count() {
            let (ax, ay) = (AttributeId::from_index(x), AttributeId::from_index(y));
            if cat.schema_of(ax) != cat.schema_of(ay) {
                pool.push((ax, ay));
            }
        }
    }
    pool
}

fn exact_sharding() -> ShardingConfig {
    ShardingConfig { exact_threshold: 64, exact_cap: 1 << 20, ..Default::default() }
}

fn sampler() -> SamplerConfig {
    tiny_sampler(7)
}

/// Deterministically builds the initial network of a scenario — called
/// once for the live run and again for independent rebuilds, which must
/// coincide exactly.
fn build_initial(sizes: [usize; 3], seed_mask: u64) -> ProbabilisticNetwork {
    let (cat, graph) = three_schema_catalog(sizes);
    let pool = pair_pool(&cat);
    let mut cs = CandidateSet::new(&cat);
    for (i, &(x, y)) in pool.iter().enumerate() {
        if seed_mask & (1 << (i % 64)) != 0 {
            cs.add(&cat, Some(&graph), x, y, 0.5).unwrap();
        }
    }
    let net = MatchingNetwork::new(cat, graph, cs, ConstraintConfig::default());
    ProbabilisticNetwork::new_sharded(net, sampler(), exact_sharding())
}

/// Decodes one fuzz word into an applicable event against the current
/// network, mirroring the evolution harness's op alphabet.
fn decode_op(pn: &ProbabilisticNetwork, op: u32) -> Option<NetworkEvent> {
    let pick = (op >> 2) as usize;
    match op % 3 {
        0 => {
            let cat = pn.network().catalog();
            let free: Vec<(AttributeId, AttributeId)> = pair_pool(cat)
                .into_iter()
                .filter(|(x, y)| pn.network().candidates().find(*x, *y).is_none())
                .collect();
            if free.is_empty() {
                return None;
            }
            let (a, b) = free[pick % free.len()];
            Some(NetworkEvent::Extend { a, b, confidence: 0.5 })
        }
        1 => {
            let n = pn.network().candidate_count();
            if n == 0 {
                return None;
            }
            Some(NetworkEvent::Retire { candidate: CandidateId::from_index(pick % n) })
        }
        _ => {
            let n = pn.network().candidate_count();
            if n == 0 {
                return None;
            }
            Some(NetworkEvent::Assert {
                candidate: CandidateId::from_index(pick % n),
                approved: op & 2 != 0,
            })
        }
    }
}

/// The full differential: structural index equality, bit-identical
/// posteriors, 1e-12 entropy/IG agreement, byte-identical histories.
fn assert_equivalent(
    recovered: &ProbabilisticNetwork,
    recovered_history: &[Assertion],
    live: &ProbabilisticNetwork,
    live_history: &[Assertion],
) {
    assert_eq!(recovered.network().index(), live.network().index(), "conflict index");
    assert_eq!(recovered.shard_count(), live.shard_count(), "component partition");
    assert_eq!(recovered.to_state(), live.to_state(), "full structural state");
    assert_eq!(recovered.probabilities(), live.probabilities(), "bit-identical posteriors");
    assert!((recovered.entropy() - live.entropy()).abs() < 1e-12);
    assert_eq!(recovered.effort(), live.effort());
    let uncertain = live.uncertain_candidates();
    assert_eq!(recovered.uncertain_candidates(), uncertain);
    let (ga, gb) = (recovered.information_gains(&uncertain), live.information_gains(&uncertain));
    for ((&c, &a), &b) in uncertain.iter().zip(&ga).zip(&gb) {
        assert!((a - b).abs() < 1e-12, "gain of {c}: {a} vs {b}");
    }
    assert_eq!(recovered_history, live_history, "byte-identical history");
}

proptest! {
    /// The headline property. One random interleaving of network events
    /// is run live while journaling into a WAL; then every recovery path
    /// — clean, torn log, bit-flipped log, corrupted snapshot, stale log
    /// — is checked against the live end state (or the event-count
    /// prefix of it that the surviving log prescribes).
    #[test]
    fn recovery_equals_the_live_run_under_injected_crashes(
        sizes in prop::array::uniform3(1usize..4),
        seed_mask in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..20),
        fault_seed in any::<u64>(),
    ) {
        // ---- live run, journaled -----------------------------------
        let mut live = build_initial(sizes, seed_mask);
        let base_snapshot = save_with_history(&live, &[], 0);
        let mut wal = WalBuffer::new(1);
        let mut history: Vec<Assertion> = Vec::new();
        let mut applied_events: Vec<NetworkEvent> = Vec::new();
        for &op in &ops {
            let Some(event) = decode_op(&live, op) else { continue };
            if apply_event(&mut live, &event).is_ok() {
                wal.append(&event);
                apply_to_history(&mut history, &event);
                applied_events.push(event);
            }
        }

        // ---- clean recovery: snapshot + intact log ≡ live ----------
        let rec = recover(&base_snapshot, wal.bytes()).expect("clean recovery");
        prop_assert!(rec.wal_error.is_none());
        prop_assert_eq!(rec.replayed, applied_events.len());
        prop_assert_eq!(rec.applied_seq, applied_events.len() as u64);
        assert_equivalent(&rec.network, &rec.history, &live, &history);
        // and the recovered state re-saves byte-identically to a live save
        prop_assert_eq!(
            save_with_history(&rec.network, &rec.history, rec.applied_seq),
            save_with_history(&live, &history, rec.applied_seq),
            "byte-identical re-save"
        );

        let mut rng = FaultRng::new(fault_seed);

        // ---- torn log at an arbitrary byte -------------------------
        // spec: recovery must land exactly on the state after the m
        // events whose records survived the tear, where m comes from an
        // independent decode of the torn bytes
        let torn = torn_tail(wal.bytes(), 12, &mut rng);
        let m = decode_prefix(&torn).0.len();
        let rec = recover(&base_snapshot, &torn).expect("torn-log recovery");
        prop_assert_eq!(rec.replayed, m);
        let mut expect = build_initial(sizes, seed_mask);
        let mut expect_history = Vec::new();
        for event in &applied_events[..m] {
            apply_event(&mut expect, event).expect("re-applying a prefix of applied events");
            apply_to_history(&mut expect_history, event);
        }
        assert_equivalent(&rec.network, &rec.history, &expect, &expect_history);

        // ---- bit flip mid-log: typed stop, prefix still exact ------
        if wal.bytes().len() > 12 {
            let flipped = flip_bit(wal.bytes(), 12, &mut rng);
            let rec = recover(&base_snapshot, &flipped).expect("flip hits the log, not the snapshot");
            let k = rec.replayed;
            prop_assert!(k <= applied_events.len());
            if k < applied_events.len() {
                prop_assert!(rec.wal_error.is_some(), "a lost suffix is reported");
            }
            let mut expect = build_initial(sizes, seed_mask);
            let mut expect_history = Vec::new();
            for event in &applied_events[..k] {
                apply_event(&mut expect, event).expect("prefix replays");
                apply_to_history(&mut expect_history, event);
            }
            assert_equivalent(&rec.network, &rec.history, &expect, &expect_history);
        }

        // ---- snapshot corruption: typed failure, older-gen fallback -
        let end_seq = applied_events.len() as u64;
        let end_snapshot = save_with_history(&live, &history, end_seq);
        let corrupt = flip_bit(&end_snapshot, 0, &mut rng);
        prop_assert!(load_with_history(&corrupt).is_err(), "corrupt snapshots never load");
        // falling back to the base snapshot + the full log re-reaches
        // the exact state the corrupted snapshot held
        let rec = recover(&base_snapshot, wal.bytes()).expect("fallback recovery");
        assert_equivalent(&rec.network, &rec.history, &live, &history);

        // ---- stale log: records ≤ applied_seq are filtered ---------
        let rec = recover(&end_snapshot, wal.bytes()).expect("stale-log recovery");
        prop_assert_eq!(rec.replayed, 0, "every record predates the snapshot");
        prop_assert_eq!(rec.applied_seq, end_seq);
        assert_equivalent(&rec.network, &rec.history, &live, &history);
    }
}

/// Kill points across the `DurableStore` publish cycle, on real files:
/// after any prefix of appends, after a publish, after a publish whose
/// WAL was then lost (the kill between snapshot rename and log fsync),
/// and after corruption of the newest snapshot (older-generation
/// fallback) — recovery from the directory must equal the live network
/// at the corresponding point.
#[test]
fn durable_store_recovers_across_kill_points_and_generations() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-killpoints");
    let _ = std::fs::remove_dir_all(&base);

    let mut live = build_initial([2, 3, 2], 0xD1CE);
    let dir = base.join("store");
    let mut store = DurableStore::open(&dir, &live, &[], 0).expect("open");
    let mut history = Vec::new();

    // round 1: a few events, then a kill before any publish
    let script1 = [6u32, 14, 11, 26];
    let mut applied = Vec::new();
    for &op in &script1 {
        let Some(event) = decode_op(&live, op) else { continue };
        if apply_event(&mut live, &event).is_ok() {
            store.append(&event).expect("append");
            apply_to_history(&mut history, &event);
            applied.push(event);
        }
    }
    store.sync().expect("sync");
    let rec = DurableStore::recover(&dir).expect("recover after kill mid-round");
    assert_equivalent(&rec.network, &rec.history, &live, &history);
    assert_eq!(rec.applied_seq, applied.len() as u64);

    // round 2: publish, then more events, then a kill
    let generation = store.publish(&live, &history).expect("publish");
    assert_eq!(generation, 1);
    for &op in &[35u32, 23, 8, 17] {
        let Some(event) = decode_op(&live, op) else { continue };
        if apply_event(&mut live, &event).is_ok() {
            store.append(&event).expect("append");
            apply_to_history(&mut history, &event);
            applied.push(event);
        }
    }
    store.sync().expect("sync");
    let rec = DurableStore::recover(&dir).expect("recover after publish + appends");
    assert_equivalent(&rec.network, &rec.history, &live, &history);

    // kill point between snapshot publication and log fsync: publish
    // generation 2, then lose its WAL entirely — recovery must land on
    // the published snapshot state (nothing after it existed)
    store.publish(&live, &history).expect("publish gen 2");
    drop(store);
    std::fs::remove_file(dir.join("wal-0000000002.log")).expect("simulate lost log");
    let rec = DurableStore::recover(&dir).expect("recover without the newest log");
    assert_equivalent(&rec.network, &rec.history, &live, &history);

    // newest-snapshot corruption: flip a bit in generation 2's snapshot;
    // recovery falls back to generation 1 and replays its log chain
    let snap2 = dir.join("snapshot-0000000002.smn");
    let bytes = std::fs::read(&snap2).expect("read snapshot");
    let mut rng = FaultRng::new(99);
    std::fs::write(&snap2, flip_bit(&bytes, 0, &mut rng)).expect("corrupt snapshot");
    let rec = DurableStore::recover(&dir).expect("older-generation fallback");
    // generation 1's snapshot + its (synced) WAL reach the same state
    assert_equivalent(&rec.network, &rec.history, &live, &history);

    let _ = std::fs::remove_dir_all(&base);
}

/// Generation bookkeeping: publishing prunes to (current, previous), the
/// WAL rotates empty, and sequence numbers continue across rotations.
#[test]
fn durable_store_rotates_and_prunes_generations() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-rotation");
    let _ = std::fs::remove_dir_all(&base);

    let mut live = build_initial([2, 2, 2], 0xBEEF);
    let dir = base.join("store");
    let mut store = DurableStore::open(&dir, &live, &[], 0).expect("open");
    let mut history = Vec::new();
    for round in 0..4u32 {
        for &op in &[5 + round, 26 + round] {
            let Some(event) = decode_op(&live, op) else { continue };
            if apply_event(&mut live, &event).is_ok() {
                store.append(&event).expect("append");
                apply_to_history(&mut history, &event);
            }
        }
        store.publish(&live, &history).expect("publish");
    }
    assert_eq!(store.generation(), 4);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "snapshot-0000000003.smn",
            "snapshot-0000000004.smn",
            "wal-0000000003.log",
            "wal-0000000004.log",
        ],
        "only the current and previous generations survive pruning"
    );
    let rec = DurableStore::recover(&dir).expect("recover after rotations");
    assert_equivalent(&rec.network, &rec.history, &live, &history);
    assert_eq!(rec.replayed, 0, "everything was folded into the newest snapshot");

    // a reopened store continues the sequence numbering
    let store2 =
        DurableStore::open(&dir, &rec.network, &rec.history, rec.applied_seq).expect("reopen");
    assert_eq!(store2.generation(), 5);
    assert_eq!(store2.next_seq(), rec.applied_seq + 1);

    let _ = std::fs::remove_dir_all(&base);
}

/// The store latches its first fault: once a publish fails, a later
/// append returns that same error without writing, `fault()` reports it,
/// and the sequence counter stays where it was.
#[test]
fn durable_store_latches_its_first_fault() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("crash-latch");
    let _ = std::fs::remove_dir_all(&base);

    let live = build_initial([2, 2, 2], 0x1A7C);
    let dir = base.join("store");
    let mut store = DurableStore::open(&dir, &live, &[], 0).expect("open");
    assert_eq!(store.fault(), None);
    let next_seq = store.next_seq();
    std::fs::remove_dir_all(&dir).expect("remove the store directory");

    let err = store.publish(&live, &[]).expect_err("publish into a removed directory fails");
    let event = NetworkEvent::Assert { candidate: CandidateId(0), approved: false };
    assert_eq!(store.append(&event), Err(err.clone()), "a later append returns the latched fault");
    assert_eq!(store.fault(), Some(&err));
    assert_eq!(store.next_seq(), next_seq, "nothing was appended after the fault");

    let _ = std::fs::remove_dir_all(&base);
}
