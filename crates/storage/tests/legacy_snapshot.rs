//! A version-1 snapshot of a single-store Fig. 1 network, written by the
//! code that still kept a dedicated single-store representation
//! (`tests/fixtures/fig1_monolithic_v1.snap`: `tiny_sampler(5)`, then a
//! disapproval of `c4`, saved at WAL sequence 1). Its tag-0 "one store"
//! encoding describes the whole partition, so it must load as one with
//! bitwise-equal posteriors — and a network built today must save to the
//! very same bytes.

use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;
use smn_schema::CandidateId;
use smn_storage::{load_with_history, save_with_history};
use smn_testkit::{fig1_network, tiny_sampler};

const SNAPSHOT: &[u8] = include_bytes!("fixtures/fig1_monolithic_v1.snap");

/// The posterior the writing code held, as IEEE-754 bit patterns.
const PROBABILITY_BITS: [u64; 5] =
    [0x3fe5555555555555, 0x3fd5555555555555, 0x3fe5555555555555, 0x3fe5555555555555, 0];

#[test]
fn v1_single_store_snapshot_loads_as_the_whole_partition() {
    let disapproval = Assertion { candidate: CandidateId(4), approved: false };
    let (loaded, history, seq) = load_with_history(SNAPSHOT).expect("v1 snapshot loads");
    assert_eq!((history.as_slice(), seq), (&[disapproval][..], 1));
    assert!(!loaded.is_sharded());
    assert_eq!(loaded.shard_count(), 1);
    assert_eq!(loaded.samples().len(), loaded.distinct_sample_count());
    let bits: Vec<u64> = loaded.probabilities().iter().map(|p| p.to_bits()).collect();
    assert_eq!(bits, PROBABILITY_BITS);

    let mut live = ProbabilisticNetwork::new(fig1_network(), tiny_sampler(5));
    live.assert_candidate(disapproval).unwrap();
    assert_eq!(live.to_state(), loaded.to_state());
    assert_eq!(save_with_history(&loaded, &history, seq), SNAPSHOT, "re-save is byte-identical");
    assert_eq!(save_with_history(&live, &history, seq), SNAPSHOT, "today's encoding is v1's");
}
