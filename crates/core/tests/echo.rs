//! Sparse echoes against forks: an [`Echo`] over a base network must read
//! exactly like `base.fork()` after the same assertions — every member
//! probability to the bit, every asserted flag, and the same
//! mutated / no-op / rejected classification of each assertion — while
//! the base itself never changes.
//!
//! Streams run on a multi-shard network whose every component is sampled
//! (`exact_threshold: 0`, so disapprovals run the refill) and on the
//! whole partition of [`ShardingConfig::disabled`].

use proptest::prelude::*;
use smn_core::feedback::Assertion;
use smn_core::{AssertError, Echo, ProbabilisticNetwork, ShardingConfig};
use smn_schema::CandidateId;
use smn_testkit::{tiny_sampler, webform_federation};
use std::sync::OnceLock;

/// How one assertion resolved.
#[derive(Debug, PartialEq)]
enum Resolved {
    Mutated,
    NoOp,
    Rejected(AssertError),
}

/// The two bases: `[sampled shards, whole partition]`.
fn bases() -> &'static [ProbabilisticNetwork; 2] {
    static BASES: OnceLock<[ProbabilisticNetwork; 2]> = OnceLock::new();
    BASES.get_or_init(|| {
        let (net, _) = webform_federation(3, 21);
        let sampled = ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() };
        let sharded = ProbabilisticNetwork::new_sharded(net.clone(), tiny_sampler(4), sampled);
        assert!(sharded.shard_count() > 1, "the sampled base must have several shards");
        let whole =
            ProbabilisticNetwork::new_sharded(net, tiny_sampler(4), ShardingConfig::disabled());
        [sharded, whole]
    })
}

fn assertion(op: u32, n: usize) -> Assertion {
    Assertion { candidate: CandidateId::from_index((op >> 1) as usize % n), approved: op & 1 == 1 }
}

/// Runs `echoes` on one base that first committed `committed`, checking
/// the echo against a fork after every step.
fn check(which: usize, committed: &[u32], echoes: &[u32]) {
    let mut base = bases()[which].fork();
    let n = base.network().candidate_count();
    for &op in committed {
        let _ = base.assert_candidate(assertion(op, n));
    }
    let before: Vec<u64> = base.probabilities().iter().map(|p| p.to_bits()).collect();
    let mut fork = base.fork();
    let mut echo = Echo::new();
    for (step, &op) in echoes.iter().enumerate() {
        let a = assertion(op, n);
        assert_eq!(base.echo_validate(&echo, a), fork.validate_assertion(a), "step {step}");
        let generation = fork.generation();
        let want = match fork.assert_candidate(a) {
            Err(e) => Resolved::Rejected(e),
            Ok(()) if fork.generation() != generation => Resolved::Mutated,
            Ok(()) => Resolved::NoOp,
        };
        let got = match base.echo_assert(&mut echo, a) {
            Err(e) => Resolved::Rejected(e),
            Ok(true) => Resolved::Mutated,
            Ok(false) => Resolved::NoOp,
        };
        assert_eq!(got, want, "step {step}: {a:?}");
        for i in 0..n {
            let c = CandidateId::from_index(i);
            assert_eq!(
                base.echo_probability(&echo, c).to_bits(),
                fork.probability(c).to_bits(),
                "step {step}: p({c})"
            );
            assert_eq!(
                base.echo_is_asserted(&echo, c),
                fork.feedback().is_asserted(c),
                "step {step}: asserted({c})"
            );
        }
        // the echo holds exactly the shards the fork asserted into
        let asserted_into: Vec<usize> = {
            let mut ks: Vec<usize> = (0..n)
                .map(CandidateId::from_index)
                .filter(|&c| fork.feedback().is_asserted(c) && !base.feedback().is_asserted(c))
                .map(|c| base.shard_of(c))
                .collect();
            ks.sort_unstable();
            ks.dedup();
            ks
        };
        assert_eq!(echo.shards().collect::<Vec<_>>(), asserted_into, "step {step}: echoed shards");
    }
    let after: Vec<u64> = base.probabilities().iter().map(|p| p.to_bits()).collect();
    assert_eq!(before, after, "echoing never touches the base");
}

proptest! {
    #[test]
    fn an_echo_reads_like_a_fork_on_sampled_shards(
        committed in prop::collection::vec(any::<u32>(), 0..6),
        echoes in prop::collection::vec(any::<u32>(), 1..24),
    ) {
        check(0, &committed, &echoes);
    }

    #[test]
    fn an_echo_reads_like_a_fork_on_the_whole_partition(
        committed in prop::collection::vec(any::<u32>(), 0..6),
        echoes in prop::collection::vec(any::<u32>(), 1..24),
    ) {
        check(1, &committed, &echoes);
    }
}

#[test]
fn an_echo_copies_only_the_shards_it_asserts_into() {
    let base = &bases()[0];
    let mut echo = Echo::new();
    assert_eq!(echo.shards().count(), 0);
    let c = CandidateId(0);
    assert_eq!(base.echo_assert(&mut echo, Assertion { candidate: c, approved: false }), Ok(true));
    assert_eq!(echo.shards().collect::<Vec<_>>(), vec![base.shard_of(c)]);
    // a same-way repeat is a no-op and adds nothing
    assert_eq!(base.echo_assert(&mut echo, Assertion { candidate: c, approved: false }), Ok(false));
    assert_eq!(echo.shards().count(), 1);
    // a flip is rejected like on a fork
    assert_eq!(
        base.echo_assert(&mut echo, Assertion { candidate: c, approved: true }),
        Err(AssertError::Contradictory { candidate: c, previously_approved: false })
    );
    assert!(echo.contains_shard(base.shard_of(c)));
}
