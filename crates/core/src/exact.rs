//! Exact enumeration of matching instances and exact probabilities (Eq. 1).
//!
//! The number of instances is exponential in `|C|` in the worst case (the
//! paper: "in the smallest real dataset … 142 correspondences, resulting in
//! 2^142 possible instances"), so enumeration is only feasible for small
//! networks. It is used by the sampling-effectiveness experiment (Fig. 7,
//! `|C| ≤ 20`) and as the oracle in tests validating the sampler.

use crate::feedback::Feedback;
use crate::network::MatchingNetwork;
use smn_constraints::{BitSet, ConflictIndex};
use smn_schema::CandidateId;

/// Enumerates all matching instances (Definition 1): maximal consistent
/// candidate subsets that include `F+` and exclude `F−`.
///
/// Returns `None` if more than `cap` instances exist (guard against
/// accidental exponential blow-ups), or if the feedback itself is
/// inconsistent (approved candidates violating the constraints admit no
/// instance).
pub fn enumerate_instances(
    network: &MatchingNetwork,
    feedback: &Feedback,
    cap: usize,
) -> Option<Vec<BitSet>> {
    enumerate_with_index(network.index(), feedback, cap)
}

/// Index-level form of [`enumerate_instances`]: the enumeration only needs
/// the conflict structure, so the exact path of small shards in the
/// component-sharded model can run it on a restricted sub-index.
pub fn enumerate_with_index(
    index: &ConflictIndex,
    feedback: &Feedback,
    cap: usize,
) -> Option<Vec<BitSet>> {
    let n = index.candidate_count();
    // seed with the approved candidates; they must be mutually consistent
    let mut seed = BitSet::new(n);
    for c in feedback.approved().iter() {
        if !index.can_add(&seed, c) {
            return None;
        }
        seed.insert(c);
    }
    let mut out: Vec<BitSet> = Vec::new();
    let mut current = seed;
    // depth-first include/exclude over unasserted candidates
    let free: Vec<CandidateId> =
        (0..n).map(CandidateId::from_index).filter(|&c| !feedback.is_asserted(c)).collect();
    let mut future = BitSet::from_ids(n, free.iter().copied());
    let mut scratch = BitSet::new(n);
    /// Whether an addable-but-excluded `c` can still be blocked by picks
    /// after the current position: a pair partner left in `future`, or a
    /// triple whose other two members are each in `current ∪ future`.
    /// When nothing can block it, every completion of the exclude branch
    /// keeps `c` addable — non-maximal by definition — so the whole
    /// subtree is pruned (this is what keeps the enumeration near
    /// `O(|instances|)` on sparse conflict components instead of `2^m`).
    fn can_block_later(
        index: &smn_constraints::ConflictIndex,
        current: &BitSet,
        future: &BitSet,
        c: CandidateId,
    ) -> bool {
        if index.pair_conflicts(c).iter().any(|&x| future.contains(x)) {
            return true;
        }
        index.other_pairs(c).iter().any(|&[a, b]| {
            (current.contains(a) || future.contains(a))
                && (current.contains(b) || future.contains(b))
        })
    }
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        index: &smn_constraints::ConflictIndex,
        free: &[CandidateId],
        pos: usize,
        current: &mut BitSet,
        future: &mut BitSet,
        forbidden: &BitSet,
        scratch: &mut BitSet,
        out: &mut Vec<BitSet>,
        cap: usize,
    ) -> bool {
        if out.len() > cap {
            return false;
        }
        if pos == free.len() {
            if index.is_maximal_in(current, forbidden, scratch) {
                out.push(current.clone());
            }
            return out.len() <= cap;
        }
        let c = free[pos];
        future.remove(c);
        let ok = if index.can_add(current, c) {
            current.insert(c);
            let mut ok =
                recurse(index, free, pos + 1, current, future, forbidden, scratch, out, cap);
            current.remove(c);
            // the exclude branch can only produce maximal instances if a
            // later pick blocks `c`
            if ok && can_block_later(index, current, future, c) {
                ok = recurse(index, free, pos + 1, current, future, forbidden, scratch, out, cap);
            }
            ok
        } else {
            recurse(index, free, pos + 1, current, future, forbidden, scratch, out, cap)
        };
        future.insert(c);
        ok
    }
    if !recurse(
        index,
        &free,
        0,
        &mut current,
        &mut future,
        feedback.disapproved(),
        &mut scratch,
        &mut out,
        cap,
    ) {
        return None;
    }
    Some(out)
}

/// Exact probability of every candidate (Eq. 1): the fraction of matching
/// instances containing it. `None` under the same conditions as
/// [`enumerate_instances`], or if *no* instance exists.
pub fn exact_probabilities(
    network: &MatchingNetwork,
    feedback: &Feedback,
    cap: usize,
) -> Option<Vec<f64>> {
    let instances = enumerate_instances(network, feedback, cap)?;
    if instances.is_empty() {
        return None;
    }
    let n = network.candidate_count();
    let mut counts = vec![0usize; n];
    for inst in &instances {
        for c in inst.iter() {
            counts[c.index()] += 1;
        }
    }
    Some(counts.into_iter().map(|k| k as f64 / instances.len() as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1_network;

    #[test]
    fn fig1_has_four_maximal_instances() {
        let net = fig1_network();
        let instances = enumerate_instances(&net, &Feedback::new(5), 1_000).unwrap();
        let mut sets: Vec<Vec<u32>> =
            instances.iter().map(|i| i.iter().map(|c| c.0).collect()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![0, 3, 4], vec![1, 4], vec![2, 3]]);
    }

    #[test]
    fn fig1_exact_probabilities_are_half() {
        let net = fig1_network();
        let probs = exact_probabilities(&net, &Feedback::new(5), 1_000).unwrap();
        for (i, p) in probs.iter().enumerate() {
            assert!((p - 0.5).abs() < 1e-12, "p(c{i}) = {p}");
        }
    }

    #[test]
    fn approval_filters_instances() {
        let net = fig1_network();
        let mut f = Feedback::new(5);
        f.approve(CandidateId(2));
        let instances = enumerate_instances(&net, &f, 1_000).unwrap();
        let mut sets: Vec<Vec<u32>> =
            instances.iter().map(|i| i.iter().map(|c| c.0).collect()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![2, 3]]);
        let probs = exact_probabilities(&net, &f, 1_000).unwrap();
        assert_eq!(probs[2], 1.0, "approved candidate has probability one");
    }

    #[test]
    fn disapproval_filters_instances() {
        let net = fig1_network();
        let mut f = Feedback::new(5);
        f.disapprove(CandidateId(0));
        let instances = enumerate_instances(&net, &f, 1_000).unwrap();
        // without c0: maximal instances among {c1..c4} are {c1,c4} and {c2,c3}
        // but also {c1,c2}? c1=(a1,a2), c2=(a0,a2): share a2! other ends a1∈B, a0∈A
        // → different schemas → no 1-1 violation; can c3/c4 be added? c3 pairs
        // with c1, c4 pairs with c2 → maximal. So {c1,c2} is an instance too.
        let mut sets: Vec<Vec<u32>> =
            instances.iter().map(|i| i.iter().map(|c| c.0).collect()).collect();
        sets.sort();
        assert!(sets.contains(&vec![1, 4]));
        assert!(sets.contains(&vec![2, 3]));
        for s in &sets {
            assert!(!s.contains(&0));
        }
        let probs = exact_probabilities(&net, &f, 1_000).unwrap();
        assert_eq!(probs[0], 0.0, "disapproved candidate has probability zero");
    }

    #[test]
    fn maximality_is_relative_to_disapproved() {
        // Definition 1: maximality quantifies over C \ (F− ∪ I); a set that
        // could only be extended by disapproved candidates is maximal.
        let net = fig1_network();
        let mut f = Feedback::new(5);
        f.disapprove(CandidateId(0));
        f.disapprove(CandidateId(1));
        f.disapprove(CandidateId(2));
        f.disapprove(CandidateId(3));
        let instances = enumerate_instances(&net, &f, 1_000).unwrap();
        let sets: Vec<Vec<u32>> =
            instances.iter().map(|i| i.iter().map(|c| c.0).collect()).collect();
        assert_eq!(sets, vec![vec![4]]);
    }

    #[test]
    fn cap_is_respected() {
        let net = fig1_network();
        assert!(enumerate_instances(&net, &Feedback::new(5), 3).is_none());
        assert!(enumerate_instances(&net, &Feedback::new(5), 4).is_some());
    }

    #[test]
    fn inconsistent_approvals_return_none() {
        let net = fig1_network();
        let mut f = Feedback::new(5);
        // c1 and c3 are a 1-1 violation; approving both is contradictory
        f.approve(CandidateId(1));
        f.approve(CandidateId(3));
        assert!(enumerate_instances(&net, &f, 1_000).is_none());
    }

    #[test]
    fn probabilities_sum_matches_average_instance_size() {
        let net = fig1_network();
        let f = Feedback::new(5);
        let instances = enumerate_instances(&net, &f, 1_000).unwrap();
        let probs = exact_probabilities(&net, &f, 1_000).unwrap();
        let avg_size: f64 =
            instances.iter().map(|i| i.count() as f64).sum::<f64>() / instances.len() as f64;
        let sum: f64 = probs.iter().sum();
        assert!((sum - avg_size).abs() < 1e-9);
    }
}
