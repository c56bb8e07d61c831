//! Correspondence-selection strategies — implementations of the `select`
//! routine of Algorithm 1 (§IV-D).
//!
//! * [`RandomSelection`] — the paper's baseline: a uniformly random
//!   uncertain candidate ("an expert working without any support tools").
//! * [`InformationGainSelection`] — the paper's heuristic: the candidate
//!   with maximal expected uncertainty reduction (Eq. 5), ties broken
//!   randomly.
//! * [`MaxEntropySelection`] — ablation: the candidate whose own
//!   probability is closest to ½ (maximal marginal entropy). Much cheaper
//!   than information gain but blind to correlations between candidates.
//! * [`ConfidenceOrderSelection`] — ablation: ascending matcher confidence,
//!   the classic pairwise post-matching review order.

use crate::gains::GainSource;
use crate::probability::ProbabilisticNetwork;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;
use smn_schema::CandidateId;

/// Uniformly selects a candidate satisfying `pred` by counted index scan —
/// no allocation of the eligible pool. Consumes exactly one RNG draw (like
/// `choose` on a materialized pool would), and only when the pool is
/// non-empty.
///
/// Public because the service-layer dispatcher replicates the built-in
/// strategies' RNG stream draw for draw (its single-worker schedule must
/// replay a sequential session exactly).
pub fn nth_matching(
    n: usize,
    rng: &mut impl rand::Rng,
    pred: impl Fn(CandidateId) -> bool,
) -> Option<CandidateId> {
    let count = (0..n).map(CandidateId::from_index).filter(|&c| pred(c)).count();
    if count == 0 {
        return None;
    }
    let k = rng.random_range(0..count);
    (0..n).map(CandidateId::from_index).filter(|&c| pred(c)).nth(k)
}

/// Uniformly selects an unasserted candidate via [`nth_matching`].
fn random_unasserted(pn: &ProbabilisticNetwork, rng: &mut StdRng) -> Option<CandidateId> {
    let n = pn.network().candidate_count();
    nth_matching(n, rng, |c| !pn.feedback().is_asserted(c))
}

/// The tie tolerance of [`scored_argmax`]: scores within this of the
/// running best count as tied. Shared with the gain cache's lazy argmax
/// window ([`crate::gains::GainSource::cached_gain_window`]), whose
/// `2 · TIE_EPSILON` cut is what makes window selection provably replay
/// the full-pool scan.
pub const TIE_EPSILON: f64 = 1e-12;

/// Argmax with random tie-breaking over a scored pool: collects every
/// candidate whose score lies within [`TIE_EPSILON`] of the maximum and
/// resolves with exactly one RNG draw — the paper's "if the highest
/// information gain is observed for multiple correspondences, one is
/// randomly chosen".
///
/// This is the single definition of the selection kernel: both
/// [`InformationGainSelection`] and the `smn-service` dispatcher (whose
/// single-worker schedule must replay a sequential session draw for
/// draw) call it, so the tie window and the RNG consumption cannot
/// drift apart. `scores` is aligned with `pool`; `None` iff the pool is
/// empty (no draw consumed).
pub fn scored_argmax(
    pool: &[CandidateId],
    scores: &[f64],
    rng: &mut StdRng,
) -> Option<(CandidateId, f64)> {
    debug_assert_eq!(pool.len(), scores.len());
    let mut best_score = f64::NEG_INFINITY;
    let mut best: Vec<CandidateId> = Vec::new();
    for (&c, &score) in pool.iter().zip(scores) {
        if score > best_score + TIE_EPSILON {
            best_score = score;
            best.clear();
            best.push(c);
        } else if (score - best_score).abs() <= TIE_EPSILON {
            best.push(c);
        }
    }
    best.choose(rng).copied().map(|c| (c, best_score))
}

/// Picks the next candidate to show the expert.
pub trait SelectionStrategy {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Selects an uncertain candidate, or `None` when every candidate is
    /// certain (reconciliation finished), together with the scalar score
    /// that justified the pick: the information gain for the paper's
    /// heuristic, the marginal entropy / matcher confidence for the
    /// ablations. Callers (the session, the service dispatcher, the
    /// experiment bins) log *why* a question was chosen without
    /// recomputing gains. A `None` score means the strategy has no
    /// meaningful scalar for this pick (random selection, fallback picks).
    fn select(&mut self, pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)>;
}

/// Uniformly random *unasserted* candidate — the paper's baseline of
/// §VI-C: "an expert working without any support tools" reviews
/// correspondences in arbitrary order, including ones the probabilistic
/// model already considers certain (the expert cannot know). This is what
/// makes the baseline's uncertainty curve stretch towards 100% effort in
/// Fig. 9.
#[derive(Debug, Clone)]
pub struct RandomSelection {
    rng: StdRng,
}

impl RandomSelection {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }
}

impl SelectionStrategy for RandomSelection {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(&mut self, pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)> {
        random_unasserted(pn, &mut self.rng).map(|c| (c, None))
    }
}

/// Maximal information gain (the paper's heuristic, §IV-D).
///
/// Selection runs through the network's own gain cache by default
/// ([`crate::gains::GainSource`]): only shards dirtied since the last
/// pick are re-priced and the argmax runs over the cached tie window —
/// `O(|C_dirty| + window)` instead of a full `O(|C|)` gain scan — with
/// picks, scores and RNG stream identical to the fresh scan by
/// construction. [`without_cache`](Self::without_cache) keeps the fresh
/// scan available as the differential reference.
#[derive(Debug, Clone)]
pub struct InformationGainSelection {
    rng: StdRng,
    /// Optional cap: evaluate the (expensive) gain only on the `limit`
    /// candidates with the highest marginal entropy. `None` evaluates all
    /// uncertain candidates, as the paper does.
    pub limit: Option<usize>,
    /// `true` bypasses the gain cache and rescans the full pool every
    /// pick — the reference the differential suites compare against.
    fresh_scan: bool,
}

impl InformationGainSelection {
    /// Creates the strategy with a deterministic tie-breaking seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), limit: None, fresh_scan: false }
    }

    /// Caps the number of gain evaluations per step (scaling knob).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Disables the gain cache: every pick rescans the full uncertain
    /// pool. Trace-identical to the cached default (that is the cache's
    /// contract, and what the differential suites certify) — this is the
    /// reference implementation, and a fallback should the cache ever
    /// need ruling out.
    pub fn without_cache(mut self) -> Self {
        self.fresh_scan = true;
        self
    }
}

impl SelectionStrategy for InformationGainSelection {
    fn name(&self) -> &'static str {
        "information-gain"
    }

    fn select(&mut self, pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)> {
        let mut pool = pn.uncertain_candidates();
        if pool.is_empty() {
            // no uncertainty left: every further assertion has zero gain,
            // but the expert can still validate certain candidates (this is
            // what lets the heuristic's precision curve continue towards
            // 100% effort in Figs. 9/10). Pick a random unasserted one —
            // scoreless, the pick carries no gain estimate.
            return random_unasserted(pn, &mut self.rng).map(|c| (c, None));
        }
        if let Some(limit) = self.limit {
            if pool.len() > limit {
                // a truncated pool is not "all uncertain candidates", so
                // the cached window does not apply — price it directly
                pool.sort_by(|&a, &b| {
                    let ha = crate::entropy::binary_entropy(pn.probability(a));
                    let hb = crate::entropy::binary_entropy(pn.probability(b));
                    hb.total_cmp(&ha).then(a.cmp(&b))
                });
                pool.truncate(limit);
                let gains = pn.information_gains(&pool);
                return scored_argmax(&pool, &gains, &mut self.rng)
                    .map(|(c, gain)| (c, Some(gain)));
            }
        }
        if self.fresh_scan {
            let gains = pn.information_gains(&pool);
            return scored_argmax(&pool, &gains, &mut self.rng).map(|(c, gain)| (c, Some(gain)));
        }
        // incremental path: re-price dirty shards only, then argmax over
        // the cached tie window — same picks, same RNG draws (see
        // crate::gains for why this replays the full scan exactly)
        let (window, gains) = pn.cached_gain_window();
        scored_argmax(&window, &gains, &mut self.rng).map(|(c, gain)| (c, Some(gain)))
    }
}

/// Maximal marginal entropy: probability closest to ½ (ablation strategy).
#[derive(Debug, Default, Clone)]
pub struct MaxEntropySelection;

impl SelectionStrategy for MaxEntropySelection {
    fn name(&self) -> &'static str {
        "max-entropy"
    }

    fn select(&mut self, pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)> {
        let h = |c| crate::entropy::binary_entropy(pn.probability(c));
        let c = pn
            .uncertain_candidates()
            .into_iter()
            .max_by(|&a, &b| h(a).total_cmp(&h(b)).then(b.cmp(&a)))?;
        Some((c, Some(h(c))))
    }
}

/// Ascending matcher confidence among uncertain candidates (ablation
/// strategy: review the least confident matches first, ignoring the
/// network structure entirely).
#[derive(Debug, Default, Clone)]
pub struct ConfidenceOrderSelection;

impl SelectionStrategy for ConfidenceOrderSelection {
    fn name(&self) -> &'static str {
        "confidence-order"
    }

    fn select(&mut self, pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)> {
        let confidence = |c| pn.network().candidates().confidence(c);
        let c = pn
            .uncertain_candidates()
            .into_iter()
            .min_by(|&a, &b| confidence(a).total_cmp(&confidence(b)).then(a.cmp(&b)))?;
        Some((c, Some(confidence(c))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Assertion;
    use crate::sampling::SamplerConfig;
    use crate::testutil::fig1_network;
    use crate::ProbabilisticNetwork;

    fn pn() -> ProbabilisticNetwork {
        ProbabilisticNetwork::new(
            fig1_network(),
            SamplerConfig {
                anneal: true,
                n_samples: 200,
                walk_steps: 3,
                n_min: 50,
                seed: 5,
                chains: 1,
            },
        )
    }

    #[test]
    fn information_gain_avoids_uninformative_candidate() {
        // In the Fig. 1 network IG(c0) = 1 while IG(c1..c4) = 2 (see
        // probability::tests::example1_ordering_effect) — the heuristic
        // must never pick c0 first.
        let mut strat = InformationGainSelection::new(1);
        for seed in 0..10 {
            let mut s = InformationGainSelection::new(seed);
            let (picked, _) = s.select(&pn()).unwrap();
            assert_ne!(picked, CandidateId(0), "c0 has strictly lower gain");
        }
        assert!(strat.select(&pn()).is_some());
    }

    #[test]
    fn random_selection_picks_unasserted_including_certain() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        // c4 is now certain (p = 0) but unasserted — the unassisted expert
        // may still review it
        let mut strat = RandomSelection::new(3);
        let mut picked = std::collections::HashSet::new();
        for _ in 0..60 {
            let (c, _) = strat.select(&pn).unwrap();
            assert_ne!(c, CandidateId(2), "asserted candidates are never re-selected");
            picked.insert(c);
        }
        assert!(picked.contains(&CandidateId(4)), "certain-but-unasserted is eligible");
    }

    #[test]
    fn random_and_ig_fall_back_to_certain_candidates() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(3), approved: true }).unwrap();
        pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: true }).unwrap();
        assert_eq!(pn.entropy(), 0.0);
        // c0, c1, c2 are certain but unasserted: both strategies keep going
        let (c, _) = RandomSelection::new(0).select(&pn).unwrap();
        assert!(!pn.feedback().is_asserted(c));
        let (c, _) = InformationGainSelection::new(0).select(&pn).unwrap();
        assert!(!pn.feedback().is_asserted(c));
        // the uncertainty-only ablation strategies stop here
        assert!(MaxEntropySelection.select(&pn).is_none());
        assert!(ConfidenceOrderSelection.select(&pn).is_none());
    }

    #[test]
    fn strategies_return_none_when_everything_asserted() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(3), approved: true }).unwrap();
        pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: true }).unwrap();
        for c in [0u32, 1, 2] {
            let approved = pn.probability(CandidateId(c)) == 1.0;
            pn.assert_candidate(Assertion { candidate: CandidateId(c), approved }).unwrap();
        }
        assert!(RandomSelection::new(0).select(&pn).is_none());
        assert!(InformationGainSelection::new(0).select(&pn).is_none());
    }

    #[test]
    fn confidence_order_picks_least_confident() {
        let pn = pn();
        // fig1 confidences: c0=0.9, c1=c2=0.8, c3=c4=0.7 → picks c3 (lowest
        // id among the 0.7 pair)
        let mut strat = ConfidenceOrderSelection;
        assert_eq!(strat.select(&pn), Some((CandidateId(3), Some(0.7))));
    }

    #[test]
    fn limit_restricts_evaluations_but_still_selects() {
        let mut strat = InformationGainSelection::new(0).with_limit(2);
        let (c, _) = strat.select(&pn()).unwrap();
        assert!(c.index() < 5);
    }

    #[test]
    fn max_entropy_picks_an_uncertain_candidate() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        let (c, _) = MaxEntropySelection.select(&pn).unwrap();
        let p = pn.probability(c);
        assert!(p > 0.0 && p < 1.0);
    }
}
