//! Evaluation measures of §VI-A: precision/recall of matchings against the
//! selective matching, and the K-L divergence measures of the sampling-
//! effectiveness experiment (Fig. 7).

use crate::network::MatchingNetwork;
use smn_constraints::BitSet;
use smn_schema::Correspondence;
use std::collections::HashSet;

/// Precision and recall of a set of correspondences against the ground
/// truth `M`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// `|V ∩ M| / |V|` (1 when `V` is empty).
    pub precision: f64,
    /// `|V ∩ M| / |M|` (1 when `M` is empty).
    pub recall: f64,
}

impl PrecisionRecall {
    /// Evaluates an instance (bitset over the network's candidates).
    pub fn of_instance(
        network: &MatchingNetwork,
        instance: &BitSet,
        truth: impl IntoIterator<Item = Correspondence>,
    ) -> Self {
        let truth: HashSet<Correspondence> = truth.into_iter().collect();
        let tp = instance.iter().filter(|&c| truth.contains(&network.corr(c))).count();
        Self::of_counts(tp, instance.count(), truth.len())
    }

    /// The measures of `proposed` correspondences, `tp` of them true,
    /// against a ground truth of `truth_len` distinct correspondences.
    pub fn of_counts(tp: usize, proposed: usize, truth_len: usize) -> Self {
        Self {
            precision: if proposed == 0 { 1.0 } else { tp as f64 / proposed as f64 },
            recall: if truth_len == 0 { 1.0 } else { tp as f64 / truth_len as f64 },
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// K-L divergence between the exact probabilities `P` and an approximation
/// `Q`: the sum of per-candidate *Bernoulli* divergences
/// `Σ_c [ p_c·log₂(p_c/q_c) + (1−p_c)·log₂((1−p_c)/(1−q_c)) ]`.
///
/// The paper's Eq. 6 prints only the first addend, which is not a
/// divergence (it can go negative when `q_c > p_c`); since the candidate
/// variables are Bernoulli, the two-sided form is the information-
/// theoretically correct reading and is always non-negative. Terms with
/// `p_c ∈ {0, 1}` contribute only their non-vanishing side; `q_c` is
/// clamped away from 0 and 1 so a sampler that misses a rare candidate
/// yields a large-but-finite divergence.
pub fn kl_divergence(exact: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(exact.len(), approx.len(), "probability vectors differ in length");
    const EPS: f64 = 1e-9;
    exact
        .iter()
        .zip(approx)
        .map(|(&p, &q)| {
            let q = q.clamp(EPS, 1.0 - EPS);
            let mut d = 0.0;
            if p > 0.0 {
                d += p * (p / q).log2();
            }
            if p < 1.0 {
                d += (1.0 - p) * ((1.0 - p) / (1.0 - q)).log2();
            }
            d
        })
        .sum()
}

/// The normalized measure of Fig. 7:
/// `KL_ratio = D(P‖Q) / D(P‖U)` where `U` is the maximum-entropy baseline
/// assigning `u_c = 0.5` to every candidate. Reported in percent by the
/// experiment harness.
///
/// Returns 0 when `D(P‖U) = 0` (then `P` *is* the uniform baseline and any
/// `Q = P` too).
pub fn kl_ratio(exact: &[f64], approx: &[f64]) -> f64 {
    let uniform = vec![0.5; exact.len()];
    let denom = kl_divergence(exact, &uniform);
    if denom == 0.0 {
        0.0
    } else {
        kl_divergence(exact, approx) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1_network;
    use smn_schema::{AttributeId, CandidateId};

    #[test]
    fn instance_precision_recall() {
        let net = fig1_network();
        let a = AttributeId;
        let truth = [
            Correspondence::new(a(0), a(1)), // c0
            Correspondence::new(a(1), a(3)), // c3
            Correspondence::new(a(0), a(3)), // c4
        ];
        let inst = BitSet::from_ids(5, [CandidateId(0), CandidateId(1), CandidateId(2)]);
        let q = PrecisionRecall::of_instance(&net, &inst, truth);
        assert!((q.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 1.0 / 3.0).abs() < 1e-12);
        let perfect = BitSet::from_ids(5, [CandidateId(0), CandidateId(3), CandidateId(4)]);
        let q = PrecisionRecall::of_instance(&net, &perfect, truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn empty_instance_conventions() {
        let net = fig1_network();
        let q = PrecisionRecall::of_instance(&net, &BitSet::new(5), []);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
    }

    #[test]
    fn kl_divergence_of_identical_is_zero() {
        // exact zero for interior probabilities; within clamping error for
        // boundary ones
        let p = [0.3, 0.7];
        assert_eq!(kl_divergence(&p, &p), 0.0);
        let p = [0.3, 0.7, 0.0, 1.0];
        assert!(kl_divergence(&p, &p).abs() < 1e-8);
    }

    #[test]
    fn kl_divergence_is_nonnegative() {
        let p = [0.1, 0.5, 0.9, 0.0, 1.0];
        for q in [[0.9, 0.5, 0.1, 0.5, 0.5], [0.2, 0.6, 0.95, 0.01, 0.99]] {
            assert!(kl_divergence(&p, &q) >= 0.0, "D(P||{q:?}) negative");
        }
        // the one-sided form of the paper's Eq. 6 would be negative here:
        // q > p makes p·log(p/q) < 0 with nothing to compensate
        let p = [0.1];
        let q = [0.9];
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn kl_divergence_grows_with_distortion() {
        let p = [0.5, 0.5, 0.5];
        let close = [0.45, 0.55, 0.5];
        let far = [0.1, 0.9, 0.2];
        assert!(kl_divergence(&p, &close) < kl_divergence(&p, &far));
    }

    #[test]
    fn kl_ratio_of_uniform_approx_is_one() {
        let p = [0.9, 0.1, 0.8];
        let u = [0.5, 0.5, 0.5];
        assert!((kl_ratio(&p, &u) - 1.0).abs() < 1e-12);
        assert!(kl_ratio(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_handles_zero_probabilities() {
        let p = [0.0, 1.0];
        let q = [0.2, 0.8];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite());
        assert!(d > 0.0);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn kl_checks_lengths() {
        let _ = kl_divergence(&[0.5], &[0.5, 0.5]);
    }
}
