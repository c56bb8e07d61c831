//! Redundancy-`k` answer aggregation.
//!
//! Each leased candidate collects `k` worker votes; the aggregator reduces
//! them to one assertion before it touches the base network. Two schemes:
//!
//! * [`Aggregation::Majority`] — one worker one vote, ties broken towards
//!   disapproval (the conservative default, matching
//!   [`smn_core::CrowdOracle`]);
//! * [`Aggregation::QualityWeighted`] — each vote weighs its worker's
//!   calibrated log-odds `ln((1 − e) / e)`, the Bayes-optimal combination
//!   of independent witnesses of known error rate `e` (the quality-aware
//!   regime of PoWareMatch): one 5%-error worker outvotes two 40%-error
//!   workers.

use crate::worker::WorkerProfile;
use serde::Serialize;

/// How worker votes reduce to one assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Aggregation {
    /// Unweighted majority, ties → disapprove.
    Majority,
    /// Log-odds-weighted vote by calibrated worker quality, ties →
    /// disapprove.
    QualityWeighted,
}

impl Aggregation {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Aggregation::Majority => "majority",
            Aggregation::QualityWeighted => "quality-weighted",
        }
    }
}

/// One worker's answer to a leased question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vote {
    /// The answering worker.
    pub worker: usize,
    /// The worker's verdict.
    pub approved: bool,
}

/// An aggregated decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The committed verdict.
    pub approved: bool,
    /// Total vote weight for approval.
    pub weight_for: f64,
    /// Total vote weight against approval.
    pub weight_against: f64,
    /// Raw approving votes.
    pub votes_for: usize,
    /// Raw disapproving votes.
    pub votes_against: usize,
}

/// Reduces `votes` under the given scheme. `profiles` supplies the
/// quality weights (indexed by `Vote::worker`).
///
/// # Panics
/// Panics on an empty vote set — every lease gets at least one worker.
pub fn aggregate(kind: Aggregation, votes: &[Vote], profiles: &[WorkerProfile]) -> Verdict {
    assert!(!votes.is_empty(), "cannot aggregate zero votes");
    let weight = |v: &Vote| match kind {
        Aggregation::Majority => 1.0,
        Aggregation::QualityWeighted => {
            // clamp keeps a (self-reported) perfect or adversarial worker
            // from carrying infinite weight
            let e = profiles[v.worker].error_rate.clamp(0.005, 0.995);
            ((1.0 - e) / e).ln()
        }
    };
    let mut verdict = Verdict {
        approved: false,
        weight_for: 0.0,
        weight_against: 0.0,
        votes_for: 0,
        votes_against: 0,
    };
    for v in votes {
        if v.approved {
            verdict.weight_for += weight(v);
            verdict.votes_for += 1;
        } else {
            verdict.weight_against += weight(v);
            verdict.votes_against += 1;
        }
    }
    verdict.approved = verdict.weight_for > verdict.weight_against;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(worker: usize, approved: bool) -> Vote {
        Vote { worker, approved }
    }

    fn profiles(rates: &[f64]) -> Vec<WorkerProfile> {
        rates.iter().map(|&error_rate| WorkerProfile { error_rate }).collect()
    }

    #[test]
    fn majority_counts_heads() {
        let p = profiles(&[0.1, 0.1, 0.1]);
        let v =
            aggregate(Aggregation::Majority, &[vote(0, true), vote(1, true), vote(2, false)], &p);
        assert!(v.approved);
        assert_eq!((v.votes_for, v.votes_against), (2, 1));
    }

    #[test]
    fn majority_tie_disapproves() {
        let p = profiles(&[0.1, 0.1]);
        let v = aggregate(Aggregation::Majority, &[vote(0, true), vote(1, false)], &p);
        assert!(!v.approved, "ties break conservatively");
    }

    #[test]
    fn quality_weighting_lets_a_reliable_worker_outvote_two_noisy_ones() {
        let p = profiles(&[0.05, 0.4, 0.4]);
        let votes = [vote(0, true), vote(1, false), vote(2, false)];
        assert!(!aggregate(Aggregation::Majority, &votes, &p).approved);
        assert!(aggregate(Aggregation::QualityWeighted, &votes, &p).approved);
    }

    #[test]
    fn extreme_rates_are_clamped_finite() {
        let p = profiles(&[0.0, 1.0]);
        let v = aggregate(Aggregation::QualityWeighted, &[vote(0, true), vote(1, false)], &p);
        assert!(v.weight_for.is_finite());
        assert!(v.weight_against.is_finite());
        // the adversarial worker's weight is negative: its "no" argues "yes"
        assert!(v.approved);
    }

    #[test]
    #[should_panic(expected = "zero votes")]
    fn empty_votes_rejected() {
        let _ = aggregate(Aggregation::Majority, &[], &profiles(&[0.1]));
    }
}
