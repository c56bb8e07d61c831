//! Expert simulation.
//!
//! The paper's experiments "simulate the process of reducing network
//! uncertainty where user assertions are generated using the available
//! selective matching" — i.e. the expert is an oracle over the ground
//! truth. [`GroundTruthOracle`] is that always-correct expert;
//! [`NoisyOracle`] is the extension to imperfect experts (§VIII points to
//! multi-user settings; the probabilistic model is agnostic to the source
//! of assertions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smn_schema::Correspondence;
use std::collections::HashSet;

/// Answers approval queries about correspondences.
pub trait Oracle {
    /// Returns `true` iff the oracle asserts the correspondence is correct.
    fn assert(&mut self, corr: Correspondence) -> bool;
}

/// An always-correct expert backed by the selective matching `M`.
#[derive(Debug, Clone)]
pub struct GroundTruthOracle {
    truth: HashSet<Correspondence>,
}

impl GroundTruthOracle {
    /// Creates the oracle from the ground truth.
    pub fn new(truth: impl IntoIterator<Item = Correspondence>) -> Self {
        Self { truth: truth.into_iter().collect() }
    }

    /// Size of the ground truth `|M|`.
    pub fn truth_len(&self) -> usize {
        self.truth.len()
    }

    /// Membership check without consuming a query.
    pub fn is_true(&self, corr: Correspondence) -> bool {
        self.truth.contains(&corr)
    }
}

impl Oracle for GroundTruthOracle {
    fn assert(&mut self, corr: Correspondence) -> bool {
        self.truth.contains(&corr)
    }
}

/// An expert that errs with a fixed probability (answers are memoized so
/// repeated queries stay consistent, like a real human's opinion).
#[derive(Debug, Clone)]
pub struct NoisyOracle {
    truth: HashSet<Correspondence>,
    error_rate: f64,
    rng: StdRng,
    memo: std::collections::HashMap<Correspondence, bool>,
}

impl NoisyOracle {
    /// Creates the oracle.
    ///
    /// # Panics
    /// Panics unless `0 ≤ error_rate ≤ 1`.
    pub fn new(
        truth: impl IntoIterator<Item = Correspondence>,
        error_rate: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error rate out of range");
        Self {
            truth: truth.into_iter().collect(),
            error_rate,
            rng: StdRng::seed_from_u64(seed),
            memo: std::collections::HashMap::new(),
        }
    }
}

impl Oracle for NoisyOracle {
    fn assert(&mut self, corr: Correspondence) -> bool {
        let correct = self.truth.contains(&corr);
        let error_rate = self.error_rate;
        let rng = &mut self.rng;
        *self.memo.entry(corr).or_insert_with(|| {
            if rng.random_bool(error_rate) {
                !correct
            } else {
                correct
            }
        })
    }
}

/// A crowd of independent noisy experts aggregated by majority vote — the
/// multi-user extension the paper's conclusion points to ("our framework
/// is extensible as the underlying probabilistic model is independent of
/// the number of users", §VII/§VIII). With `2k+1` workers of error rate
/// `e < 0.5`, the majority errs with probability
/// `Σ_{j>k} C(2k+1,j) e^j (1−e)^{2k+1−j}` — exponentially small in `k`.
#[derive(Debug, Clone)]
pub struct CrowdOracle {
    workers: Vec<NoisyOracle>,
}

impl CrowdOracle {
    /// Creates a crowd of `workers` independent experts with the given
    /// error rate (odd worker counts avoid ties; even counts break ties
    /// towards disapproval, the conservative default).
    pub fn new(
        truth: impl IntoIterator<Item = Correspondence>,
        workers: usize,
        error_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(workers >= 1, "crowd needs at least one worker");
        let truth: Vec<Correspondence> = truth.into_iter().collect();
        Self {
            workers: (0..workers)
                .map(|w| {
                    NoisyOracle::new(truth.iter().copied(), error_rate, seed.wrapping_add(w as u64))
                })
                .collect(),
        }
    }
}

impl Oracle for CrowdOracle {
    fn assert(&mut self, corr: Correspondence) -> bool {
        let yes = self.workers.iter_mut().map(|w| usize::from(w.assert(corr))).sum::<usize>();
        2 * yes > self.workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_schema::AttributeId;

    fn corr(a: u32, b: u32) -> Correspondence {
        Correspondence::new(AttributeId(a), AttributeId(b))
    }

    #[test]
    fn ground_truth_oracle_is_exact() {
        let mut o = GroundTruthOracle::new([corr(0, 1), corr(2, 3)]);
        assert!(o.assert(corr(0, 1)));
        assert!(o.assert(corr(1, 0)));
        assert!(!o.assert(corr(0, 2)));
        assert_eq!(o.truth_len(), 2);
        assert!(o.is_true(corr(2, 3)));
    }

    #[test]
    fn zero_noise_oracle_matches_ground_truth() {
        let truth = [corr(0, 1), corr(2, 3)];
        let mut noisy = NoisyOracle::new(truth, 0.0, 1);
        let mut exact = GroundTruthOracle::new(truth);
        for c in [corr(0, 1), corr(2, 3), corr(0, 3), corr(1, 2)] {
            assert_eq!(noisy.assert(c), exact.assert(c));
        }
    }

    #[test]
    fn full_noise_oracle_inverts_ground_truth() {
        let truth = [corr(0, 1)];
        let mut noisy = NoisyOracle::new(truth, 1.0, 1);
        assert!(!noisy.assert(corr(0, 1)));
        assert!(noisy.assert(corr(0, 2)));
    }

    #[test]
    fn noisy_oracle_memoizes_answers() {
        let truth: Vec<Correspondence> = (0..50).map(|i| corr(2 * i, 2 * i + 1)).collect();
        let mut noisy = NoisyOracle::new(truth.iter().copied(), 0.5, 42);
        for c in &truth {
            let first = noisy.assert(*c);
            for _ in 0..3 {
                assert_eq!(noisy.assert(*c), first, "answers must be stable");
            }
        }
    }

    #[test]
    fn noisy_oracle_err_rate_is_plausible() {
        let truth: Vec<Correspondence> = (0..200).map(|i| corr(2 * i, 2 * i + 1)).collect();
        let mut noisy = NoisyOracle::new(truth.iter().copied(), 0.2, 7);
        let errors = truth.iter().filter(|&&c| !noisy.assert(c)).count();
        let rate = errors as f64 / truth.len() as f64;
        assert!((rate - 0.2).abs() < 0.08, "observed error rate {rate}");
    }

    #[test]
    fn crowd_majority_reduces_error_rate() {
        let truth: Vec<Correspondence> = (0..300).map(|i| corr(2 * i, 2 * i + 1)).collect();
        let mut single = NoisyOracle::new(truth.iter().copied(), 0.25, 11);
        let mut crowd = CrowdOracle::new(truth.iter().copied(), 5, 0.25, 11);
        let single_errors = truth.iter().filter(|&&c| !single.assert(c)).count();
        let crowd_errors = truth.iter().filter(|&&c| !crowd.assert(c)).count();
        assert!(
            crowd_errors * 2 < single_errors,
            "5-worker majority ({crowd_errors}) should at least halve a single worker's errors ({single_errors})"
        );
    }

    #[test]
    fn crowd_of_one_equals_noisy_oracle() {
        let truth = [corr(0, 1), corr(2, 3)];
        let mut crowd = CrowdOracle::new(truth, 1, 0.3, 9);
        let mut single = NoisyOracle::new(truth, 0.3, 9);
        for c in [corr(0, 1), corr(2, 3), corr(0, 3), corr(1, 2)] {
            assert_eq!(crowd.assert(c), single.assert(c));
        }
    }

    #[test]
    fn perfect_crowd_is_exact() {
        let truth = [corr(0, 1)];
        let mut crowd = CrowdOracle::new(truth, 3, 0.0, 1);
        assert!(crowd.assert(corr(0, 1)));
        assert!(!crowd.assert(corr(0, 2)));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_crowd_rejected() {
        let _ = CrowdOracle::new(std::iter::empty(), 0, 0.1, 1);
    }
}
