//! The simulated crowd: workers with individual error rates.
//!
//! Each worker is the service-layer analogue of
//! [`smn_core::NoisyOracle`], with one deliberate difference: instead of
//! memoizing RNG draws in query order, a worker's verdict on a
//! correspondence is a *pure function* of `(pool seed, worker id,
//! correspondence)` (a splitmix64 hash thresholded against the worker's
//! error rate). The answers are exactly as consistent as a memoized
//! oracle's — the same worker asked twice answers the same — but they are
//! also *exchangeable*: no matter which thread asks first, in which round,
//! at which redundancy, the answer is the same. That property is what
//! lets the [`ReconciliationService`](crate::service::ReconciliationService)
//! promise byte-identical runs at any thread count.

use serde::Serialize;
use smn_schema::Correspondence;
use std::collections::HashSet;

/// One worker's quality profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WorkerProfile {
    /// Probability that the worker answers against the ground truth.
    /// Quality-weighted aggregation treats this as the worker's calibrated
    /// quality (log-odds weight).
    pub error_rate: f64,
}

/// Per-worker answer tallies, filled in as the service commits rounds.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct WorkerStats {
    /// Questions this worker answered.
    pub answered: u64,
    /// Answers that contradicted the ground truth.
    pub errors: u64,
}

/// A pool of simulated workers answering against a shared ground truth.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    profiles: Vec<WorkerProfile>,
    truth: HashSet<Correspondence>,
    seed: u64,
    stats: Vec<WorkerStats>,
}

impl WorkerPool {
    /// Creates the pool from per-worker error rates and the verified
    /// matching the simulation answers against.
    ///
    /// # Panics
    /// Panics on an empty pool or an error rate outside `[0, 1]`.
    pub fn new(
        error_rates: impl IntoIterator<Item = f64>,
        truth: impl IntoIterator<Item = Correspondence>,
        seed: u64,
    ) -> Self {
        let profiles: Vec<WorkerProfile> =
            error_rates.into_iter().map(|error_rate| WorkerProfile { error_rate }).collect();
        assert!(!profiles.is_empty(), "worker pool needs at least one worker");
        for p in &profiles {
            assert!((0.0..=1.0).contains(&p.error_rate), "error rate out of range");
        }
        let stats = vec![WorkerStats::default(); profiles.len()];
        Self { profiles, truth: truth.into_iter().collect(), seed, stats }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The worker quality profiles.
    pub fn profiles(&self) -> &[WorkerProfile] {
        &self.profiles
    }

    /// Per-worker answer tallies.
    pub fn stats(&self) -> &[WorkerStats] {
        &self.stats
    }

    /// Size of the verified matching (distinct correspondences).
    pub fn truth_len(&self) -> usize {
        self.truth.len()
    }

    /// Whether the verified matching contains `corr`.
    pub fn is_true(&self, corr: Correspondence) -> bool {
        self.truth.contains(&corr)
    }

    /// Worker `w`'s verdict on `corr`: the ground truth, flipped with
    /// probability `error_rate` by a deterministic per-`(worker, corr)`
    /// coin. Pure — no internal state advances; safe to call from any
    /// thread in any order.
    pub fn answer(&self, w: usize, corr: Correspondence) -> bool {
        let correct = self.truth.contains(&corr);
        let coin = unit_from_hash(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((w as u64) << 32)
                .wrapping_add(u64::from(corr.a().0))
                .wrapping_add(u64::from(corr.b().0).wrapping_mul(0x45D9_F3B3_3350_85D1)),
        );
        if coin < self.profiles[w].error_rate {
            !correct
        } else {
            correct
        }
    }

    /// Tallies one committed answer of worker `w` (called by the service
    /// during the single-threaded commit phase).
    pub fn record(&mut self, w: usize, corr: Correspondence, approved: bool) {
        self.stats[w].answered += 1;
        if approved != self.is_true(corr) {
            self.stats[w].errors += 1;
        }
    }
}

/// splitmix64 finalizer → uniform in `[0, 1)`.
fn unit_from_hash(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_schema::AttributeId;

    fn corr(a: u32, b: u32) -> Correspondence {
        Correspondence::new(AttributeId(a), AttributeId(b))
    }

    fn truth() -> Vec<Correspondence> {
        (0..200).map(|i| corr(2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn perfect_worker_matches_ground_truth() {
        let pool = WorkerPool::new([0.0, 0.0], truth(), 7);
        for c in [corr(0, 1), corr(2, 3), corr(0, 3), corr(1, 2)] {
            assert_eq!(pool.answer(0, c), pool.is_true(c));
            assert_eq!(pool.answer(1, c), pool.is_true(c));
        }
    }

    #[test]
    fn full_noise_worker_inverts_ground_truth() {
        let pool = WorkerPool::new([1.0], truth(), 7);
        assert!(!pool.answer(0, corr(0, 1)));
        assert!(pool.answer(0, corr(1, 2)));
    }

    #[test]
    fn answers_are_stable_and_order_independent() {
        let pool = WorkerPool::new([0.5, 0.5, 0.5], truth(), 42);
        let forward: Vec<bool> = truth().iter().map(|&c| pool.answer(1, c)).collect();
        let backward: Vec<bool> = truth().iter().rev().map(|&c| pool.answer(1, c)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        for (i, &c) in truth().iter().enumerate() {
            assert_eq!(pool.answer(1, c), forward[i], "answers must be pure");
        }
    }

    #[test]
    fn workers_err_independently_at_plausible_rates() {
        let t = truth();
        let pool = WorkerPool::new([0.2, 0.2], t.iter().copied(), 11);
        let errs = |w: usize| t.iter().filter(|&&c| !pool.answer(w, c)).count();
        let (e0, e1) = (errs(0), errs(1));
        for e in [e0, e1] {
            let rate = e as f64 / t.len() as f64;
            assert!((rate - 0.2).abs() < 0.09, "observed error rate {rate}");
        }
        // distinct workers flip distinct questions
        let differ = t.iter().filter(|&&c| pool.answer(0, c) != pool.answer(1, c)).count();
        assert!(differ > 0, "independent workers cannot agree everywhere at 20% noise");
    }

    #[test]
    fn record_tallies_errors_against_truth() {
        let mut pool = WorkerPool::new([0.0], truth(), 1);
        pool.record(0, corr(0, 1), true);
        pool.record(0, corr(0, 1), false);
        assert_eq!(pool.stats()[0].answered, 2);
        assert_eq!(pool.stats()[0].errors, 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pool_rejected() {
        let _ = WorkerPool::new(std::iter::empty::<f64>(), truth(), 1);
    }
}
