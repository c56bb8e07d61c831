//! Hot-path micro-measurements, the first section of `BENCH_speed.json`.
//!
//! Per expert question, Algorithm 1 pays for three inner loops: the
//! Algorithm 3 sampling fill, the batch information-gain selection, and
//! the per-assertion view-maintenance + probability recomputation. This
//! module times exactly those on three calibrated network sizes so the
//! perf trajectory of the hot paths is recorded run over run:
//!
//! * `sampling_fill_ms` — a 50-emission Algorithm 3 fill
//!   ([`SampleStore::new`]), the "sampling-emission" bench;
//! * `information_gains_ms` — one batch
//!   [`information_gains`](ProbabilisticNetwork::information_gains) over
//!   every uncertain candidate (the Algorithm 1 selection step);
//! * `assert_candidate_ms` — one
//!   [`assert_candidate`](ProbabilisticNetwork::assert_candidate)
//!   (view maintenance + recompute) on a cloned network.
//!
//! [`measure_point`] fills the store twice and fingerprints the distinct
//! instance sets, so the emitted JSON also certifies that sampling is
//! bit-deterministic for a fixed seed. The `exp_speed` binary reports the
//! points next to their checked-in baseline (see [`crate::speed`]); the
//! criterion wrapper in `benches/hotpaths.rs` reuses the same setups.

use crate::{matched_network, MatcherKind};
use serde::Serialize;
use smn_constraints::BitSet;
use smn_core::feedback::{Assertion, Feedback};
use smn_core::sampling::{SampleStore, SamplerConfig};
use smn_core::{MatchingNetwork, ProbabilisticNetwork};
use smn_datasets::{DatasetSpec, SharingModel, Vocabulary};
use smn_schema::CandidateId;
use std::time::Instant;

/// The three bench sizes as (schemas, attributes per schema). The two
/// smaller entries match `benches/sampling.rs` so numbers stay comparable
/// across PRs; the largest pushes `|C|` towards the four-digit regime the
/// ROADMAP targets.
pub const SIZES: [(usize, usize); 3] = [(4, 40), (6, 60), (8, 90)];

/// Builds the standard bench network for a size entry.
pub fn bench_network(schemas: usize, attrs: usize, seed: u64) -> MatchingNetwork {
    let d = DatasetSpec {
        name: "bench".into(),
        vocabulary: Vocabulary::business_partner(),
        schema_count: schemas,
        attrs_min: attrs,
        attrs_max: attrs,
        sharing: SharingModel::RankBiased { alpha: 0.6 },
    }
    .generate(seed);
    let g = d.complete_graph();
    matched_network(&d, &g, MatcherKind::perturbation(seed)).0
}

/// Sampler configuration of the emission bench: one 50-emission pass.
pub fn emission_config() -> SamplerConfig {
    SamplerConfig { n_samples: 50, walk_steps: 4, n_min: 1, seed: 3, anneal: true, chains: 1 }
}

/// Sampler configuration backing the gain/assertion measurements.
pub fn store_config() -> SamplerConfig {
    SamplerConfig { n_samples: 400, walk_steps: 4, n_min: 150, seed: 3, anneal: true, chains: 1 }
}

/// One measured size point.
#[derive(Debug, Clone, Serialize)]
pub struct HotpathPoint {
    /// Schemas in the generated network.
    pub schemas: usize,
    /// Attributes per schema.
    pub attrs: usize,
    /// Resulting candidate-set size `|C|`.
    pub candidates: usize,
    /// Distinct samples in the measurement store.
    pub distinct_samples: usize,
    /// Whether two independent fills with the same seed produced
    /// bit-identical distinct-instance sets.
    pub deterministic: bool,
    /// Order-independent hash of the distinct-instance set.
    pub fingerprint: u64,
    /// Milliseconds for one 50-emission sampling fill (min over iters).
    pub sampling_fill_ms: f64,
    /// Milliseconds for one batch `information_gains` over all uncertain
    /// candidates (min over iters).
    pub information_gains_ms: f64,
    /// Milliseconds for one `assert_candidate` on a cloned network
    /// (min over iters).
    pub assert_candidate_ms: f64,
}

/// Order-independent fingerprint of a distinct-instance set.
pub fn fingerprint(samples: &[BitSet]) -> u64 {
    let mut acc = 0u64;
    for s in samples {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in s.words() {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        acc ^= h; // xor: insensitive to discovery order
    }
    acc
}

fn min_ms(iters: usize, mut f: impl FnMut() -> ()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Measures one size point; `iters` timing repetitions per quantity.
pub fn measure_point(schemas: usize, attrs: usize, iters: usize) -> HotpathPoint {
    let net = bench_network(schemas, attrs, 7);
    let n = net.candidate_count();
    let empty = Feedback::new(n);

    // determinism: two independent fills must agree bit-for-bit
    let fill_a = SampleStore::new(&net, &empty, emission_config());
    let fill_b = SampleStore::new(&net, &empty, emission_config());
    let fp = fingerprint(fill_a.samples());
    let deterministic = fp == fingerprint(fill_b.samples());

    let sampling_fill_ms =
        min_ms(iters, || drop(SampleStore::new(&net, &empty, emission_config())));

    let pn = ProbabilisticNetwork::new(net, store_config());
    let pool = pn.uncertain_candidates();
    let information_gains_ms = min_ms(iters, || drop(pn.information_gains(&pool)));

    let probe = (0..n)
        .map(CandidateId::from_index)
        .find(|&c| {
            let p = pn.probability(c);
            p > 0.0 && p < 1.0
        })
        .expect("bench network has uncertain candidates");
    // the clone is setup, not measured work: time only the call itself
    let assert_candidate_ms = {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let mut fresh = pn.clone();
            let start = Instant::now();
            fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };

    HotpathPoint {
        schemas,
        attrs,
        candidates: n,
        distinct_samples: pn.samples().len(),
        deterministic,
        fingerprint: fp,
        sampling_fill_ms,
        information_gains_ms,
        assert_candidate_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_point_is_deterministic_and_positive() {
        let p = measure_point(SIZES[0].0, SIZES[0].1, 1);
        assert!(p.deterministic, "same seed must reproduce the distinct-instance set");
        assert!(p.candidates > 0 && p.distinct_samples > 0);
        assert!(p.sampling_fill_ms > 0.0);
        assert!(p.information_gains_ms >= 0.0);
        assert!(p.assert_candidate_ms > 0.0);
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = BitSet::from_ids(10, [CandidateId(1), CandidateId(5)]);
        let b = BitSet::from_ids(10, [CandidateId(2)]);
        let fwd = fingerprint(&[a.clone(), b.clone()]);
        let rev = fingerprint(&[b, a]);
        assert_eq!(fwd, rev);
    }
}
