//! Single-node speed-ceiling measurements behind `BENCH_speed.json`.
//!
//! Three sections, one JSON report:
//!
//! * **Hot paths vs the optimized baseline** — the [`crate::hotpaths`]
//!   quantities (sampling fill, batch information gains, per-assertion
//!   view maintenance + recompute) at the standard sizes, with the PR-2
//!   optimized numbers checked in as [`PR2_OPTIMIZED_MS`] and the speedup
//!   ratios derived in the report. The wins are algorithmic, measured on
//!   a single core: the batched transpose append of the sample matrix
//!   (fill), the frontier unwind on rejected walk steps (fill), the
//!   blocked gain scan (gains) and the BMI2 column compaction of view
//!   maintenance (assert).
//! * **Batched what-if** — [`what_if_batch`] against a per-candidate
//!   [`what_if`] loop on a sharded federation, with the max absolute
//!   entropy delta between the two paths recorded (the 1e-12 equivalence
//!   evidence). The batch path re-evaluates only the touched shard per
//!   query (`H' = H − H_k + H'_k`) instead of forking the whole network.
//! * **Federation scale** — sharded-only points up to `|C| ≈ 10⁴`,
//!   recording per-assertion and per-candidate gain-scan cost. Both are
//!   functions of *component* size, not total `|C|`, so they stay
//!   near-flat as the federation grows.
//!
//! The `exp_speed` binary prints the sections and writes
//! `results/speed_<label>.json`; `benches/speed.rs` wraps the same setups
//! in criterion. Every non-timing field is a pure function of the seeds
//! (`SMN_SCRUB_TIMINGS=1` zeroes the rest), so the CI determinism smoke
//! covers this report too.
//!
//! [`what_if_batch`]: ProbabilisticNetwork::what_if_batch
//! [`what_if`]: ProbabilisticNetwork::what_if

use crate::hotpaths::{measure_point, HotpathPoint, SIZES};
use crate::sharding::{bench_sampler, bench_sharding, federation_network, owned_probe};
use serde::Serialize;
use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;
use std::time::Instant;

/// The PR-2 optimized hot-path numbers this PR is gated against, as
/// `(candidates, sampling_fill_ms, information_gains_ms,
/// assert_candidate_ms)` — the hot-path values checked in with the
/// wide-bitset kernels at the standard sizes.
pub const PR2_OPTIMIZED_MS: [(usize, f64, f64, f64); 3] = [
    (58, 0.044371, 0.091471, 0.021165),
    (352, 0.193374, 1.486568, 0.07193),
    (1417, 0.521422, 15.683365, 0.243339),
];

/// Federation sizes of the scale section (fused 3-schema sub-networks;
/// ≈ 15 candidates each, so 96 ≈ the |C|≈1.4k hot-path regime and 700
/// reaches |C| ≈ 10⁴).
pub const FEDERATION_GROUPS: [usize; 2] = [96, 700];

/// Hypothetical assertions evaluated by the what-if section.
pub const WHAT_IF_QUERIES: usize = 128;

/// One hot-path size point with its PR-2 ratio.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedPoint {
    /// The re-measured hot paths ([`measure_point`] at one size).
    pub hotpaths: HotpathPoint,
    /// PR-2 optimized sampling-fill milliseconds at this size.
    pub baseline_fill_ms: f64,
    /// PR-2 optimized information-gains milliseconds at this size.
    pub baseline_gains_ms: f64,
    /// PR-2 optimized assert-candidate milliseconds at this size.
    pub baseline_assert_ms: f64,
    /// `baseline_fill_ms / sampling_fill_ms`.
    pub speedup_fill: f64,
    /// `baseline_gains_ms / information_gains_ms`.
    pub speedup_gains: f64,
    /// `baseline_assert_ms / assert_candidate_ms`.
    pub speedup_assert: f64,
}

/// The batched-vs-per-candidate what-if comparison.
#[derive(Debug, Clone, Serialize)]
pub struct WhatIfPoint {
    /// Fused sub-networks in the scenario.
    pub groups: usize,
    /// Candidate-set size `|C|`.
    pub candidates: usize,
    /// Conflict components (= shards).
    pub components: usize,
    /// Hypothetical assertions evaluated.
    pub queries: usize,
    /// Largest `|what_if − what_if_batch|` over the queries — the
    /// equivalence evidence (deterministic per seed; both paths are).
    pub max_abs_delta: f64,
    /// Whether `max_abs_delta ≤ 1e-12`.
    pub equivalent: bool,
    /// Milliseconds for the per-candidate `what_if` loop (min over iters).
    pub per_candidate_ms: f64,
    /// Milliseconds for one `what_if_batch` call (min over iters).
    pub batched_ms: f64,
    /// `per_candidate_ms / batched_ms`.
    pub speedup_batch: f64,
}

/// One federation scale point (sharded representation only).
#[derive(Debug, Clone, Serialize)]
pub struct FederationSpeedPoint {
    /// Fused sub-networks in the scenario.
    pub groups: usize,
    /// Candidate-set size `|C|`.
    pub candidates: usize,
    /// Conflict components (= shards).
    pub components: usize,
    /// Candidates in the largest component — the quantity per-assertion
    /// and per-gain-scan cost actually scale with.
    pub largest_component: usize,
    /// Uncertain candidates (the gain-scan pool).
    pub uncertain: usize,
    /// Whether two independent sharded builds agreed bit-for-bit.
    pub deterministic: bool,
    /// Order-independent hash of the posterior vector's bit patterns.
    pub fingerprint: u64,
    /// Milliseconds to build the sharded network (min over iters).
    pub build_ms: f64,
    /// Milliseconds per owned `assert_candidate` (min over iters) — flat
    /// in `largest_component`, not `candidates`.
    pub assert_ms: f64,
    /// Milliseconds for one batch `information_gains` over the whole
    /// uncertain pool (min over iters).
    pub gains_ms: f64,
    /// Microseconds of gain scan per pool candidate
    /// (`gains_ms · 1000 / uncertain`) — flat in `largest_component`.
    pub gain_scan_per_candidate_us: f64,
}

/// The full `BENCH_speed.json` report.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedReport {
    pub hotpaths: Vec<SpeedPoint>,
    pub what_if: WhatIfPoint,
    pub federation: Vec<FederationSpeedPoint>,
}

fn min_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Re-measures the hot-path sizes and derives the PR-2 ratios.
pub fn measure_hotpaths(iters: usize) -> Vec<SpeedPoint> {
    SIZES
        .iter()
        .zip(PR2_OPTIMIZED_MS)
        .map(|(&(s, a), (c, base_fill, base_gains, base_assert))| {
            let p = measure_point(s, a, iters);
            debug_assert_eq!(p.candidates, c, "PR-2 baseline rows are per |C|");
            SpeedPoint {
                baseline_fill_ms: base_fill,
                baseline_gains_ms: base_gains,
                baseline_assert_ms: base_assert,
                speedup_fill: base_fill / p.sampling_fill_ms,
                speedup_gains: base_gains / p.information_gains_ms,
                speedup_assert: base_assert / p.assert_candidate_ms,
                hotpaths: p,
            }
        })
        .collect()
}

/// The standard what-if query mix on a network: the first
/// [`WHAT_IF_QUERIES`] uncertain candidates, alternating approve /
/// disapprove so both maintenance directions are exercised.
pub fn what_if_queries(pn: &ProbabilisticNetwork) -> Vec<(smn_schema::CandidateId, bool)> {
    pn.uncertain_candidates()
        .into_iter()
        .take(WHAT_IF_QUERIES)
        .enumerate()
        .map(|(i, c)| (c, i % 2 == 0))
        .collect()
}

/// Measures the batched what-if section on the small federation size.
pub fn measure_what_if(iters: usize) -> WhatIfPoint {
    let groups = FEDERATION_GROUPS[0];
    let net = federation_network(groups, 7);
    let pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
    let queries = what_if_queries(&pn);

    let per: Vec<f64> = queries.iter().map(|&(c, a)| pn.what_if(c, a)).collect();
    let batched = pn.what_if_batch(&queries);
    let max_abs_delta = per.iter().zip(&batched).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);

    let per_candidate_ms = min_ms(iters, || {
        for &(c, a) in &queries {
            std::hint::black_box(pn.what_if(c, a));
        }
    });
    let batched_ms = min_ms(iters, || drop(pn.what_if_batch(&queries)));

    WhatIfPoint {
        groups,
        candidates: pn.network().candidate_count(),
        components: pn.shard_count(),
        queries: queries.len(),
        max_abs_delta,
        equivalent: max_abs_delta <= 1e-12,
        per_candidate_ms,
        batched_ms,
        speedup_batch: per_candidate_ms / batched_ms,
    }
}

/// Measures one federation scale point.
pub fn measure_federation_point(groups: usize, iters: usize) -> FederationSpeedPoint {
    let net = federation_network(groups, 7);
    let sampler = bench_sampler(3);
    let sharding = bench_sharding();
    let pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding);
    let again = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding);
    let deterministic = pn.probabilities() == again.probabilities();
    // FNV over the posterior bit patterns in candidate order — the
    // byte-level identity the determinism claim is about
    let fp = {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &p in pn.probabilities() {
            h ^= p.to_bits();
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    };
    let largest_component = smn_constraints::Components::of_index(net.index()).largest();

    let build_ms =
        min_ms(iters, || drop(ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding)));

    // owned-assert protocol (see `sharding::measure_point`): the warm-up
    // assertion unshares the probe's shard so the timer sees the owned
    // path, not the copy-on-write commit
    let (warm, probe) = owned_probe(&pn);
    let assert_ms = {
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let mut fresh = pn.clone();
            fresh.assert_candidate(Assertion { candidate: warm, approved: false }).unwrap();
            let start = Instant::now();
            fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
        best
    };

    let pool = pn.uncertain_candidates();
    let gains_ms = min_ms(iters, || drop(pn.information_gains(&pool)));

    FederationSpeedPoint {
        groups,
        candidates: net.candidate_count(),
        components: pn.shard_count(),
        largest_component,
        uncertain: pool.len(),
        deterministic,
        fingerprint: fp,
        build_ms,
        assert_ms,
        gains_ms,
        gain_scan_per_candidate_us: gains_ms * 1e3 / pool.len().max(1) as f64,
    }
}

/// Measures the whole report.
pub fn measure(iters: usize) -> SpeedReport {
    SpeedReport {
        hotpaths: measure_hotpaths(iters),
        what_if: measure_what_if(iters),
        federation: FEDERATION_GROUPS.iter().map(|&g| measure_federation_point(g, iters)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_if_batch_matches_per_candidate_loop() {
        let p = measure_what_if(1);
        assert!(p.equivalent, "batched what-if drifted: max |Δ| = {:e}", p.max_abs_delta);
        assert!(p.queries > 0 && p.components > p.groups / 2);
    }

    #[test]
    fn small_federation_point_is_deterministic() {
        let p = measure_federation_point(8, 1);
        assert!(p.deterministic, "sharded build must be bit-deterministic per seed");
        assert!(p.candidates > 0 && p.uncertain > 0);
        assert!(p.largest_component < p.candidates, "a federation has many components");
        assert!(p.assert_ms > 0.0 && p.gains_ms > 0.0);
    }

    #[test]
    fn baseline_rows_align_with_sizes() {
        assert_eq!(PR2_OPTIMIZED_MS.len(), SIZES.len());
    }
}
