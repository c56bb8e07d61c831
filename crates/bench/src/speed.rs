//! The speed-ceiling bench setups: batched what-if against the
//! per-candidate loop, and the federation sizes of the gain-scan and
//! selection benches.
//!
//! `benches/speed.rs` times the sampling fill, [`what_if_batch`] against
//! a per-candidate [`what_if`] loop, and a federation gain scan;
//! `benches/selection.rs` times cached against fresh-scan selection. The
//! batch path re-evaluates only the touched shard per query
//! (`H' = H − H_k + H'_k`) instead of forking the whole network; this
//! module's tests certify that it agrees with the loop to 1e-12.
//!
//! [`what_if_batch`]: ProbabilisticNetwork::what_if_batch
//! [`what_if`]: ProbabilisticNetwork::what_if

use smn_core::ProbabilisticNetwork;

/// Federation sizes of the speed and selection benches (fused 3-schema
/// sub-networks; ≈ 15 candidates each, so 96 ≈ the |C|≈1.4k hot-path
/// regime and 700 reaches |C| ≈ 10⁴).
pub const FEDERATION_GROUPS: [usize; 2] = [96, 700];

/// Hypothetical assertions evaluated by the what-if bench.
pub const WHAT_IF_QUERIES: usize = 128;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{bench_sampler, bench_sharding, federation_network};

    #[test]
    fn what_if_batch_matches_per_candidate_loop() {
        let groups = FEDERATION_GROUPS[0];
        let net = federation_network(groups, 7);
        let pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let queries = what_if_queries(&pn);
        let batched = pn.what_if_batch(&queries);
        let max_abs_delta = queries
            .iter()
            .zip(&batched)
            .map(|(&(c, a), b)| (pn.what_if(c, a) - b).abs())
            .fold(0.0, f64::max);
        assert!(max_abs_delta <= 1e-12, "batched what-if drifted: max |Δ| = {max_abs_delta:e}");
        assert!(!queries.is_empty() && pn.shard_count() > groups / 2);
    }

    #[test]
    fn small_federation_point_is_deterministic() {
        let net = federation_network(8, 7);
        let build =
            || ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
        let (pn, again) = (build(), build());
        assert_eq!(
            pn.probabilities(),
            again.probabilities(),
            "sharded build must be bit-deterministic per seed"
        );
        assert!(net.candidate_count() > 0 && !pn.uncertain_candidates().is_empty());
        let largest = smn_constraints::Components::of_index(net.index()).largest();
        assert!(largest < net.candidate_count(), "a federation has many components");
    }
}
