//! Fig. 7 — sampling effectiveness in terms of K-L divergence.
//!
//! For `|C| = 10 … 20` builds networks small enough to enumerate exactly,
//! estimates probabilities with `2^{|C|/2}` sampler emissions (the paper's
//! budget), and reports `KL_ratio = D(P‖Q) / D(P‖U)` in percent, averaged
//! over several settings — `U` being the maximum-entropy baseline
//! (`u_c = 0.5`). The paper reports ratios below 2%.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig7`

use serde::Serialize;
use smn_bench::{save_json, Table};
use smn_constraints::ConstraintConfig;
use smn_core::exact::exact_probabilities;
use smn_core::feedback::Feedback;
use smn_core::{kl_ratio, MatchingNetwork, ProbabilisticNetwork, SamplerConfig};
use smn_schema::{AttributeId, CandidateSet, CatalogBuilder, InteractionGraph};

/// Builds a network with exactly `n_corr` candidates over three schemas:
/// identity ("true") pairs first, then seeded *hard confusions* that share
/// an endpoint with an identity pair — exactly the shape real matcher
/// top-k output has (and what makes the probabilities skew away from ½,
/// cf. Fig. 8, so the uniform baseline is a meaningful denominator).
fn network_with(n_corr: usize, m: usize, seed: u64) -> MatchingNetwork {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut b = CatalogBuilder::new();
    for s in 0..3 {
        b.add_schema_with_attributes(format!("s{s}"), (0..m).map(|i| format!("a{s}_{i}"))).unwrap();
    }
    let catalog = b.build();
    let graph = InteractionGraph::complete(3);
    let mut cs = CandidateSet::new(&catalog);
    let attr = |s: usize, i: usize| AttributeId::from_index(s * m + i);
    let edges = [(0usize, 1usize), (1, 2), (0, 2)];
    // identity pairs for roughly half the budget
    let mut added = 0usize;
    'identity: for i in 0..m {
        for &(s1, s2) in &edges {
            if added >= n_corr / 2 {
                break 'identity;
            }
            cs.add(&catalog, Some(&graph), attr(s1, i), attr(s2, i), 0.8).expect("valid pair");
            added += 1;
        }
    }
    // endpoint-sharing confusions for the rest
    let mut rng = StdRng::seed_from_u64(seed);
    let mut guard = 0;
    while added < n_corr {
        guard += 1;
        assert!(guard < 10_000, "confusion generation stuck");
        let (s1, s2) = edges[rng.random_range(0..edges.len())];
        let i = rng.random_range(0..m);
        let j = rng.random_range(0..m);
        if i == j {
            continue;
        }
        // (a_i of s1) — (b_j of s2): 1-1 conflict with identity pair i
        let (a, b2) = if rng.random_bool(0.5) {
            (attr(s1, i), attr(s2, j))
        } else {
            (attr(s1, j), attr(s2, i))
        };
        if cs.find(a, b2).is_none() {
            cs.add(&catalog, Some(&graph), a, b2, 0.5).expect("valid pair");
            added += 1;
        }
    }
    assert_eq!(cs.len(), n_corr);
    MatchingNetwork::new(catalog, graph, cs, ConstraintConfig::default())
}

#[derive(Serialize)]
struct Point {
    candidates: usize,
    samples_budget: usize,
    instances: usize,
    kl_ratio_percent: f64,
}

fn main() {
    const SETTINGS: u64 = 5;
    let mut table =
        Table::new(["#Correspondences", "2^{|C|/2} samples", "#instances", "KL ratio (%)"]);
    let mut points = Vec::new();
    for n_corr in 10..=20usize {
        let budget = 1usize << (n_corr / 2);
        let mut ratio_sum = 0.0;
        let mut instances = 0usize;
        for seed in 0..SETTINGS {
            let network = network_with(n_corr, 5, 100 + seed);
            let exact = exact_probabilities(&network, &Feedback::new(n_corr), 10_000_000)
                .expect("enumerable at this size");
            instances +=
                smn_core::exact::enumerate_instances(&network, &Feedback::new(n_corr), 10_000_000)
                    .expect("enumerable")
                    .len();
            let pn = ProbabilisticNetwork::new(
                network,
                SamplerConfig {
                    n_samples: budget,
                    walk_steps: 10,
                    n_min: 1, // fixed budget — no refill loop
                    seed,
                    anneal: true,
                    chains: 1,
                },
            );
            // add-half smoothing at the sampling resolution: a candidate
            // absent from every discovered instance gets q = 0.5/(S+1)
            // rather than 0 (which would make the divergence degenerate)
            let s = pn.samples().len() as f64;
            let q: Vec<f64> =
                pn.probabilities().iter().map(|&p| (p * s + 0.5) / (s + 1.0)).collect();
            ratio_sum += kl_ratio(&exact, &q);
        }
        let ratio = 100.0 * ratio_sum / SETTINGS as f64;
        let instances = instances / SETTINGS as usize;
        table.row([
            n_corr.to_string(),
            budget.to_string(),
            instances.to_string(),
            format!("{ratio:.3}"),
        ]);
        points.push(Point {
            candidates: n_corr,
            samples_budget: budget,
            instances,
            kl_ratio_percent: ratio,
        });
    }
    println!("Fig. 7 — sampling effectiveness (K-L ratio vs exact distribution)");
    println!("(paper: ratio stays below 2% for 10–20 correspondences)");
    table.print();
    if let Ok(p) = save_json("fig7", &points) {
        println!("\nwrote {}", p.display());
    }
}
