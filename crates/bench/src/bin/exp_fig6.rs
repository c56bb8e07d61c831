//! Fig. 6 — effect of network size on the computation time of probability
//! estimation.
//!
//! For candidate-set sizes 2^7 … 2^12, builds Erdős–Rényi interaction
//! graphs (as in §VI-B), generates calibrated candidates, and measures the
//! average wall time per emitted sample over 1000 samples, averaged over
//! several graph settings per size.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig6`

use serde::Serialize;
use smn_bench::{save_json, Table};
use smn_constraints::ConstraintConfig;
use smn_core::feedback::Feedback;
use smn_core::sampling::{SampleStore, SamplerConfig};
use smn_core::MatchingNetwork;
use smn_matchers::{matcher::match_network, PerturbationMatcher};
use smn_schema::{AttributeId, CatalogBuilder, Correspondence, InteractionGraph};
use std::time::Instant;

/// Builds a network with roughly `target` candidates: `n_schemas` of
/// `m` attributes on an ER graph whose edge count scales with the target.
fn er_network(target: usize, setting_seed: u64) -> MatchingNetwork {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let m = 20usize;
    // candidates per edge ≈ m · recall/precision ≈ 20 · 1.31
    let per_edge = (m as f64 * 0.85 / 0.65).round() as usize;
    let edges_needed = target.div_ceil(per_edge);
    // pick n so the complete graph has ~2× the edges we need, then thin
    let n = (((2.0 * edges_needed as f64 * 2.0).sqrt()).ceil() as usize).max(3);
    let p = edges_needed as f64 / (n * (n - 1) / 2) as f64;
    let mut rng = StdRng::seed_from_u64(setting_seed);
    let graph = InteractionGraph::erdos_renyi(n, p.min(1.0), &mut rng);

    let mut b = CatalogBuilder::new();
    for s in 0..n {
        b.add_schema_with_attributes(format!("s{s}"), (0..m).map(|i| format!("a{s}_{i}"))).unwrap();
    }
    let catalog = b.build();
    let mut truth = Vec::new();
    for &(s1, s2) in graph.edges() {
        for i in 0..m {
            truth.push(Correspondence::new(
                AttributeId::from_index(s1.index() * m + i),
                AttributeId::from_index(s2.index() * m + i),
            ));
        }
    }
    let matcher = PerturbationMatcher::new(truth.iter().copied(), 0.65, 0.85, setting_seed);
    let candidates = match_network(&matcher, &catalog, &graph).expect("valid candidates");
    MatchingNetwork::new(catalog, graph, candidates, ConstraintConfig::default())
}

#[derive(Serialize)]
struct Point {
    target_candidates: usize,
    mean_candidates: f64,
    micros_per_sample: f64,
}

fn main() {
    const SAMPLES: usize = 1000;
    const SETTINGS: u64 = 3;
    let mut table = Table::new(["#Correspondences", "time/sample (ms)", "|C| measured"]);
    let mut points = Vec::new();
    for exp in 7..=12u32 {
        let target = 1usize << exp;
        let mut total_micros = 0.0;
        let mut total_c = 0usize;
        for setting in 0..SETTINGS {
            let network = er_network(target, 1000 * exp as u64 + setting);
            total_c += network.candidate_count();
            let feedback = Feedback::new(network.candidate_count());
            let config = SamplerConfig {
                n_samples: SAMPLES,
                walk_steps: 4,
                n_min: 1, // single pass: time exactly `SAMPLES` emissions
                seed: setting,
                anneal: true,
                chains: 1,
            };
            let t = Instant::now();
            let store = SampleStore::new(&network, &feedback, config);
            let elapsed = t.elapsed();
            std::hint::black_box(store.len());
            total_micros += elapsed.as_secs_f64() * 1e6 / SAMPLES as f64;
        }
        let micros = total_micros / SETTINGS as f64;
        let mean_c = total_c as f64 / SETTINGS as f64;
        table.row([target.to_string(), format!("{:.4}", micros / 1000.0), format!("{mean_c:.0}")]);
        points.push(Point {
            target_candidates: target,
            mean_candidates: mean_c,
            micros_per_sample: micros,
        });
        eprintln!("done: 2^{exp}");
    }
    println!("Fig. 6 — probability-estimation time per sample vs network size");
    println!("(paper: ≈2 ms/sample at 4096 correspondences on 2010s hardware)");
    table.print();
    if let Ok(p) = save_json("fig6", &points) {
        println!("\nwrote {}", p.display());
    }
}
