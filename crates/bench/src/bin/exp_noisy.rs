//! Extension experiment — reconciliation with *imperfect* experts.
//!
//! The paper assumes assertions are always right (§II-B) and points to
//! multi-user extensions in its conclusion. This experiment quantifies
//! both directions on the BP network: a single expert with error rate
//! `e ∈ {0, 5, 10, 20}%`, and a 5-worker majority crowd at the same error
//! rates. Reports the instantiated matching quality after a 15% effort
//! budget with information-gain ordering.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_noisy [-- --runs N]`

use serde::Serialize;
use smn_bench::{bp_coma, save_json, standard_sampler, Table};
use smn_core::pool;
use smn_core::reconcile::reconcile;
use smn_core::selection::{InformationGainSelection, SelectionStrategy};
use smn_core::{
    CrowdOracle, InstantiationConfig, NoisyOracle, Oracle, PrecisionRecall, ProbabilisticNetwork,
    ReconciliationGoal,
};

#[derive(Serialize)]
struct Point {
    expert: &'static str,
    error_rate_percent: f64,
    precision: f64,
    recall: f64,
    f1: f64,
}

fn main() {
    let runs: u64 = std::env::args()
        .skip_while(|a| a != "--runs")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let (network, truth) = bp_coma();
    let n = network.candidate_count();
    let budget = (0.15 * n as f64).round() as usize;
    eprintln!("BP network: |C| = {n}, budget = {budget}, runs = {runs}");

    let mut results = Vec::new();
    let mut table = Table::new(["expert", "error %", "precision", "recall", "F1"]);
    for (expert, workers) in [("single", 1usize), ("crowd-5", 5)] {
        for error in [0.0, 0.05, 0.10, 0.20] {
            let qualities = pool::global().map(0..runs, |seed| {
                let mut pn = ProbabilisticNetwork::new(network.clone(), standard_sampler(seed));
                let mut strategy: Box<dyn SelectionStrategy> =
                    Box::new(InformationGainSelection::new(seed));
                let mut oracle: Box<dyn Oracle> = if workers == 1 {
                    Box::new(NoisyOracle::new(truth.iter().copied(), error, seed))
                } else {
                    Box::new(CrowdOracle::new(truth.iter().copied(), workers, error, seed))
                };
                reconcile(
                    &mut pn,
                    strategy.as_mut(),
                    oracle.as_mut(),
                    ReconciliationGoal::Budget(budget),
                );
                let inst = smn_core::instantiate::instantiate(
                    &pn,
                    InstantiationConfig { seed, ..Default::default() },
                );
                PrecisionRecall::of_instance(pn.network(), &inst.instance, truth.iter().copied())
            });
            let precision =
                qualities.iter().map(|q| q.precision).sum::<f64>() / qualities.len() as f64;
            let recall = qualities.iter().map(|q| q.recall).sum::<f64>() / qualities.len() as f64;
            let f1 = qualities.iter().map(|q| q.f1()).sum::<f64>() / qualities.len() as f64;
            table.row([
                expert.to_string(),
                format!("{:.0}", error * 100.0),
                format!("{precision:.3}"),
                format!("{recall:.3}"),
                format!("{f1:.3}"),
            ]);
            results.push(Point {
                expert,
                error_rate_percent: error * 100.0,
                precision,
                recall,
                f1,
            });
            eprintln!("done: {expert} @ {:.0}%", error * 100.0);
        }
    }
    println!("Extension — imperfect experts (BP, 15% effort, IG ordering, {runs} runs)");
    println!("(not in the paper; §VIII motivates multi-user extensions)");
    table.print();
    if let Ok(p) = save_json("noisy", &results) {
        println!("\nwrote {}", p.display());
    }
}
