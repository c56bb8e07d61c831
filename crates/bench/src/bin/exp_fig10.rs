//! Fig. 10 — effect of the ordering strategy on instantiation quality (BP).
//!
//! For effort budgets 0–15%, reconciles with Random vs information-gain
//! ordering, instantiates with Algorithm 2, and reports precision and
//! recall of the instantiated matching `H` against the selective matching,
//! averaged over repeated runs.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig10 [-- --runs N]`

use serde::Serialize;
use smn_bench::{bp_coma, save_json, standard_sampler, Table};
use smn_core::pool;
use smn_core::reconcile::reconcile;
use smn_core::selection::{InformationGainSelection, RandomSelection, SelectionStrategy};
use smn_core::{
    GroundTruthOracle, InstantiationConfig, PrecisionRecall, ProbabilisticNetwork,
    ReconciliationGoal,
};

#[derive(Serialize)]
struct Point {
    strategy: &'static str,
    effort_percent: f64,
    precision: f64,
    recall: f64,
}

fn main() {
    let runs: u64 = std::env::args()
        .skip_while(|a| a != "--runs")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let (network, truth) = bp_coma();
    let n = network.candidate_count();
    eprintln!("BP network: |C| = {n}, |M| = {}, runs = {runs}", truth.len());

    let efforts = [0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15];
    let mut results: Vec<Point> = Vec::new();
    for heuristic in [false, true] {
        let label: &'static str = if heuristic { "heuristic" } else { "random" };
        for &effort in &efforts {
            let budget = (effort * n as f64).round() as usize;
            let qualities = pool::global().map(0..runs, |seed| {
                let mut pn = ProbabilisticNetwork::new(network.clone(), standard_sampler(seed));
                let mut strategy: Box<dyn SelectionStrategy> = if heuristic {
                    Box::new(InformationGainSelection::new(seed))
                } else {
                    Box::new(RandomSelection::new(seed))
                };
                let mut oracle = GroundTruthOracle::new(truth.iter().copied());
                reconcile(
                    &mut pn,
                    strategy.as_mut(),
                    &mut oracle,
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
            results.push(Point {
                strategy: label,
                effort_percent: effort * 100.0,
                precision,
                recall,
            });
            eprintln!("done: {label} @ {:.1}%", effort * 100.0);
        }
    }

    let mut table =
        Table::new(["effort %", "Prec random", "Prec heuristic", "Rec random", "Rec heuristic"]);
    for (i, &effort) in efforts.iter().enumerate() {
        let r = &results[i];
        let h = &results[efforts.len() + i];
        table.row([
            format!("{:.1}", effort * 100.0),
            format!("{:.3}", r.precision),
            format!("{:.3}", h.precision),
            format!("{:.3}", r.recall),
            format!("{:.3}", h.recall),
        ]);
    }
    println!("Fig. 10 — instantiation quality vs ordering strategy (BP, {runs} runs)");
    println!("(paper: heuristic outperforms random by ≈0.12 precision / ≈0.08 recall on average)");
    table.print();

    let avg = |f: fn(&Point) -> f64, strategy: &str| {
        let v: Vec<f64> = results
            .iter()
            .filter(|p| p.strategy == strategy && p.effort_percent > 0.0)
            .map(f)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    println!(
        "\naverage gap (heuristic − random): precision {:+.3}, recall {:+.3}",
        avg(|p| p.precision, "heuristic") - avg(|p| p.precision, "random"),
        avg(|p| p.recall, "heuristic") - avg(|p| p.recall, "random"),
    );
    if let Ok(p) = save_json("fig10", &results) {
        println!("wrote {}", p.display());
    }
}
