//! Fig. 11 — effect of the likelihood criterion on instantiation (BP).
//!
//! Same protocol as Fig. 10 with information-gain ordering, comparing
//! Algorithm 2 with the likelihood tie-break enabled vs disabled.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig11 [-- --runs N]`

use serde::Serialize;
use smn_bench::{bp_coma, save_json, standard_sampler, Table};
use smn_core::pool;
use smn_core::reconcile::reconcile;
use smn_core::selection::{InformationGainSelection, SelectionStrategy};
use smn_core::{
    GroundTruthOracle, InstantiationConfig, PrecisionRecall, ProbabilisticNetwork,
    ReconciliationGoal,
};

#[derive(Serialize)]
struct Point {
    likelihood: bool,
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
    for use_likelihood in [false, true] {
        for &effort in &efforts {
            let budget = (effort * n as f64).round() as usize;
            let qualities = pool::global().map(0..runs, |seed| {
                let mut pn = ProbabilisticNetwork::new(network.clone(), standard_sampler(seed));
                let mut strategy: Box<dyn SelectionStrategy> =
                    Box::new(InformationGainSelection::new(seed));
                let mut oracle = GroundTruthOracle::new(truth.iter().copied());
                reconcile(
                    &mut pn,
                    strategy.as_mut(),
                    &mut oracle,
                    ReconciliationGoal::Budget(budget),
                );
                let inst = smn_core::instantiate::instantiate(
                    &pn,
                    InstantiationConfig { use_likelihood, seed, ..Default::default() },
                );
                PrecisionRecall::of_instance(pn.network(), &inst.instance, truth.iter().copied())
            });
            let precision =
                qualities.iter().map(|q| q.precision).sum::<f64>() / qualities.len() as f64;
            let recall = qualities.iter().map(|q| q.recall).sum::<f64>() / qualities.len() as f64;
            results.push(Point {
                likelihood: use_likelihood,
                effort_percent: effort * 100.0,
                precision,
                recall,
            });
            eprintln!("done: likelihood={use_likelihood} @ {:.1}%", effort * 100.0);
        }
    }

    let mut table =
        Table::new(["effort %", "Prec w/o L", "Prec with L", "Rec w/o L", "Rec with L"]);
    for (i, &effort) in efforts.iter().enumerate() {
        let without = &results[i];
        let with = &results[efforts.len() + i];
        table.row([
            format!("{:.1}", effort * 100.0),
            format!("{:.3}", without.precision),
            format!("{:.3}", with.precision),
            format!("{:.3}", without.recall),
            format!("{:.3}", with.recall),
        ]);
    }
    println!("Fig. 11 — effect of the likelihood criterion on instantiation (BP, {runs} runs)");
    println!("(paper: considering likelihood yields a matching of better quality)");
    table.print();

    let avg = |f: fn(&Point) -> f64, like: bool| {
        let v: Vec<f64> = results.iter().filter(|p| p.likelihood == like).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    println!(
        "\naverage gap (with − without): precision {:+.3}, recall {:+.3}",
        avg(|p| p.precision, true) - avg(|p| p.precision, false),
        avg(|p| p.recall, true) - avg(|p| p.recall, false),
    );
    if let Ok(p) = save_json("fig11", &results) {
        println!("wrote {}", p.display());
    }
}
