//! Fig. 9 — effects of heuristic ordering on uncertainty reduction (BP).
//!
//! Reproduces the paper's §VI-C experiment: complete interaction graph on
//! BP, candidates from the COMA-like matcher, ground-truth oracle, two
//! ordering strategies (Random baseline vs information-gain Heuristic).
//! Runs to 100% effort, recording normalized network uncertainty and the
//! precision of the surviving candidates `Prec(C \ F−)` on a 5% effort
//! grid, averaged over 50 runs (paper: "average result over 50 experiment
//! runs"). Pass `--runs N` to change the repetition count.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig9 [-- --runs N]`

use serde::Serialize;
use smn_bench::{bp_coma, save_json, standard_sampler, EffortGrid, Table};
use smn_core::pool;
use smn_core::reconcile::reconcile;
use smn_core::selection::{InformationGainSelection, RandomSelection, SelectionStrategy};
use smn_core::{GroundTruthOracle, ProbabilisticNetwork, ReconciliationGoal};
use std::collections::HashSet;

#[derive(Serialize)]
struct Series {
    strategy: &'static str,
    effort_percent: Vec<f64>,
    normalized_entropy: Vec<f64>,
    precision_remaining: Vec<f64>,
}

fn main() {
    let runs: u64 = std::env::args()
        .skip_while(|a| a != "--runs")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let (network, truth) = bp_coma();
    let truth_set: HashSet<_> = truth.iter().copied().collect();
    let n = network.candidate_count();
    eprintln!("BP network: |C| = {n}, |M| = {}, runs = {runs}", truth.len());

    let mut output = Vec::new();
    let mut table = Table::new([
        "effort %",
        "H/H0 random",
        "H/H0 heuristic",
        "Prec(C\\F-) random",
        "Prec(C\\F-) heuristic",
    ]);
    let mut columns: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();

    for heuristic in [false, true] {
        let label = if heuristic { "heuristic" } else { "random" };
        let grids = pool::global().map(0..runs, |seed| {
            let mut pn = ProbabilisticNetwork::new(network.clone(), standard_sampler(seed));
            let mut strategy: Box<dyn SelectionStrategy> = if heuristic {
                Box::new(InformationGainSelection::new(seed))
            } else {
                Box::new(RandomSelection::new(seed))
            };
            let mut oracle = GroundTruthOracle::new(truth_set.iter().copied());
            let trace =
                reconcile(&mut pn, strategy.as_mut(), &mut oracle, ReconciliationGoal::Complete);
            // entropy trajectory + precision-of-survivors trajectory
            let mut entropy_grid = EffortGrid::percent(5);
            let mut precision_grid = EffortGrid::percent(5);
            let h_traj: Vec<(f64, f64)> =
                trace.iter().map(|t| (t.effort, t.normalized_entropy)).collect();
            entropy_grid.add_run(1.0, &h_traj);
            // Prec(C \ F−): survivors = all candidates minus disapprovals
            let mut correct_total = (0..n)
                .filter(|&i| {
                    truth_set.contains(&network.corr(smn_schema::CandidateId::from_index(i)))
                })
                .count();
            let mut survivors = n;
            let p0 = correct_total as f64 / survivors as f64;
            let mut p_traj = Vec::with_capacity(trace.len());
            for t in &trace {
                if !t.approved {
                    survivors -= 1;
                    if truth_set.contains(&network.corr(t.candidate)) {
                        correct_total -= 1;
                    }
                }
                p_traj.push((t.effort, correct_total as f64 / survivors.max(1) as f64));
            }
            precision_grid.add_run(p0, &p_traj);
            (entropy_grid, precision_grid)
        });
        // average across runs
        let mut entropy_acc = EffortGrid::percent(5);
        let mut precision_acc = EffortGrid::percent(5);
        let points: Vec<f64> = entropy_acc.points().to_vec();
        let mut h_means = vec![0.0; points.len()];
        let mut p_means = vec![0.0; points.len()];
        for (hg, pg) in &grids {
            for (acc, m) in h_means.iter_mut().zip(hg.means().expect("complete run")) {
                *acc += m;
            }
            for (acc, m) in p_means.iter_mut().zip(pg.means().expect("complete run")) {
                *acc += m;
            }
        }
        for v in h_means.iter_mut().chain(p_means.iter_mut()) {
            *v /= grids.len() as f64;
        }
        let _ = (&mut entropy_acc, &mut precision_acc); // grids consumed above
        output.push(Series {
            strategy: if heuristic { "heuristic" } else { "random" },
            effort_percent: points.iter().map(|e| e * 100.0).collect(),
            normalized_entropy: h_means.clone(),
            precision_remaining: p_means.clone(),
        });
        columns.push((h_means, p_means));
        eprintln!("done: {label}");
    }

    let points: Vec<f64> = EffortGrid::percent(5).points().to_vec();
    for (i, &e) in points.iter().enumerate() {
        table.row([
            format!("{:.0}", e * 100.0),
            format!("{:.3}", columns[0].0[i]),
            format!("{:.3}", columns[1].0[i]),
            format!("{:.3}", columns[0].1[i]),
            format!("{:.3}", columns[1].1[i]),
        ]);
    }
    println!("Fig. 9 — uncertainty reduction and Prec(C \\ F−) vs user effort (BP, {runs} runs)");
    println!("(paper: heuristic reaches H≈0.1 at ~30% effort where random needs ~75%)");
    table.print();

    // headline saving: effort at which each strategy reaches H/H0 ≤ 0.1
    let reach =
        |col: &Vec<f64>| points.iter().zip(col).find(|(_, &h)| h <= 0.1).map(|(e, _)| e * 100.0);
    if let (Some(r), Some(h)) = (reach(&columns[0].0), reach(&columns[1].0)) {
        println!(
            "\neffort to reach H/H0 ≤ 0.1: random {r:.0}%, heuristic {h:.0}% → saving {:.0}%",
            r - h
        );
    }
    if let Ok(p) = save_json("fig9", &output) {
        println!("wrote {}", p.display());
    }
}
