//! Fig. 8 — relation between probability and correctness of
//! correspondences (BP dataset).
//!
//! Builds the BP network with the COMA-like matcher, estimates
//! probabilities with 1000 samples, and prints the histogram of
//! probability values split into correct (∈ M) and incorrect (∉ M)
//! candidates — frequencies in percent of `|C|`, ten buckets.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_fig8`

use serde::Serialize;
use smn_bench::{bp_coma, save_json, standard_sampler, Table};
use smn_core::ProbabilisticNetwork;
use std::collections::HashSet;

#[derive(Serialize)]
struct Bucket {
    lo: f64,
    hi: f64,
    correct_percent: f64,
    incorrect_percent: f64,
}

fn main() {
    let (network, truth) = bp_coma();
    let truth_set: HashSet<_> = truth.iter().copied().collect();
    let n = network.candidate_count();
    let pn = ProbabilisticNetwork::new(network, standard_sampler(1));

    let mut correct = [0usize; 10];
    let mut incorrect = [0usize; 10];
    for (i, &p) in pn.probabilities().iter().enumerate() {
        let bucket = ((p * 10.0).floor() as usize).min(9);
        let corr = pn.network().corr(smn_schema::CandidateId::from_index(i));
        if truth_set.contains(&corr) {
            correct[bucket] += 1;
        } else {
            incorrect[bucket] += 1;
        }
    }

    let mut table = Table::new(["probability", "correct (%)", "incorrect (%)"]);
    let mut buckets = Vec::new();
    for b in 0..10 {
        let (lo, hi) = (b as f64 / 10.0, (b + 1) as f64 / 10.0);
        let cp = 100.0 * correct[b] as f64 / n as f64;
        let ip = 100.0 * incorrect[b] as f64 / n as f64;
        table.row([format!("[{lo:.1}, {hi:.1})"), format!("{cp:.1}"), format!("{ip:.1}")]);
        buckets.push(Bucket { lo, hi, correct_percent: cp, incorrect_percent: ip });
    }
    println!("Fig. 8 — probability vs correctness histogram (BP, COMA-like, |C| = {n})");
    println!("(paper: >75% of candidates above 0.5; correct/incorrect ratio grows with p)");
    table.print();

    // the paper's headline observation: at high probability the
    // correct:incorrect ratio is large
    let high_correct: usize = correct[8..].iter().sum();
    let high_incorrect: usize = incorrect[8..].iter().sum();
    println!(
        "\n[0.8, 1.0]: correct {:.1}% vs incorrect {:.1}%",
        100.0 * high_correct as f64 / n as f64,
        100.0 * high_incorrect as f64 / n as f64
    );
    if let Ok(p) = save_json("fig8", &buckets) {
        println!("wrote {}", p.display());
    }
}
