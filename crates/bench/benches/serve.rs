//! Criterion wrappers for the request-driven serving core: ingress
//! submit+pump of a question/answer exchange, a full open-loop serving
//! run, and the session-fork selection path. Serving throughput and
//! commit latency at scale are measured by the repository benchmark's
//! `serve-crowd` workload (`perfbench/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::serve::{serve_config, serve_events, serve_scenario};
use smn_service::ServingCore;

fn bench_serve_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/open-loop-run");
    group.sample_size(10);
    let (net, truth, uncertain) = serve_scenario(8);
    for &workers in &[1usize, 4] {
        let events = serve_events(256, uncertain, workers, 13);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("w{workers}")),
            &(workers, events),
            |b, (workers, events)| {
                b.iter(|| {
                    let mut core = ServingCore::new(
                        net.clone(),
                        truth.clone(),
                        vec![0.1; *workers],
                        serve_config(*workers),
                    )
                    .expect("bench serving config");
                    core.run_events(events.iter().copied());
                    core.finish()
                })
            },
        );
    }
    group.finish();
}

fn bench_question_answer_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/question-answer-exchange");
    group.sample_size(10);
    let (net, truth, uncertain) = serve_scenario(8);
    // a warm core mid-run: half the workload applied, forks live
    let half = serve_events(256, uncertain, 2, 13);
    let half = &half[..half.len() / 2];
    group.bench_with_input(BenchmarkId::from_parameter("w2"), &(), |b, ()| {
        b.iter(|| {
            let mut core =
                ServingCore::new(net.clone(), truth.clone(), vec![0.1; 2], serve_config(2))
                    .expect("bench serving config");
            core.run_events(half.iter().copied());
            core.finish()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve_run, bench_question_answer_exchange);
criterion_main!(benches);
