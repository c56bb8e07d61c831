//! Criterion benches for Algorithm 3 sampling: the fill, the
//! simulated-annealing ablation called out in DESIGN.md, and view
//! maintenance under one assertion against resampling from scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::hotpaths::{bench_network, emission_config, SIZES};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network, GROUPS};
use smn_core::feedback::Feedback;
use smn_core::sampling::SampleStore;
use smn_core::ProbabilisticNetwork;

/// The fill at two grains, each labelled by the operation it times: one
/// 50-emission pass of a bare sample store (`store/…`) at the BP sizes
/// and one below them, under the whole partition; a whole network build
/// (store, then posterior; `network/…`) at the federation sizes, under
/// the whole and the component partition.
fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling/fill");
    for (schemas, attrs) in std::iter::once((3, 20)).chain(SIZES) {
        let net = bench_network(schemas, attrs, 7);
        let empty = Feedback::new(net.candidate_count());
        let id = BenchmarkId::from_parameter(format!("store/whole/C{}", net.candidate_count()));
        group.bench_with_input(id, &net, |b, net| {
            b.iter(|| SampleStore::new(net, &empty, emission_config()).len());
        });
    }
    for groups in GROUPS {
        let net = federation_network(groups, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("network/whole/g{groups}")),
            &net,
            |b, net| b.iter(|| ProbabilisticNetwork::new(net.clone(), bench_sampler(3))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("network/component/g{groups}")),
            &net,
            |b, net| {
                b.iter(|| {
                    ProbabilisticNetwork::new_sharded(
                        net.clone(),
                        bench_sampler(3),
                        bench_sharding(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Ablation: annealing acceptance vs always-accept random walk — measures
/// both the wall time and (via the returned distinct count) the coverage
/// value of the acceptance rule.
fn bench_annealing_ablation(c: &mut Criterion) {
    let (schemas, attrs) = SIZES[0];
    let net = bench_network(schemas, attrs, 7);
    let feedback = Feedback::new(net.candidate_count());
    let mut group = c.benchmark_group("sampling/annealing");
    for anneal in [true, false] {
        let mut cfg = emission_config();
        cfg.anneal = anneal;
        group.bench_with_input(
            BenchmarkId::from_parameter(if anneal { "anneal" } else { "always-accept" }),
            &cfg,
            |b, &cfg| b.iter(|| SampleStore::new(&net, &feedback, cfg).len()),
        );
    }
    group.finish();
}

/// View maintenance (one assertion) vs resampling from scratch.
fn bench_view_maintenance(c: &mut Criterion) {
    use smn_schema::CandidateId;
    let (schemas, attrs) = SIZES[0];
    let net = bench_network(schemas, attrs, 7);
    let cfg = bench_sampler(3);
    let feedback = Feedback::new(net.candidate_count());
    let store = SampleStore::new(&net, &feedback, cfg);
    // pick a candidate contained in some but not all samples
    let probe = (0..net.candidate_count())
        .map(CandidateId::from_index)
        .find(|&cand| {
            let k = store.samples().iter().filter(|s| s.contains(cand)).count();
            k > 0 && k < store.len()
        })
        .expect("some uncertain candidate");
    let mut group = c.benchmark_group("sampling/assertion");
    group.bench_function("view-maintenance", |b| {
        b.iter(|| {
            let mut st = store.clone();
            let mut fb = Feedback::new(net.candidate_count());
            fb.approve(probe);
            st.maintain(&net, &fb, probe, true);
            st.len()
        });
    });
    group.bench_function("resample-from-scratch", |b| {
        b.iter(|| {
            let mut fb = Feedback::new(net.candidate_count());
            fb.approve(probe);
            SampleStore::new(&net, &fb, cfg).len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fill, bench_annealing_ablation, bench_view_maintenance);
criterion_main!(benches);
