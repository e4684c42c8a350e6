//! Microbenchmarks of the quorum-system substrate: set algebra, quorum
//! membership tests (the hot path of every protocol step), B³ and quorum
//! validation, and guild computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asym_quorum::{counterexample, maximal_guild, topology, ProcessId, ProcessSet};

fn bench_set_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("process-set");
    for n in [32usize, 128, 512] {
        let a: ProcessSet = (0..n).step_by(2).collect();
        let b: ProcessSet = (0..n).step_by(3).collect();
        g.bench_with_input(BenchmarkId::new("union", n), &n, |bench, _| {
            bench.iter(|| black_box(a.union(&b)))
        });
        g.bench_with_input(BenchmarkId::new("is_subset", n), &n, |bench, _| {
            bench.iter(|| black_box(a.is_subset(&b)))
        });
        g.bench_with_input(BenchmarkId::new("iter-collect", n), &n, |bench, _| {
            bench.iter(|| black_box(a.to_index_vec()))
        });
    }
    g.finish();
}

fn bench_quorum_checks(c: &mut Criterion) {
    let mut g = c.benchmark_group("quorum-membership");
    // Threshold representation: O(1) popcount path.
    let t = topology::uniform_threshold(31, 10);
    let observed: ProcessSet = (0..21).collect();
    g.bench_function("threshold-n31", |b| {
        b.iter(|| black_box(t.quorums.contains_quorum_for(ProcessId::new(0), &observed)))
    });
    // Explicit single-quorum representation (Figure-1 style).
    let fig1 = counterexample::fig1_quorums();
    let observed = counterexample::fig1_quorum_of(ProcessId::new(0));
    g.bench_function("explicit-fig1", |b| {
        b.iter(|| black_box(fig1.contains_quorum_for(ProcessId::new(0), &observed)))
    });
    g.bench_function("explicit-fig1-any", |b| {
        b.iter(|| black_box(fig1.contains_quorum_for_any(&observed).is_some()))
    });
    // Slice-threshold (Ripple UNL) representation.
    let r = topology::ripple_unl(30, 24, 3);
    let observed: ProcessSet = (0..24).collect();
    g.bench_function("slice-ripple-n30", |b| {
        b.iter(|| black_box(r.quorums.contains_quorum_for(ProcessId::new(0), &observed)))
    });
    g.finish();
}

fn bench_b3_validation(c: &mut Criterion) {
    let mut g = c.benchmark_group("b3-validation");
    g.sample_size(20);
    let fig1 = counterexample::fig1_fail_prone();
    g.bench_function("fig1-explicit-n30", |b| b.iter(|| black_box(fig1.satisfies_b3())));
    let thr = topology::uniform_threshold(100, 33).fail_prone;
    g.bench_function("threshold-n100", |b| b.iter(|| black_box(thr.satisfies_b3())));
    let ripple = topology::ripple_unl(12, 10, 1).fail_prone;
    g.bench_function("ripple-n12", |b| b.iter(|| black_box(ripple.satisfies_b3())));
    // The benchmark's asymmetric topology (perfbench workload slices-n16).
    let slices = topology::TopologySpec::RandomSlices { n: 16, slice: 12, f: 2, seed: 11 }
        .build()
        .expect("seed 11 finds a valid n = 16 slice system");
    g.bench_function("random-slices-n16", |b| {
        b.iter(|| black_box(slices.fail_prone.satisfies_b3()))
    });
    g.bench_function("random-slices-n16-validate", |b| {
        b.iter(|| black_box(slices.quorums.validate(&slices.fail_prone).is_ok()))
    });
    g.finish();
}

fn bench_guild(c: &mut Criterion) {
    let mut g = c.benchmark_group("maximal-guild");
    for (name, t, faulty) in [
        ("threshold-n10", topology::uniform_threshold(10, 3), vec![8, 9]),
        ("ripple-n10", topology::ripple_unl(10, 8, 1), vec![4]),
        (
            "fig1-n30",
            topology::Topology {
                name: "fig1".into(),
                fail_prone: counterexample::fig1_fail_prone(),
                quorums: counterexample::fig1_quorums(),
            },
            vec![],
        ),
    ] {
        let f: ProcessSet = faulty.into_iter().collect();
        g.bench_function(name, |b| {
            b.iter(|| black_box(maximal_guild(&t.fail_prone, &t.quorums, &f)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_set_ops, bench_quorum_checks, bench_b3_validation, bench_guild);
criterion_main!(benches);
