//! One Criterion target per paper table/figure, at a reduced scale so
//! `cargo bench` exercises every reproduction end to end. The
//! full-resolution runs are the `repro_all` binary's sections.

use criterion::{criterion_group, criterion_main, Criterion};
use tiersim_core::experiments::{
    AutonumaTrace, Characterization, Comparison, ExperimentConfig, ObjectAnalysis,
};
use tiersim_core::{Dataset, Kernel};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs: 1,
        ..ExperimentConfig::default()
    }
}

fn bench_characterization(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_characterization");
    g.sample_size(10);
    // One run feeds Fig 3–5 and Tables 1–3; bench each derivation on a
    // pre-computed bundle, plus the end-to-end bundle itself.
    g.bench_function("exp_bundle_six_workloads", |b| {
        b.iter(|| Characterization::run(&cfg()).unwrap())
    });
    let bundle = Characterization::run(&cfg()).unwrap();
    g.bench_function("exp_fig03_levels", |b| b.iter(|| bundle.fig3()));
    g.bench_function("exp_fig04_touches", |b| b.iter(|| bundle.fig4()));
    g.bench_function("exp_fig05_reuse", |b| b.iter(|| bundle.fig5()));
    g.bench_function("exp_table1_location", |b| b.iter(|| bundle.table1()));
    g.bench_function("exp_table2_cost", |b| b.iter(|| bundle.table2()));
    g.bench_function("exp_table3_tlb", |b| b.iter(|| bundle.table3()));
    g.finish();
}

fn bench_objects_and_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_objects");
    g.sample_size(10);
    g.bench_function("exp_fig06_07_08_object_analysis", |b| {
        b.iter(|| {
            let a = ObjectAnalysis::run(&cfg()).unwrap();
            (a.fig6(tiersim_mem::Tier::Nvm, 10), a.fig7(), a.fig8())
        })
    });
    g.bench_function("exp_fig09_10_autonuma_trace", |b| {
        b.iter(|| {
            let t = AutonumaTrace::run(&cfg()).unwrap();
            (t.fig9(), t.fig10())
        })
    });
    g.finish();
}

fn bench_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("exp_comparison");
    g.sample_size(10);
    g.bench_function("exp_fig11_one_pair", |b| {
        b.iter(|| {
            let cfg = cfg();
            let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
            Comparison::compare(&cfg, w, false).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_characterization, bench_objects_and_trace, bench_comparison);
criterion_main!(benches);
