//! E5 / Fig 5: hyperwall scaling — client count sweep and the
//! distributed-vs-single-node comparison.
//!
//! On a host with fewer cores than panels the distributed numbers mostly
//! show protocol overhead. A healthy wall renders no mirror cell, so the
//! mirror downsample factor has no ablation here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dv3d::interaction::{CameraOp, ConfigOp};
use hyperwall::cluster::{run_single_node_baseline, run_wall};
use hyperwall::workflow::WallWorkflowConfig;

fn cfg(n_cells: usize) -> WallWorkflowConfig {
    WallWorkflowConfig { n_cells, synth: (1, 2, 10, 20), cell_px: (64, 48) }
}

fn client_count_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_wall_clients");
    group.sample_size(10);
    for n in [1usize, 4, 15] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| run_wall(&cfg(n), 4, 1, &[]).unwrap())
        });
    }
    group.finish();
}

fn distributed_vs_single_node(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_vs_single_node");
    group.sample_size(10);
    let config = cfg(8);
    group.bench_function("single_node_8cells", |b| {
        b.iter(|| run_single_node_baseline(&config, 1).unwrap())
    });
    group.bench_function("distributed_8cells", |b| {
        b.iter(|| run_wall(&config, 4, 1, &[]).unwrap())
    });
    group.finish();
}

fn op_broadcast_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_op_broadcast");
    group.sample_size(10);
    let config = cfg(15);
    let ops = vec![ConfigOp::Camera(CameraOp::Azimuth(10.0))];
    group.bench_function("wall_with_interaction", |b| {
        b.iter(|| run_wall(&config, 4, 2, &ops).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    client_count_sweep,
    distributed_vs_single_node,
    op_broadcast_latency
);
criterion_main!(benches);
