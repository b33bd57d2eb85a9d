//! Criterion microbenchmarks: the numeric kernels at the bottom of every
//! traversal (gravity exact/approx, SPH kernel evaluations).
//!
//! The per-pair gravity rows stream 1 024 targets through one call
//! site; a traversal never does — it applies a node or a leaf to a span
//! of adjacent target buckets of 1–16 particles each (mean 5.2 on the
//! benchmark's clustered set; a pruned node meets runs of 8.3 buckets on
//! average) and moves on. The `grav_node_bucket_*` and
//! `grav_leaf_bucket_*` rows time the span kernels on spans of one
//! bucket at those shapes, `grav_node_span_5x8` on runs of eight
//! 5-particle buckets, all over assembled target lanes: one iteration is
//! 61 440 particle–node interactions (node rows) or 983 040
//! particle–particle interactions (leaf rows).
//!
//! The kNN rows time the candidate set alone on what a k = 32 search
//! accepts: in situ (`sph_knn`) a particle's heap takes 84 offers that
//! pass `d² < bound` — 32 fill it, 52 replace its top. `knn_offer_k32_fill`
//! is the 32, `knn_offer_k32_steady` all 84, over 1 024 heaps;
//! `sph_density_pass_k32` is SPH's density pass over a gathered
//! neighbour table.

use criterion::{criterion_group, criterion_main, Criterion};
use paratreet_apps::gravity::{
    apply_leaf, apply_node, grav_approx, grav_exact, CentroidData, GravityVisitor, NodeMoments,
};
use paratreet_apps::knn::KnnHeap;
use paratreet_apps::sph::{kernel_dw_dr, kernel_w, sph_framework, SphSimulation};
use paratreet_core::{Configuration, Targets};
use paratreet_geometry::{BoundingBox, Vec3, ROOT_KEY};
use paratreet_particles::gen;
use paratreet_tree::Data;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

fn bench_gravity_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let ps = gen::uniform_cube(1024, 3, 1.0, 1.0);
    let data = CentroidData::from_leaf(&ps, &BoundingBox::empty());
    let centroid = data.centroid();
    let quad = data.quad_about_centroid();
    let targets: Vec<Vec3> = gen::uniform_cube(1024, 5, 4.0, 1.0).iter().map(|p| p.pos).collect();

    group.throughput(criterion::Throughput::Elements(targets.len() as u64));
    group.bench_function("grav_exact_1k", |b| {
        b.iter(|| {
            let mut acc = Vec3::ZERO;
            for &t in &targets {
                acc += grav_exact(t, centroid, 1.0, 0.01).0;
            }
            black_box(acc)
        })
    });
    group.bench_function("grav_approx_quad_1k", |b| {
        b.iter(|| {
            let mut acc = Vec3::ZERO;
            for &t in &targets {
                acc += grav_approx(t, centroid, data.sum_mass, &quad).0;
            }
            black_box(acc)
        })
    });
    // 960 target particles (a multiple of every bucket length below),
    // far enough from the node that nothing degenerates.
    let mut bucketed = gen::uniform_cube(960, 5, 4.0, 1.0);
    for p in &mut bucketed {
        p.softening = 0.01;
    }
    // One Partition's targets in buckets of `len`.
    let targets_of = |len: usize| -> Targets<()> {
        let buckets = bucketed.chunks(len).map(|bucket| (ROOT_KEY, bucket.iter().copied()));
        Targets::assemble(&GravityVisitor::default(), buckets)
    };
    let moments = NodeMoments::of(&data, 0.7);
    const PASSES: usize = 64;
    group.throughput(criterion::Throughput::Elements((PASSES * bucketed.len()) as u64));
    // (row, bucket length, buckets per span)
    for (row, len, run) in [
        ("grav_node_bucket_1", 1, 1),
        ("grav_node_bucket_5", 5, 1),
        ("grav_node_span_5x8", 5, 8),
        ("grav_node_bucket_16", 16, 1),
    ] {
        let mut targets = targets_of(len);
        let n = targets.buckets().len();
        group.bench_function(row, |b| {
            b.iter(|| {
                for _ in 0..PASSES {
                    for first in (0..n).step_by(run) {
                        apply_node(black_box(&moments), &mut targets.span(first..first + run), 1.0);
                    }
                }
            })
        });
    }
    let sources = &ps[..16];
    let pairs = PASSES * sources.len() * bucketed.len();
    group.throughput(criterion::Throughput::Elements(pairs as u64));
    for len in [5, 16] {
        let mut targets = targets_of(len);
        let n = targets.buckets().len();
        group.bench_function(format!("grav_leaf_bucket_16x{len}"), |b| {
            b.iter(|| {
                for _ in 0..PASSES {
                    for bucket in 0..n {
                        apply_leaf(black_box(sources), &mut targets.span(bucket..bucket + 1), 1.0);
                    }
                }
            })
        });
    }

    group.throughput(criterion::Throughput::Elements(targets.len() as u64));
    group.bench_function("sph_kernel_1k", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for (i, &t) in targets.iter().enumerate() {
                let r = t.norm() * 0.1;
                let h = 0.2 + (i % 7) as f64 * 0.01;
                sum += kernel_w(r, h) + kernel_dw_dr(r, h);
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_data_accumulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_accumulate");
    let ps = gen::uniform_cube(16, 7, 1.0, 1.0);
    let b_empty = BoundingBox::empty();
    group.bench_function("centroid_from_leaf_16", |b| {
        b.iter(|| black_box(CentroidData::from_leaf(black_box(&ps), &b_empty)))
    });
    let child = CentroidData::from_leaf(&ps, &b_empty);
    group.bench_function("centroid_merge", |b| {
        b.iter(|| {
            let mut parent = CentroidData::default();
            for _ in 0..8 {
                parent.merge(black_box(&child));
            }
            black_box(parent.sum_mass)
        })
    });
    group.finish();
}

/// The first `accepts` offers a k-heap accepts out of a stream of
/// uniformly random squared distances.
fn accepted_offers(rng: &mut StdRng, k: usize, accepts: usize) -> Vec<(f64, u64)> {
    let mut heap: KnnHeap = KnnHeap::new(k);
    let mut out = Vec::with_capacity(accepts);
    let mut id = 0;
    while out.len() < accepts {
        let dist_sq = rng.random_range(0.0..1.0);
        if dist_sq < heap.bound() {
            heap.offer(dist_sq, id, ());
            out.push((dist_sq, id));
        }
        id += 1;
    }
    out
}

fn bench_knn_kernels(c: &mut Criterion) {
    const K: usize = 32;
    const ACCEPTS: usize = 84;
    let mut group = c.benchmark_group("kernels");
    let mut rng = StdRng::seed_from_u64(11);
    let streams: Vec<Vec<(f64, u64)>> =
        (0..1024).map(|_| accepted_offers(&mut rng, K, ACCEPTS)).collect();
    for (name, offers) in [("knn_offer_k32_fill", K), ("knn_offer_k32_steady", ACCEPTS)] {
        group.throughput(criterion::Throughput::Elements((streams.len() * offers) as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut bounds = 0.0;
                for stream in &streams {
                    let mut heap: KnnHeap = KnnHeap::new(K);
                    for &(dist_sq, id) in &stream[..offers] {
                        heap.offer(dist_sq, id, ());
                    }
                    bounds += heap.bound();
                }
                black_box(bounds)
            })
        });
    }

    let sim = SphSimulation { k: K, ..Default::default() };
    let mut particles = gen::clustered(8192, 4, 17, 1.0, 1.0);
    for p in &mut particles {
        p.internal_energy = 1.0;
    }
    let mut fw = sph_framework(Configuration::default(), particles);
    let (table, _) = sim.neighbor_table(&mut fw);
    group.throughput(criterion::Throughput::Elements(table.len() as u64));
    group.bench_function("sph_density_pass_k32", |b| {
        b.iter(|| sim.density_pass(black_box(&table), fw.particles_mut()))
    });
    group.finish();
}

criterion_group!(benches, bench_gravity_kernels, bench_knn_kernels, bench_data_accumulation);
criterion_main!(benches);
