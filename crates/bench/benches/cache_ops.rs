//! Criterion microbenchmarks: software-cache operations — fragment
//! serialisation, wait-free vs exclusive-write insertion (the Fig. 3
//! mechanism at micro scale), and concurrent insertion throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paratreet_apps::gravity::CentroidData;
use paratreet_cache::{CacheTree, SubtreeSummary, XWriteCache};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, ParticleVec};
use paratreet_telemetry::Telemetry;
use paratreet_tree::{BuiltTree, TreeBuilder, TreeType};
use std::hint::black_box;

/// Builds the 8 octant subtrees of a clustered distribution with their
/// summaries (home rank 1).
fn make_octant_trees(
    n: usize,
) -> (Vec<SubtreeSummary<CentroidData>>, Vec<BuiltTree<CentroidData>>) {
    let mut ps = gen::clustered(n, 4, 3, 1.0, 1.0);
    let universe = ps.bounding_box().padded(1e-9).bounding_cube();
    ps.assign_keys(&universe);
    ps.sort_by_sfc_key();
    let mut summaries = Vec::new();
    let mut trees = Vec::new();
    for oct in 0..8 {
        let part: Vec<_> =
            ps.iter().copied().filter(|p| universe.octant_of(p.pos) == oct).collect();
        if part.is_empty() {
            continue;
        }
        let builder = TreeBuilder {
            root_key: NodeKey::root().child(oct, 3),
            root_depth: 1,
            parallel: false,
            ..TreeBuilder::new(TreeType::Octree)
        };
        let tree = builder.bucket_size(16).build::<CentroidData>(part, universe.octant(oct));
        summaries.push(SubtreeSummary {
            key: tree.root().key,
            bbox: tree.root().bbox,
            n_particles: tree.root().n_particles,
            data: tree.root().data.clone(),
            home_rank: 1,
        });
        trees.push(tree);
    }
    (summaries, trees)
}

/// Builds a home cache over 8 octant subtrees, returning the fills and
/// the summaries so fresh "away" caches can be constructed per
/// iteration.
fn make_world(n: usize) -> (Vec<SubtreeSummary<CentroidData>>, Vec<Vec<u8>>) {
    let (summaries, trees) = make_octant_trees(n);
    let home: CacheTree<CentroidData> = CacheTree::new(1, 3);
    home.init(&summaries, trees);
    let fills = summaries.iter().map(|s| home.serialize_fragment(s.key, 64).unwrap()).collect();
    (summaries, fills)
}

fn bench_serialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_wire");
    group.sample_size(20);
    let (summaries, fills) = make_world(20_000);
    let away: CacheTree<CentroidData> = CacheTree::new(0, 3);
    away.init(&summaries, vec![]);
    let total: usize = fills.iter().map(|f| f.len()).sum();
    group.throughput(criterion::Throughput::Bytes(total as u64));
    group.bench_function("decode_insert_20k", |b| {
        b.iter(|| {
            let fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
            fresh.init(&summaries, vec![]);
            for f in &fills {
                black_box(fresh.insert_fragment(f).unwrap().resumed.len());
            }
        })
    });
    group.finish();
}

fn bench_insert_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_cache");
    group.sample_size(10);
    let (summaries, fills) = make_world(20_000);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("waitfree", threads), &threads, |b, &threads| {
            b.iter(|| {
                let fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
                fresh.init(&summaries, vec![]);
                std::thread::scope(|s| {
                    for chunk in fills.chunks(fills.len().div_ceil(threads)) {
                        let fresh = &fresh;
                        s.spawn(move || {
                            for f in chunk {
                                black_box(fresh.insert_fragment(f).unwrap().resumed.len());
                            }
                        });
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("xwrite", threads), &threads, |b, &threads| {
            b.iter(|| {
                let fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
                fresh.init(&summaries, vec![]);
                let locked = XWriteCache::new(fresh);
                std::thread::scope(|s| {
                    for chunk in fills.chunks(fills.len().div_ceil(threads)) {
                        let locked = &locked;
                        s.spawn(move || {
                            for f in chunk {
                                black_box(locked.insert_fragment(f).unwrap().resumed.len());
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// Recorder overhead on the hot cache-insertion path: the same fill
/// workload with a disabled handle, with an enabled wall-clock
/// recorder, and the recorder's raw span cost in isolation.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    let (summaries, fills) = make_world(20_000);
    for (name, telemetry) in
        [("recorder_off", Telemetry::disabled()), ("recorder_on", Telemetry::wall(2))]
    {
        group.bench_with_input(
            BenchmarkId::new("insert_fills", name),
            &telemetry,
            |b, telemetry| {
                b.iter(|| {
                    let mut fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
                    fresh.telemetry = telemetry.clone();
                    fresh.init(&summaries, vec![]);
                    for f in &fills {
                        black_box(fresh.insert_fragment(f).unwrap().resumed.len());
                    }
                    // Keep the buffers from growing without bound
                    // across iterations.
                    black_box(telemetry.drain().spans.len());
                })
            },
        );
    }
    group.bench_function("raw_span", |b| {
        let telemetry = Telemetry::wall(2);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            black_box(telemetry.wall_span(0, "local traversal", Some(n), || black_box(n * 3)));
        });
        black_box(telemetry.drain().spans.len());
    });
    group.bench_function("raw_span_disabled", |b| {
        let telemetry = Telemetry::disabled();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            black_box(telemetry.wall_span(0, "local traversal", Some(n), || black_box(n * 3)));
        });
    });
    group.finish();
}

/// Fault-tolerance hot paths: stale-fill rejection after a cache-wide
/// epoch bump, whole-subtree grafts (re-shard recovery adopting a dead
/// rank's reconstructed subtree), and the full-depth serialisation that
/// both checkpointing and grafting replay. The epoch check itself rides
/// every `insert_fragment` — compare `stale_fill_reject` against
/// `cache_wire/decode_insert_20k` for its cost.
fn bench_recovery_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery_overhead");
    group.sample_size(20);
    let (summaries, trees) = make_octant_trees(20_000);
    let home: CacheTree<CentroidData> = CacheTree::new(1, 3);
    home.init(&summaries, trees.clone());
    let fills: Vec<Vec<u8>> =
        summaries.iter().map(|s| home.serialize_fragment(s.key, 64).unwrap()).collect();

    // A crash bumped the receiving cache's epoch: every pre-crash fill
    // must bounce off the header check without touching the tree.
    group.bench_function("stale_fill_reject", |b| {
        b.iter(|| {
            let fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
            fresh.init(&summaries, vec![]);
            fresh.set_epoch(1);
            let mut rejected = 0usize;
            for f in &fills {
                rejected += usize::from(fresh.insert_fragment(f).is_err());
            }
            black_box(rejected)
        })
    });

    // Re-shard recovery: a survivor grafts the dead rank's rebuilt
    // subtrees wholesale (serialize + self-fill through the canonical
    // splice path).
    group.bench_function("graft_subtrees", |b| {
        b.iter(|| {
            let fresh: CacheTree<CentroidData> = CacheTree::new(0, 3);
            fresh.init(&summaries, vec![]);
            let mut resumed = 0usize;
            for t in &trees {
                resumed += fresh.insert_subtree(t.clone(), 0).unwrap().resumed.len();
            }
            black_box(resumed)
        })
    });

    // The checkpoint write path: full-depth fragments of every owned
    // subtree (what the engine charges to the network each iteration).
    let total: usize = fills.iter().map(|f| f.len()).sum();
    group.throughput(criterion::Throughput::Bytes(total as u64));
    group.bench_function("checkpoint_serialize", |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for s in &summaries {
                bytes += home.serialize_fragment(s.key, 64).unwrap().len();
            }
            black_box(bytes)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serialize,
    bench_insert_models,
    bench_telemetry_overhead,
    bench_recovery_overhead
);
criterion_main!(benches);
