//! The real-threads engine must reproduce the deterministic engines'
//! physics under genuine concurrency: multiple rank thread-groups,
//! real channels, concurrent cache reads and fill insertions. This is
//! the strongest exercise of the wait-free cache design.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::knn::{KnnData, KnnState, KnnVisitor};
use paratreet_core::framework::FLIGHT_SERIES;
use paratreet_core::{
    CacheModel, Configuration, DistributedEngine, Framework, SpatialNodeView, TargetBucket,
    TargetLanes, TargetSpan, ThreadedEngine, TraversalKind, Visitor,
};
use paratreet_particles::{gen, Particle};
use paratreet_runtime::MachineSpec;
use paratreet_telemetry::FlightRecorder;

fn config() -> Configuration {
    Configuration { bucket_size: 8, n_subtrees: 16, n_partitions: 32, ..Default::default() }
}

/// Reference forces from the shared-memory engine, sorted by id.
fn reference(ps: &[Particle]) -> Vec<Particle> {
    let mut fw: Framework<CentroidData> = Framework::new(config(), ps.to_vec());
    let visitor = GravityVisitor::default();
    fw.step(|s| {
        s.traverse(&visitor, TraversalKind::TopDown);
    });
    by_id(fw.particles().to_vec())
}

fn by_id(mut ps: Vec<Particle>) -> Vec<Particle> {
    ps.sort_by_key(|p| p.id);
    ps
}

/// Forces equal bit for bit: `acc` and `potential` of every particle
/// (both sides sorted by id).
fn assert_forces_match(got: &[Particle], want: &[Particle]) {
    assert_eq!(got.len(), want.len());
    let bits = |p: &Particle| [p.acc.x, p.acc.y, p.acc.z, p.potential].map(f64::to_bits);
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.id, b.id);
        assert_eq!(bits(a), bits(b), "particle {} differs: {:?} vs {:?}", a.id, a.acc, b.acc);
    }
}

#[test]
fn threaded_matches_shared_memory_single_rank() {
    let ps = gen::uniform_cube(600, 7, 1.0, 1.0);
    let want = reference(&ps);
    let visitor = GravityVisitor::default();
    let engine = ThreadedEngine::new(config(), 1, 3, &visitor);
    let rep = engine.run_iteration(ps, TraversalKind::TopDown);
    assert_eq!(rep.cache.requests_sent, 0, "single rank fetches nothing");
    assert_forces_match(&by_id(rep.particles), &want);
}

#[test]
fn threaded_matches_shared_memory_multi_rank() {
    // One answer from three engines: for every traversal kind, the
    // threaded and DES engines give every force bit and all four work
    // counts of the shared-memory engine — a placeholder counted once,
    // a cut up-and-down seed walk continued where its fill landed.
    let ps = gen::clustered(900, 3, 11, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs, TraversalKind::UpAndDown] {
        let mut fw: Framework<CentroidData> = Framework::new(config(), ps.clone());
        let (_, shared) = fw.step(|s| {
            s.traverse(&visitor, kind);
        });
        let want = by_id(fw.particles().to_vec());
        for (ranks, workers) in [(2usize, 2usize), (4, 1), (3, 2)] {
            let engine = ThreadedEngine::new(config(), ranks, workers, &visitor);
            let rep = engine.run_iteration(ps.clone(), kind);
            let at = format!("{kind:?}, {ranks}x{workers}");
            assert!(rep.cache.requests_sent > 0, "{at}: must fetch remote data");
            assert!(rep.remote_fills > 0, "{at}");
            assert_eq!(
                rep.cache.waiters_parked, rep.cache.waiters_resumed,
                "{at}: every parked traversal must resume"
            );
            assert_forces_match(&by_id(rep.particles), &want);
            assert_eq!(rep.counts, shared.counts, "{at}, threaded");

            let machine = MachineSpec::test(ranks, workers);
            let des =
                DistributedEngine::new(machine, config(), CacheModel::WaitFree, kind, &visitor)
                    .run_iteration(ps.clone());
            assert!(des.cache.requests_sent > 0, "{at}: must fetch remote data");
            assert_forces_match(&by_id(des.particles), &want);
            assert_eq!(des.counts, shared.counts, "{at}, DES");
        }
    }
}

#[test]
fn parked_items_resume_with_their_own_bucket_sets() {
    // Work items index one scratch stack per partition, so an item that
    // parks on a fetch waits on top of that stack and must come back
    // with exactly its bucket set. The two schedules that stress this:
    // BasicDfs parks many single-bucket items on one key, and UpAndDown
    // parks with live items still stacked and resumes a cut seed walk
    // into several items above them.
    let ps = gen::clustered(900, 3, 11, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    for kind in [TraversalKind::BasicDfs, TraversalKind::UpAndDown] {
        let mut fw: Framework<CentroidData> = Framework::new(config(), ps.clone());
        let (_, shared) = fw.step(|s| {
            s.traverse(&visitor, kind);
        });
        let want = by_id(fw.particles().to_vec());

        let rep = ThreadedEngine::new(config(), 3, 2, &visitor).run_iteration(ps.clone(), kind);
        assert!(rep.cache.waiters_parked > 0, "{kind:?}: some item must park");
        assert_eq!(rep.cache.waiters_parked, rep.cache.waiters_resumed, "{kind:?}");
        assert_eq!(rep.counts, shared.counts, "{kind:?}");
        assert_forces_match(&by_id(rep.particles), &want);
    }
}

#[test]
fn threaded_is_repeatable() {
    // Thread scheduling varies between runs; the forces do not.
    let ps = gen::clustered(500, 2, 13, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs] {
        let run = || {
            let engine = ThreadedEngine::new(config(), 3, 2, &visitor);
            by_id(engine.run_iteration(ps.clone(), kind).particles)
        };
        let first = run();
        for _ in 0..2 {
            assert_forces_match(&run(), &first);
        }
    }
}

/// kNN that writes each target's neighbour list, as a digest of its
/// sorted `(distance, id)` pairs, into the particle's `potential`: what
/// write-back returns from any engine is then its neighbour lists.
struct KnnDigest(KnnVisitor);

impl Visitor for KnnDigest {
    type Data = KnnData;
    type State = KnnState;
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, KnnData>) {}
    fn open(&self, s: &SpatialNodeView<'_, KnnData>, _: &(), t: &TargetBucket<KnnState>) -> bool {
        self.0.open(s, &(), t)
    }
    fn node(&self, _: &SpatialNodeView<'_, KnnData>, _: &(), _: &mut TargetSpan<'_, KnnState>) {}
    fn leaf(&self, s: &SpatialNodeView<'_, KnnData>, _: &(), t: &mut TargetSpan<'_, KnnState>) {
        self.0.leaf(s, &(), t);
        let mut digests = Vec::new();
        for (_, bucket) in t.buckets() {
            for heap in &bucket.state.heaps {
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                for c in heap.clone().into_sorted() {
                    for word in [c.dist_sq.to_bits(), c.id] {
                        digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
                digests.push((digest >> 11) as f64);
            }
        }
        for (p, digest) in t.particles_mut().iter_mut().zip(digests) {
            p.potential = digest;
        }
    }
}

#[test]
fn threaded_knn_up_and_down_completes() {
    // kNN on the threaded engine: ordered pauses across real channels.
    // A Partition parks whole and resumes a cut seed walk where the
    // shared-memory engine's walk went on, so every bucket's bound
    // tightens in the same order: the same work, the same neighbours.
    let ps = gen::uniform_cube(400, 5, 1.0, 1.0);
    let visitor = KnnDigest(KnnVisitor { k: 8 });
    let engine = ThreadedEngine::new(config(), 2, 2, &visitor);
    let rep = engine.run_iteration(ps.clone(), TraversalKind::UpAndDown);
    assert!(rep.cache.waiters_parked > 0, "some item must park");
    let mut fw: Framework<KnnData> = Framework::new(config(), ps.clone());
    let (_, shared) = fw.step(|s| {
        s.traverse(&visitor, TraversalKind::UpAndDown);
    });
    assert_eq!(rep.counts, shared.counts);
    assert!(rep.counts.leaf_interactions >= (ps.len() * 8) as u64);
    let digests = |ps: Vec<Particle>| by_id(ps).iter().map(|p| p.potential.to_bits()).collect();
    let want: Vec<u64> = digests(fw.particles().to_vec());
    assert!(want.iter().all(|&d| d != 0), "every particle has neighbours");
    assert_eq!(digests(rep.particles), want);
}

#[test]
fn threaded_handles_tiny_inputs() {
    let visitor = GravityVisitor::default();
    for n in [1usize, 2, 5] {
        let ps = gen::uniform_cube(n, 1, 1.0, 1.0);
        let engine = ThreadedEngine::new(config(), 2, 2, &visitor);
        let rep = engine.run_iteration(ps, TraversalKind::TopDown);
        assert_eq!(rep.particles.len(), n);
    }
}

#[test]
fn front_end_reports_agree_across_engines() {
    // One front-end feeds all three engines, so with the decomposition
    // pinned (counts above every engine's floor) they report the same
    // bucket splitting, and the threaded stage-0 flight row carries the
    // real bucket count instead of a placeholder zero.
    let ps = gen::clustered(900, 3, 11, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    let mut fw: Framework<CentroidData> = Framework::new(config(), ps.clone());
    let (_, shared) = fw.step(|s| {
        s.traverse(&visitor, TraversalKind::TopDown);
    });
    assert!(shared.n_split_leaves > 0, "the workload must actually split buckets");

    let flight = FlightRecorder::wall(FLIGHT_SERIES, 16);
    let threaded =
        ThreadedEngine::new(config(), 2, 2, &visitor).with_flight_recorder(flight.clone());
    let rep = threaded.run_iteration(ps.clone(), TraversalKind::TopDown);
    assert_eq!(rep.metrics.get_u64("decomp.n_split_leaves"), shared.n_split_leaves as u64);
    let rows = flight.snapshot().rows;
    let n_buckets = FLIGHT_SERIES.iter().position(|n| *n == "n_buckets").expect("column");
    assert_eq!(rows.len(), 2, "one setup row, one traversal row");
    for (stage, (_, row)) in rows.iter().enumerate() {
        assert_eq!(row[1], stage as f64);
        assert_eq!(row[n_buckets], shared.n_buckets as f64, "stage {stage}");
    }

    let des = DistributedEngine::new(
        MachineSpec::test(2, 2),
        config(),
        CacheModel::WaitFree,
        TraversalKind::TopDown,
        &visitor,
    );
    let rep = des.run_iteration(ps);
    assert_eq!(rep.metrics.get_u64("decomp.n_split_leaves"), shared.n_split_leaves as u64);
}

/// Gravity whose exact kernel dies: a worker thread panics mid-partition.
struct Dying(GravityVisitor);

impl Visitor for Dying {
    type Data = CentroidData;
    type State = <GravityVisitor as Visitor>::State;
    type Prepared = <GravityVisitor as Visitor>::Prepared;
    type PerTarget = <GravityVisitor as Visitor>::PerTarget;
    const LANES: TargetLanes = GravityVisitor::LANES;
    fn prepare(&self, s: &SpatialNodeView<'_, CentroidData>) -> Self::Prepared {
        self.0.prepare(s)
    }
    fn open(
        &self,
        s: &SpatialNodeView<'_, CentroidData>,
        m: &Self::Prepared,
        t: &TargetBucket<Self::State>,
    ) -> bool {
        self.0.open(s, m, t)
    }
    fn node(
        &self,
        s: &SpatialNodeView<'_, CentroidData>,
        m: &Self::Prepared,
        t: &mut TargetSpan<'_, Self::State>,
    ) {
        self.0.node(s, m, t)
    }
    fn leaf(
        &self,
        _: &SpatialNodeView<'_, CentroidData>,
        _: &Self::Prepared,
        _: &mut TargetSpan<'_, Self::State>,
    ) {
        panic!("injected kernel fault");
    }
}

#[test]
fn dead_worker_fails_the_run_instead_of_hanging_it() {
    // A worker that panics takes its partition with it, so the count of
    // unfinished partitions never reaches zero. The coordinator must
    // notice the dead thread and re-raise its panic with the partition
    // table attached — not spin on the count forever.
    let ps = gen::clustered(500, 2, 13, 1.0, 1.0);
    let visitor = Dying(GravityVisitor::default());
    let engine = ThreadedEngine::new(config(), 2, 2, &visitor);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run_iteration(ps, TraversalKind::TopDown)
    }))
    .err()
    .expect("the run must fail");
    let msg = err.downcast_ref::<String>().expect("formatted panic message");
    assert!(msg.contains("injected kernel fault"), "original panic is re-raised: {msg}");
    assert!(msg.contains("partitions unfinished"), "{msg}");
    assert!(
        msg.contains("waiting on") || msg.contains("no partition parked or waiting"),
        "the partition table is attached: {msg}"
    );
}
