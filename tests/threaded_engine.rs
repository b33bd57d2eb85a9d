//! The real-threads engine must reproduce the deterministic engines'
//! physics under genuine concurrency: multiple rank thread-groups,
//! real channels, concurrent cache reads and fill insertions. This is
//! the strongest exercise of the wait-free cache design.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::knn::{KnnData, KnnVisitor};
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
    let ps = gen::clustered(900, 3, 11, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    for kind in [TraversalKind::TopDown, TraversalKind::BasicDfs] {
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
            // Interaction totals are exact algorithmic quantities.
            assert_eq!(rep.counts.leaf_interactions, shared.counts.leaf_interactions, "{at}");
            assert_eq!(rep.counts.node_interactions, shared.counts.node_interactions, "{at}");
        }
    }
}

#[test]
fn parked_items_resume_with_their_own_bucket_sets() {
    // Work items index one scratch stack per partition, so an item that
    // parks on a fetch must take a copy of its bucket set with it and
    // come back with exactly that set. The two schedules that stress
    // this: BasicDfs parks many single-bucket items on one key, and
    // UpAndDown parks with live items still stacked, so resumed sets
    // land above ranges in use. Gravity's `open` ignores bucket state:
    // interaction totals are exact in both.
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
        assert_eq!(rep.counts.leaf_interactions, shared.counts.leaf_interactions, "{kind:?}");
        assert_eq!(rep.counts.node_interactions, shared.counts.node_interactions, "{kind:?}");
        let got = by_id(rep.particles);
        if kind == TraversalKind::BasicDfs {
            assert_forces_match(&got, &want);
            continue;
        }
        // A seed path cut by a remote placeholder gives other up-and-down
        // seed items than the shared engine's, so a target's sums arrive
        // in another order: equal up to rounding only.
        for (a, b) in got.iter().zip(&want) {
            let denom = b.acc.norm().max(1e-30);
            assert!((a.acc - b.acc).norm() / denom < 1e-9, "particle {} differs", a.id);
        }
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

#[test]
fn threaded_knn_up_and_down_completes() {
    // kNN on the threaded engine: ordered pauses across real channels.
    let ps = gen::uniform_cube(400, 5, 1.0, 1.0);
    let visitor = KnnVisitor { k: 8 };
    let engine: ThreadedEngine<KnnVisitor> = ThreadedEngine::new(config(), 2, 2, &visitor);
    let rep = engine.run_iteration(ps.clone(), TraversalKind::UpAndDown);
    assert_eq!(rep.particles.len(), ps.len());
    // kNN pruning bounds are dynamic, so the exact work count is
    // schedule-dependent (pauses reorder processing and therefore when
    // bounds tighten). What must hold: the traversal completes, offers
    // at least enough candidates to fill every heap, and never does
    // less exact work than the tightest (sequential) schedule.
    let mut fw: Framework<KnnData> = Framework::new(config(), ps.clone());
    let (_, r) = fw.step(|s| {
        s.traverse(&visitor, TraversalKind::UpAndDown);
    });
    assert!(rep.counts.leaf_interactions >= r.counts.leaf_interactions);
    assert!(rep.counts.leaf_interactions >= (ps.len() * 8) as u64);
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
