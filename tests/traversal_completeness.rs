//! Traversal completeness: for *any* opening criterion, every (target
//! particle, source particle) pair must be accounted exactly once —
//! either through a leaf interaction or through exactly one pruned
//! ancestor's summary. A visitor that accumulates source *mass* per
//! target makes this a conservation law: after any traversal, every
//! particle has absorbed exactly the total mass of the universe.

use paratreet_core::{
    Configuration, DecompType, Framework, SpatialNodeView, TargetBucket, TargetSpan, TraversalKind,
    Visitor,
};
use paratreet_particles::{gen, Particle};
use paratreet_tree::{CountData, Data, TreeType};
use proptest::prelude::*;

/// Accumulates the mass of every source it is shown into each target's
/// `density` field; "opens" nodes by a deterministic pseudo-random hash
/// so the pruning pattern is arbitrary but reproducible.
struct MassAuditVisitor {
    /// Salt for the pseudo-random open decision.
    salt: u64,
}

/// Data carrying subtree mass for the audit.
#[derive(Clone, Debug, Default, PartialEq)]
struct MassData {
    mass: f64,
    count: CountData,
}

impl Data for MassData {
    fn from_leaf(particles: &[Particle], bbox: &paratreet_geometry::BoundingBox) -> Self {
        MassData {
            mass: particles.iter().map(|p| p.mass).sum(),
            count: CountData::from_leaf(particles, bbox),
        }
    }
    fn merge(&mut self, child: &Self) {
        self.mass += child.mass;
        self.count.merge(&child.count);
    }
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.mass.to_le_bytes());
        self.count.encode(out);
    }
    fn decode(input: &[u8]) -> Option<(Self, usize)> {
        let bytes: [u8; 8] = input.get(..8)?.try_into().ok()?;
        let (count, used) = CountData::decode(&input[8..])?;
        Some((MassData { mass: f64::from_le_bytes(bytes), count }, 8 + used))
    }
}

impl Visitor for MassAuditVisitor {
    type Data = MassData;
    type State = ();
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, MassData>) {}
    fn open(
        &self,
        source: &SpatialNodeView<'_, MassData>,
        _: &(),
        target: &TargetBucket<()>,
    ) -> bool {
        // Arbitrary deterministic pruning: hash the (node, bucket) pair.
        let h = source
            .key
            .raw()
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(target.leaf_key.raw())
            .wrapping_mul(self.salt | 1);
        (h >> 32) & 3 != 0 // open ~75% of the time
    }

    fn node(
        &self,
        source: &SpatialNodeView<'_, MassData>,
        _: &(),
        target: &mut TargetSpan<'_, ()>,
    ) {
        for p in target.particles_mut() {
            p.density += source.data.mass;
        }
    }

    fn leaf(
        &self,
        source: &SpatialNodeView<'_, MassData>,
        _: &(),
        target: &mut TargetSpan<'_, ()>,
    ) {
        for p in target.particles_mut() {
            for s in source.particles {
                p.density += s.mass;
            }
        }
    }
}

fn audit_config(tree_type: TreeType, decomp_type: DecompType) -> Configuration {
    Configuration {
        tree_type,
        decomp_type,
        bucket_size: 8,
        n_subtrees: 6,
        n_partitions: 5,
        ..Default::default()
    }
}

fn run_audit(
    particles: Vec<Particle>,
    tree_type: TreeType,
    decomp_type: DecompType,
    kind: TraversalKind,
    salt: u64,
) -> (f64, Vec<f64>) {
    let total_mass: f64 = particles.iter().map(|p| p.mass).sum();
    let mut fw: Framework<MassData> =
        Framework::new(audit_config(tree_type, decomp_type), particles);
    let visitor = MassAuditVisitor { salt };
    fw.step(|s| {
        s.traverse(&visitor, kind);
    });
    (total_mass, fw.particles().iter().map(|p| p.density).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_pair_accounted_exactly_once(
        n in 10usize..250,
        seed in 0u64..1000,
        salt in 0u64..1000,
        tree_idx in 0usize..4,
        decomp_idx in 0usize..4,
        kind_idx in 0usize..3,
    ) {
        let tree_type =
            [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct][tree_idx];
        let decomp_type =
            [DecompType::Sfc, DecompType::Oct, DecompType::Kd, DecompType::LongestDim][decomp_idx];
        let kind =
            [TraversalKind::TopDown, TraversalKind::BasicDfs, TraversalKind::UpAndDown][kind_idx];
        let particles = gen::clustered(n, 3, seed, 1.0, 1.0);
        let (total, absorbed) = run_audit(particles, tree_type, decomp_type, kind, salt);
        for (i, a) in absorbed.iter().enumerate() {
            prop_assert!(
                (a - total).abs() < 1e-9 * total.max(1.0),
                "particle {i} absorbed {a}, expected {total} \
                 ({tree_type:?}/{decomp_type:?}/{kind:?})"
            );
        }
    }

    #[test]
    fn up_and_down_is_also_complete(
        n in 10usize..200,
        seed in 0u64..1000,
        salt in 0u64..1000,
    ) {
        // Up-and-down reaches every node through leaf-to-root sibling
        // expansion; it must account every pair exactly once too.
        let particles = gen::uniform_cube(n, seed, 1.0, 1.0);
        let (total, absorbed) = run_audit(
            particles,
            TreeType::Octree,
            DecompType::Sfc,
            TraversalKind::UpAndDown,
            salt,
        );
        for (i, a) in absorbed.iter().enumerate() {
            prop_assert!(
                (a - total).abs() < 1e-9 * total.max(1.0),
                "particle {i} absorbed {a}, expected {total}"
            );
        }
    }
}

/// The loop transposition (§III-A) changes how the walk is scheduled,
/// not what it computes: TopDown carries every bucket interested in a
/// node through it as one work item, BasicDfs walks the tree once per
/// bucket, and the two make the same leaf interactions — TopDown in an
/// order of magnitude fewer items.
#[test]
fn traversal_schedules_trade_visits_for_identical_counts() {
    let ps = gen::uniform_cube(1500, 5, 1.0, 1.0);
    let run = |kind| {
        let config = audit_config(TreeType::Octree, DecompType::Sfc);
        let mut fw: Framework<MassData> = Framework::new(config, ps.clone());
        let (_, report) = fw.step(|s| {
            s.traverse(&MassAuditVisitor { salt: 7 }, kind);
        });
        report.counts
    };
    let (transposed, basic) = (run(TraversalKind::TopDown), run(TraversalKind::BasicDfs));
    assert_eq!(transposed.leaf_interactions, basic.leaf_interactions);
    assert!(
        transposed.nodes_visited * 10 < basic.nodes_visited,
        "transposition must amortise visits: {} vs {}",
        transposed.nodes_visited,
        basic.nodes_visited
    );
}

#[test]
fn open_everything_gives_exact_n_squared() {
    struct OpenAll;
    impl Visitor for OpenAll {
        type Data = CountData;
        type State = ();
        type Prepared = ();
        type PerTarget = ();
        fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
        fn open(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &TargetBucket<()>) -> bool {
            true
        }
        fn node(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &mut TargetSpan<'_, ()>) {
            panic!("node() must never fire when everything opens");
        }
        fn leaf(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &mut TargetSpan<'_, ()>) {}
    }
    let n = 300usize;
    let particles = gen::uniform_cube(n, 3, 1.0, 1.0);
    let config = Configuration { bucket_size: 8, ..Default::default() };
    let mut fw: Framework<CountData> = Framework::new(config, particles);
    let (_, report) = fw.step(|s| {
        s.traverse(&OpenAll, TraversalKind::TopDown);
    });
    assert_eq!(report.counts.leaf_interactions, (n * n) as u64);
    assert_eq!(report.counts.node_interactions, 0);
}

#[test]
fn open_nothing_prunes_at_the_root() {
    struct OpenNone;
    impl Visitor for OpenNone {
        type Data = CountData;
        type State = ();
        type Prepared = ();
        type PerTarget = ();
        fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
        fn open(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &TargetBucket<()>) -> bool {
            false
        }
        fn node(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &mut TargetSpan<'_, ()>) {}
        fn leaf(&self, _s: &SpatialNodeView<'_, CountData>, _: &(), _t: &mut TargetSpan<'_, ()>) {
            panic!("leaf() must never fire when nothing opens");
        }
    }
    let particles = gen::uniform_cube(200, 3, 1.0, 1.0);
    let config = Configuration { bucket_size: 8, ..Default::default() };
    let mut fw: Framework<CountData> = Framework::new(config, particles);
    let (_, report) = fw.step(|s| {
        s.traverse(&OpenNone, TraversalKind::TopDown);
    });
    // Every bucket prunes exactly once, at the root: one node()
    // application per target particle.
    assert_eq!(report.counts.node_interactions, 200);
    assert_eq!(report.counts.leaf_interactions, 0);
}
