//! Work items hold ranges into one scratch stack per partition instead
//! of bucket lists of their own. Two consequences are checked here, on a
//! fixed 20 k-particle tree walked for one partition's buckets: a
//! traversal's heap allocations do not grow with the nodes it visits,
//! and the scratch stays within one range per tree level.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_cache::{CacheNode, CacheTree, SubtreeSummary};
use paratreet_core::traversal::{
    drain, process_item, seed_items, traverse_local, Apply, WorkCounts,
};
use paratreet_core::{decompose, Configuration, Targets, TraversalKind};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, Particle};
use paratreet_tree::{BuiltTree, TreeBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and destructor-free: touching it from inside the
    // allocator neither allocates nor registers a TLS destructor. Each
    // test thread counts only what it asked for itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell`, so counting cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live block of `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` describe a live block of `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

const BUCKET_SIZE: usize = 16;

/// The fully local cached tree over 20 k clustered particles.
fn tree() -> CacheTree<CentroidData> {
    let config = Configuration { bucket_size: BUCKET_SIZE, n_subtrees: 8, ..Default::default() };
    let particles = gen::clustered(20_000, 4, 17, 1.0, 1.0);
    let trees: Vec<BuiltTree<CentroidData>> = decompose(particles, &config)
        .subtrees
        .into_iter()
        .map(|piece| {
            TreeBuilder {
                root_key: piece.key,
                root_depth: piece.depth,
                ..TreeBuilder::new(config.tree_type)
            }
            .bucket_size(config.bucket_size)
            .build(piece.particles, piece.bbox)
        })
        .collect();
    let summaries: Vec<SubtreeSummary<CentroidData>> = trees
        .iter()
        .map(|t| SubtreeSummary {
            key: t.root().key,
            bbox: t.root().bbox,
            n_particles: t.root().n_particles,
            data: t.root().data.clone(),
            home_rank: 0,
        })
        .collect();
    let cache = CacheTree::new(0, config.tree_type.bits_per_level());
    cache.init(&summaries, trees);
    cache
}

/// One partition's target buckets — the first sixteenth of the leaves
/// in depth-first order, so most of the tree is far away and the opening
/// angle decides how much of it is visited — and the level of the
/// deepest leaf.
fn partition(cache: &CacheTree<CentroidData>) -> (Targets<()>, u32) {
    fn walk(
        node: &CacheNode<CentroidData>,
        bits: u32,
        out: &mut Vec<(NodeKey, Vec<Particle>)>,
        depth: &mut u32,
    ) {
        if !node.particles.is_empty() {
            *depth = (*depth).max(node.key.level(bits));
            out.push((node.key, node.particles.clone()));
        }
        for slot in 0..8 {
            if let Some(child) = node.child(slot) {
                walk(child, bits, out, depth);
            }
        }
    }
    let (mut out, mut depth) = (Vec::new(), 0);
    walk(cache.root().expect("a tree was built"), cache.bits, &mut out, &mut depth);
    out.truncate(out.len() / 16);
    (Targets::assemble(&GravityVisitor::default(), out), depth)
}

#[test]
fn allocations_do_not_grow_with_nodes_visited() {
    let cache = tree();
    let (fresh, _) = partition(&cache);
    for kind in [TraversalKind::TopDown, TraversalKind::UpAndDown] {
        let run = |theta: f64| {
            let visitor = GravityVisitor { theta, g: 1.0 };
            let mut buckets = fresh.clone();
            allocations_during(|| traverse_local(&cache, &visitor, kind, &mut buckets))
        };
        let (tight, tight_allocs) = run(0.3);
        let (loose, loose_allocs) = run(0.9);
        assert!(
            tight.nodes_visited > 2 * loose.nodes_visited && tight.opens > 2 * loose.opens,
            "{kind:?}: θ = 0.3 must be the much longer walk ({tight:?} vs {loose:?})"
        );
        // What is left is the work list and the scratch growing to their
        // high-water marks, by doubling.
        assert!(
            tight_allocs <= 48 && loose_allocs <= 48,
            "{kind:?}: {tight_allocs} allocations for {} nodes, {loose_allocs} for {}",
            tight.nodes_visited,
            loose.nodes_visited
        );
        assert!(
            tight_allocs.abs_diff(loose_allocs) <= 2,
            "{kind:?}: {tight_allocs} allocations at θ = 0.3, {loose_allocs} at θ = 0.9"
        );
    }
}

#[test]
fn scratch_holds_at_most_one_range_per_tree_level() {
    let cache = tree();
    let (mut buckets, depth) = partition(&cache);
    let n = buckets.buckets().len();
    let visitor = GravityVisitor { theta: 0.5, g: 1.0 };
    let kind = TraversalKind::TopDown;
    let expected = traverse_local(&cache, &visitor, kind, &mut buckets.clone());

    // The loop every executor shares, then the same walk item by item
    // to watch the scratch.
    let mut stack = seed_items::<GravityVisitor>(&cache, kind, &buckets);
    assert_eq!((stack.len(), stack.scratch_len()), (1, n), "one seed spanning every bucket");
    let (mut drained, apply) = (buckets.clone(), Apply::Runs);
    let counts = drain(&cache, &visitor, apply, &mut drained, &mut stack, |fetch, _| {
        panic!("the tree is fully local, yet {} was surrendered", fetch.key)
    });
    assert_eq!(counts, expected, "the shared drain is traverse_local");
    assert!(stack.is_empty(), "a fully local walk runs the stack dry");

    let mut stack = seed_items::<GravityVisitor>(&cache, kind, &buckets);
    let (mut counts, mut fetches, mut peak) = (WorkCounts::default(), Vec::new(), 0);
    while let Some(item) = stack.pop() {
        let (stack, fetches, counts) = (&mut stack, &mut fetches, &mut counts);
        process_item(&cache, &visitor, apply, &mut buckets, item, stack, fetches, counts);
        peak = peak.max(stack.scratch_len());
    }
    assert!(fetches.is_empty(), "the tree is fully local");
    assert_eq!(counts, expected, "the hand-driven loop is traverse_local");
    // The seed's range, then one `opened` range per internal level on
    // the path to the item being processed; finished subtrees' ranges
    // are reclaimed when the next sibling pops.
    let bound = (depth as usize + 1) * n;
    assert!(peak <= bound, "peak scratch {peak} exceeds {bound} ({depth} levels × {n} buckets)");
    assert!(peak > n, "some node was opened");
}
