//! Two simulated ranks exchanging fills: the full cache-miss lifecycle of
//! Fig. 2 — placeholder, request, serialise at home, insert, atomic swap,
//! waiter resumption — driven synchronously for determinism.

use paratreet_cache::{CacheTree, NodeKind, RequestOutcome, SubtreeSummary};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, ParticleVec};
use paratreet_tree::{CountData, TreeBuilder, TreeType};

/// Builds a two-rank world: particles split by the root octant's first
/// digit would be uneven, so split the sorted SFC order in half and give
/// each rank the subtree(s) covering its half. For test simplicity each
/// rank owns ONE subtree: rank 0 the low octants under root child c0,
/// rank 1 the rest. We fabricate the split by building each rank's tree
/// over its own particles under distinct root children.
fn make_world(
    n: usize,
) -> (CacheTree<CountData>, CacheTree<CountData>, Vec<SubtreeSummary<CountData>>) {
    let mut ps = gen::uniform_cube(n, 77, 1.0, 1.0);
    let universe = ps.bounding_box().padded(1e-9).bounding_cube();
    ps.assign_keys(&universe);
    ps.sort_by_sfc_key();

    // Octant groups 0..4 -> rank 0 under their own subtree roots;
    // octants 4..8 -> rank 1. Subtree root = root child (one per octant).
    let mut summaries = Vec::new();
    let mut trees0 = Vec::new();
    let mut trees1 = Vec::new();
    for oct in 0..8 {
        let part: Vec<_> =
            ps.iter().copied().filter(|p| universe.octant_of(p.pos) == oct).collect();
        if part.is_empty() {
            continue;
        }
        let home = if oct < 4 { 0 } else { 1 };
        let builder = TreeBuilder {
            root_key: NodeKey::root().child(oct, 3),
            root_depth: 1,
            parallel: false,
            ..TreeBuilder::new(TreeType::Octree)
        };
        let tree = builder.bucket_size(8).build::<CountData>(part, universe.octant(oct));
        summaries.push(SubtreeSummary {
            key: tree.root().key,
            bbox: tree.root().bbox,
            n_particles: tree.root().n_particles,
            data: tree.root().data,
            home_rank: home,
        });
        if home == 0 {
            trees0.push(tree);
        } else {
            trees1.push(tree);
        }
    }

    let cache0: CacheTree<CountData> = CacheTree::new(0, 3);
    let cache1: CacheTree<CountData> = CacheTree::new(1, 3);
    cache0.init(&summaries, trees0);
    cache1.init(&summaries, trees1);
    (cache0, cache1, summaries)
}

#[test]
fn skeleton_has_correct_totals() {
    let (c0, c1, _) = make_world(500);
    assert_eq!(c0.root().unwrap().n_particles, 500);
    assert_eq!(c1.root().unwrap().n_particles, 500);
    assert_eq!(c0.root().unwrap().data.count, 500);
}

#[test]
fn local_subtrees_are_materialised_remote_are_placeholders() {
    let (c0, _c1, summaries) = make_world(500);
    for s in &summaries {
        let node = c0.lookup(s.key).expect("every subtree root resolved");
        if s.home_rank == 0 {
            assert_ne!(node.kind, NodeKind::Placeholder);
        } else {
            assert_eq!(node.kind, NodeKind::Placeholder);
            assert_eq!(node.home_rank, 1);
            assert_eq!(node.n_particles, s.n_particles); // summary present
        }
    }
}

#[test]
fn fetch_fill_swap_resume_cycle() {
    let (c0, c1, summaries) = make_world(800);
    let remote = summaries.iter().find(|s| s.home_rank == 1).unwrap();
    let ph = c0.lookup(remote.key).unwrap();
    assert!(ph.is_placeholder());

    // First request sends a fetch and parks waiter 42.
    match c0.request(ph, 42) {
        RequestOutcome::SendFetch { home_rank } => assert_eq!(home_rank, 1),
        other => panic!("expected SendFetch, got {other:?}"),
    }
    // Duplicate request from another traversal is absorbed.
    match c0.request(ph, 43) {
        RequestOutcome::InFlight => {}
        other => panic!("expected InFlight, got {other:?}"),
    }
    assert_eq!(c0.stats.snapshot().requests_sent, 1);
    assert_eq!(c0.stats.snapshot().requests_deduped, 1);

    // Home rank serialises the fill (depth 2).
    let fill = c1.serialize_fragment(remote.key, 2).unwrap();
    let outcome = c0.insert_fragment(&fill).unwrap();
    assert!(!outcome.duplicate);
    let mut resumed = outcome.resumed.clone();
    resumed.sort_by_key(|(_, w)| *w);
    assert_eq!(resumed, vec![(remote.key, 42), (remote.key, 43)]);
    let node = outcome.root;
    assert_eq!(node.key, remote.key);
    assert_ne!(node.kind, NodeKind::Placeholder);
    assert_eq!(node.n_particles, remote.n_particles);

    // The placeholder has been swapped out of the tree: walking from the
    // root now reaches the materialised node.
    let root = c0.root().unwrap();
    let slot = remote.key.child_index(3);
    let via_tree = c0.child(root, slot).unwrap();
    assert!(std::ptr::eq(via_tree, node));

    // A request after the fill reports Ready immediately.
    match c0.request(ph, 44) {
        RequestOutcome::Ready(n) => assert!(std::ptr::eq(n, node)),
        other => panic!("expected Ready, got {other:?}"),
    }
}

#[test]
fn chained_fetches_reach_all_particles() {
    // Fetch with depth 1 repeatedly until every remote particle is
    // materialised on rank 0; the sum of leaf particle counts must equal
    // the global count. Exercises frontier placeholders and re-requests.
    let (c0, c1, _) = make_world(600);
    let mut waiter = 100u64;
    loop {
        // Walk the whole tree on rank 0, collecting placeholder keys.
        let mut placeholders = Vec::new();
        let mut leaf_particles = 0u64;
        let mut stack = vec![c0.root().unwrap()];
        while let Some(n) = stack.pop() {
            match n.kind {
                NodeKind::Placeholder => placeholders.push((n.key, n)),
                NodeKind::Leaf => leaf_particles += c0.particles(n).len() as u64,
                _ => {}
            }
            for c in c0.children(n, 8) {
                stack.push(c);
            }
        }
        if placeholders.is_empty() {
            assert_eq!(leaf_particles, 600);
            break;
        }
        for (key, ph) in placeholders {
            waiter += 1;
            match c0.request(ph, waiter) {
                RequestOutcome::SendFetch { home_rank } => {
                    assert_eq!(home_rank, 1);
                    let fill = c1.serialize_fragment(key, 1).unwrap();
                    let outcome = c0.insert_fragment(&fill).unwrap();
                    assert_eq!(outcome.resumed, vec![(key, waiter)]);
                }
                RequestOutcome::Ready(_) | RequestOutcome::InFlight => {
                    panic!("each placeholder key is requested exactly once")
                }
            }
        }
    }
    // All fills accounted: bytes received and nodes inserted are nonzero.
    let snap = c0.stats.snapshot();
    assert!(snap.fills_inserted > 0);
    assert!(snap.bytes_received > 0);
    assert_eq!(snap.waiters_parked, snap.waiters_resumed);
}

#[test]
fn traversal_sees_identical_structure_on_both_ranks_after_full_fetch() {
    let (c0, c1, _) = make_world(300);
    // Materialise everything on rank 0.
    let mut w = 0;
    loop {
        let mut any = false;
        let mut stack = vec![c0.root().unwrap()];
        let mut to_fetch = Vec::new();
        while let Some(n) = stack.pop() {
            if n.is_placeholder() {
                to_fetch.push((n.key, n));
            }
            for c in c0.children(n, 8) {
                stack.push(c);
            }
        }
        for (key, ph) in to_fetch {
            any = true;
            w += 1;
            if let RequestOutcome::SendFetch { .. } = c0.request(ph, w) {
                let fill = c1.serialize_fragment(key, 64).unwrap();
                c0.insert_fragment(&fill).unwrap();
            }
        }
        if !any {
            break;
        }
    }
    // Compare whole-tree particle multiset between ranks via DFS of keys.
    fn collect(c: &CacheTree<CountData>) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![c.root().unwrap()];
        while let Some(n) = stack.pop() {
            if n.is_leaf() {
                out.push((n.key.raw(), c.particles(n).len()));
            }
            for ch in c.children(n, 8) {
                stack.push(ch);
            }
        }
        out.sort_unstable();
        out
    }
    // Rank 1 still has placeholders for rank 0's data; compare only the
    // leaves under rank-1-owned subtrees, which rank 0 now mirrors.
    let r1_leaves = collect(&c1)
        .into_iter()
        .filter(|(k, _)| {
            let key = NodeKey(*k);
            let top = key.ancestor_at(1, 3);
            top.child_index(3) >= 4 // rank 1's octants
        })
        .collect::<Vec<_>>();
    let r0_view = collect(&c0)
        .into_iter()
        .filter(|(k, _)| NodeKey(*k).ancestor_at(1, 3).child_index(3) >= 4)
        .collect::<Vec<_>>();
    assert_eq!(r1_leaves, r0_view);
    assert!(!r1_leaves.is_empty());
}
