//! Concurrency tests: parallel readers and writers on one cache.
//!
//! The wait-free claim is that traversal threads keep reading the tree
//! while fills are spliced in by other threads, and the tree is valid at
//! every instant — readers see either the placeholder (with a correct
//! summary) or the fully wired fragment, never anything in between.

use paratreet_cache::{CacheTree, NodeKind, SubtreeSummary};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, ParticleVec};
use paratreet_tree::{CountData, TreeBuilder, TreeType};
use std::sync::atomic::{AtomicBool, Ordering};

/// Builds a "home" cache owning everything and a "away" cache where all
/// eight root octants are placeholders, plus per-octant fills.
fn make_fills(n: usize) -> (CacheTree<CountData>, Vec<(NodeKey, Vec<u8>)>) {
    let mut ps = gen::clustered(n, 4, 99, 1.0, 1.0);
    let universe = ps.bounding_box().padded(1e-9).bounding_cube();
    ps.assign_keys(&universe);
    ps.sort_by_sfc_key();

    let home: CacheTree<CountData> = CacheTree::new(1, 3);
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
        let tree = builder.bucket_size(4).build::<CountData>(part, universe.octant(oct));
        summaries.push(SubtreeSummary {
            key: tree.root().key,
            bbox: tree.root().bbox,
            n_particles: tree.root().n_particles,
            data: tree.root().data,
            home_rank: 1,
        });
        trees.push(tree);
    }
    home.init(&summaries, trees);

    let fills: Vec<(NodeKey, Vec<u8>)> =
        summaries.iter().map(|s| (s.key, home.serialize_fragment(s.key, 64).unwrap())).collect();

    // Away cache: same summaries, no local trees, all placeholders.
    let away: CacheTree<CountData> = CacheTree::new(0, 3);
    away.init(&summaries, vec![]);
    (away, fills)
}

/// Walks the tree and checks the invariant that every reachable node's
/// `n_particles` equals the sum over its children (or its bucket size),
/// treating placeholders as trusted summaries.
fn check_consistent(cache: &CacheTree<CountData>) -> u64 {
    fn walk(c: &CacheTree<CountData>, n: &paratreet_cache::CacheNode<CountData>) -> u64 {
        match n.kind {
            NodeKind::Placeholder => n.n_particles as u64,
            NodeKind::Empty => 0,
            NodeKind::Leaf => {
                assert_eq!(c.particles(n).len() as u32, n.n_particles);
                n.n_particles as u64
            }
            NodeKind::Internal => {
                let sum: u64 = c.children(n, 8).map(|ch| walk(c, ch)).sum();
                assert_eq!(sum, n.n_particles as u64, "internal node count mismatch");
                sum
            }
        }
    }
    walk(cache, cache.root().expect("root"))
}

#[test]
fn parallel_writers_single_reader() {
    let n = 2000;
    let (away, fills) = make_fills(n);
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Reader: hammer the tree with consistency checks while fills land.
        let away_ref = &away;
        let done_ref = &done;
        let reader = s.spawn(move || {
            let mut checks = 0u64;
            while !done_ref.load(Ordering::Acquire) {
                assert_eq!(check_consistent(away_ref), n as u64);
                checks += 1;
            }
            // One final check after all fills are in.
            assert_eq!(check_consistent(away_ref), n as u64);
            checks
        });

        // Writers: each inserts a subset of fills concurrently.
        let mut writers = Vec::new();
        for chunk in fills.chunks(2) {
            let away_ref = &away;
            writers.push(s.spawn(move || {
                for (_, fill) in chunk {
                    away_ref.insert_fragment(fill).unwrap();
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let checks = reader.join().unwrap();
        assert!(checks > 0, "reader must have observed intermediate states");
    });

    // After all fills: no placeholders remain reachable.
    let mut stack = vec![away.root().unwrap()];
    let mut leaf_particles = 0;
    while let Some(nd) = stack.pop() {
        assert_ne!(nd.kind, NodeKind::Placeholder);
        if nd.is_leaf() {
            leaf_particles += away.particles(nd).len();
        }
        for c in away.children(nd, 8) {
            stack.push(c);
        }
    }
    assert_eq!(leaf_particles, n);
}

#[test]
fn concurrent_requests_send_exactly_one_fetch_per_key() {
    let (away, fills) = make_fills(500);
    let key = fills[0].0;
    let ph = away.lookup(key).unwrap();
    let sends = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let away_ref = &away;
            let sends_ref = &sends;
            s.spawn(move || {
                if let paratreet_cache::RequestOutcome::SendFetch { .. } = away_ref.request(ph, t) {
                    sends_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(sends.load(Ordering::Relaxed), 1, "requested flag must dedup");
    let snap = away.stats.snapshot();
    assert_eq!(snap.requests_sent, 1);
    assert_eq!(snap.requests_deduped, 7);
    assert_eq!(snap.waiters_parked, 8);

    // The fill resumes all eight waiters.
    let outcome = away.insert_fragment(&fills[0].1).unwrap();
    let mut resumed: Vec<u64> = outcome
        .resumed
        .iter()
        .map(|&(k, w)| {
            assert_eq!(k, key);
            w
        })
        .collect();
    resumed.sort_unstable();
    assert_eq!(resumed, (0..8).collect::<Vec<_>>());
}

#[test]
fn racing_requests_and_fills_account_for_every_waiter() {
    // `request` and `insert_fragment` race on the same key from many
    // threads: every waiter must end up either served immediately
    // (Ready) or resumed by exactly one fill — never parked forever,
    // never resumed twice — and exactly one of the two racing inserts
    // is the canonical one.
    for round in 0..10u64 {
        let (away, fills) = make_fills(600);
        let key = fills[0].0;
        let fill = &fills[0].1;
        let ph = away.lookup(key).unwrap();
        let ready = std::sync::atomic::AtomicU64::new(0);
        let resumed = std::sync::Mutex::new(Vec::new());
        let duplicates = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let away_ref = &away;
                let ready_ref = &ready;
                s.spawn(move || {
                    // Non-Ready means parked; a fill must hand it back.
                    if let paratreet_cache::RequestOutcome::Ready(n) =
                        away_ref.request(ph, round * 100 + t)
                    {
                        assert!(!n.is_placeholder());
                        ready_ref.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..2 {
                let away_ref = &away;
                let resumed_ref = &resumed;
                let duplicates_ref = &duplicates;
                s.spawn(move || {
                    let out = away_ref.insert_fragment(fill).unwrap();
                    if out.duplicate {
                        duplicates_ref.fetch_add(1, Ordering::Relaxed);
                    }
                    resumed_ref.lock().unwrap().extend(out.resumed);
                });
            }
        });
        let resumed = resumed.into_inner().unwrap();
        let mut waiters: Vec<u64> = resumed
            .iter()
            .map(|&(k, w)| {
                assert_eq!(k, key);
                w
            })
            .collect();
        waiters.sort_unstable();
        waiters.dedup();
        assert_eq!(waiters.len(), resumed.len(), "round {round}: waiter resumed twice");
        assert_eq!(
            ready.load(Ordering::Relaxed) + resumed.len() as u64,
            8,
            "round {round}: every waiter is served exactly once"
        );
        assert_eq!(duplicates.load(Ordering::Relaxed), 1, "round {round}");
        away.audit().unwrap_or_else(|e| panic!("round {round}: audit failed: {e}"));
    }
}

#[test]
fn no_delete_cache_keeps_superseded_placeholders() {
    let (away, fills) = make_fills(300);
    let before = away.n_allocated();
    for (_, f) in &fills {
        away.insert_fragment(f).unwrap();
    }
    // Allocation count grows (fragments added) and is at least the
    // original skeleton size — nothing was freed.
    assert!(away.n_allocated() > before);
}

#[test]
fn readers_never_block_on_inserts() {
    // Smoke test for wait-freedom: reads complete while a writer holds
    // the book-keeping lock mid-insert. We simulate "mid-insert" by just
    // hammering inserts and timing reads — reads go through atomics only,
    // so even under continuous writes a read of the full tree terminates.
    let (away, fills) = make_fills(3000);
    std::thread::scope(|s| {
        let away_ref = &away;
        let w = s.spawn(move || {
            for (_, f) in &fills {
                away_ref.insert_fragment(f).unwrap();
            }
        });
        for _ in 0..50 {
            let total = check_consistent(&away);
            assert_eq!(total, 3000);
        }
        w.join().unwrap();
    });
}
