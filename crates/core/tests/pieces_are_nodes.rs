//! A Subtree is a node of the global tree (§II-C). Decomposition carves
//! its pieces by the tree type's cut rule, so every piece must equal the
//! node at its key in one whole build over the same universe: the same
//! box, the same depth and the same particles. Only leaf buckets may
//! split at Partition borders; no piece may invent a region of its own.
//!
//! The inputs hold no exact coordinate ties at a median: which of two
//! tied particles lands low is left unspecified (DESIGN §5e).

use paratreet_core::{decompose, universe_for, Configuration, DecompType, SfcCurve};
use paratreet_particles::{gen, Particle};
use paratreet_tree::{BuiltTree, CountData, NodeIdx, TreeBuilder, TreeType};

/// Ids of every particle under node `i`, in bucket order.
fn ids_under(tree: &BuiltTree<CountData>, i: NodeIdx, out: &mut Vec<u64>) {
    let node = tree.node(i);
    match node.bucket_range() {
        Some(r) => out.extend(tree.particles[r].iter().map(|p| p.id)),
        None => node.child_indices().for_each(|c| ids_under(tree, c, out)),
    }
}

#[test]
fn every_subtree_piece_is_the_global_trees_node() {
    // The disk's star and planet sit at y = z = 0 together; leave them
    // out so no two particles tie on a coordinate.
    let inputs: [(&str, Vec<Particle>); 3] = [
        ("uniform", gen::uniform_cube(3000, 11, 1.0, 1.0)),
        ("clustered", gen::clustered(3000, 4, 13, 1.0, 1.0)),
        ("disk", gen::keplerian_disk(3000, 5, gen::DiskParams::default())[2..].to_vec()),
    ];
    for tree_type in [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct]
    {
        for sfc in [SfcCurve::Morton, SfcCurve::Hilbert] {
            let config = Configuration {
                tree_type,
                decomp_type: DecompType::Sfc,
                sfc,
                bucket_size: 4,
                n_subtrees: 24,
                n_partitions: 8,
                ..Default::default()
            };
            for (name, particles) in &inputs {
                let what = format!("{tree_type:?} x {sfc:?}, {name}");
                let universe = universe_for(particles, &config, 0.0);
                let tree: BuiltTree<CountData> = TreeBuilder::new(tree_type)
                    .bucket_size(config.bucket_size)
                    .build(particles.clone(), universe);
                let at = tree.key_index();
                let d = decompose(particles.clone(), &config);
                assert!(d.subtrees.len() >= 16, "{what}: {} pieces", d.subtrees.len());
                for piece in &d.subtrees {
                    let Some(&i) = at.get(&piece.key) else {
                        panic!("{what}: piece {} is no node of the global tree", piece.key)
                    };
                    let node = tree.node(i);
                    assert_eq!(node.bbox, piece.bbox, "{what}: box of {}", piece.key);
                    assert_eq!(node.depth, piece.depth, "{what}: depth of {}", piece.key);
                    let mut want = Vec::new();
                    ids_under(&tree, i, &mut want);
                    want.sort_unstable();
                    let mut have: Vec<u64> = piece.particles.iter().map(|p| p.id).collect();
                    have.sort_unstable();
                    assert_eq!(have, want, "{what}: particles of {}", piece.key);
                }
            }
        }
    }
}
