//! Property tests for the fill wire protocol: round-trips preserve
//! structure, and arbitrary bytes never panic the decoder (fills arrive
//! from the network; a malformed fill must be an error, not a crash).

use paratreet_cache::wire::{decode_fragment, encode_fragment, Fragment, HEADER_BYTES};
use paratreet_cache::{CacheError, CacheNode, CacheTree, NodeKind, SubtreeSummary};
use paratreet_geometry::{BoundingBox, NodeKey, Vec3, ROOT_KEY};
use paratreet_particles::Particle;
use paratreet_tree::node::{BuildNode, NodeShape, NO_NODE};
use paratreet_tree::{BuiltTree, CountData};
use proptest::prelude::*;
use std::sync::atomic::Ordering;

/// Appends the random small tree of a recursive shape description to
/// `tree` in preorder, under `key`; returns its root's index.
fn build_tree(shape: &Shape, key: NodeKey, tree: &mut BuiltTree<CountData>) -> u32 {
    let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
    let my = tree.nodes.len();
    tree.nodes.push(BuildNode {
        key,
        bbox: b,
        shape: NodeShape::Empty,
        children: [NO_NODE; 8],
        data: CountData::default(),
        n_particles: 0,
        depth: key.level(3),
    });
    let total = match shape {
        Shape::Leaf(n) => {
            let start = tree.particles.len() as u32;
            let ps = (0..*n).map(|i| Particle::point_mass(i as u64, 1.0, Vec3::splat(0.5)));
            tree.particles.extend(ps);
            tree.nodes[my].shape = NodeShape::Leaf { start, end: start + *n as u32 };
            *n as u32
        }
        Shape::Empty => 0,
        Shape::Internal(children) => {
            tree.nodes[my].shape = NodeShape::Internal;
            let mut total = 0u32;
            for (slot, child) in children.iter().enumerate().take(8) {
                if let Some(c) = child {
                    let ci = build_tree(c, key.child(slot, 3), tree);
                    total += tree.nodes[ci as usize].n_particles;
                    tree.nodes[my].children[slot] = ci;
                }
            }
            total
        }
    };
    tree.nodes[my].n_particles = total;
    tree.nodes[my].data = CountData { count: total as u64 };
    my as u32
}

/// A cache holding the tree of `shape` as its one local Subtree.
fn build_cache(shape: &Shape) -> CacheTree<CountData> {
    let mut tree = BuiltTree { nodes: Vec::new(), particles: Vec::new(), bits_per_level: 3 };
    build_tree(shape, ROOT_KEY, &mut tree);
    let root = tree.root();
    let (bbox, n_particles, data) = (root.bbox, root.n_particles, root.data);
    let cache = CacheTree::new(2, 3);
    cache.init(
        &[SubtreeSummary { key: ROOT_KEY, bbox, n_particles, data, home_rank: 2 }],
        vec![tree],
    );
    cache
}

/// The fill a home rank serialises for the tree of `shape`.
fn encode(shape: &Shape, depth_limit: u32, epoch: u32) -> Vec<u8> {
    let cache = build_cache(shape);
    encode_fragment(&cache, cache.root().unwrap(), depth_limit, epoch)
}

#[derive(Clone, Debug)]
enum Shape {
    Leaf(usize),
    Empty,
    Internal(Vec<Option<Shape>>),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![(0usize..10).prop_map(Shape::Leaf), Just(Shape::Empty),];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop::collection::vec(prop::option::of(inner), 1..4).prop_map(Shape::Internal)
    })
}

/// Child `i` of `node`, a node of `frag`'s run.
fn in_run<'f>(
    frag: &'f Fragment<CountData>,
    node: &CacheNode<CountData>,
    i: usize,
) -> Option<&'f CacheNode<CountData>> {
    frag.nodes.get(node.children[i].load(Ordering::Relaxed) as usize)
}

/// Collects (key, kind, n_particles) of the reachable tree for
/// structural comparison; `child` resolves child slots.
fn fingerprint<'a>(
    node: &'a CacheNode<CountData>,
    child: &impl Fn(&'a CacheNode<CountData>, usize) -> Option<&'a CacheNode<CountData>>,
    out: &mut Vec<(u64, u8, u32, usize)>,
) {
    let kind = match node.kind {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Empty => 2,
        NodeKind::Placeholder => 3,
    };
    out.push((node.key.raw(), kind, node.n_particles, node.bucket().len()));
    for c in (0..8).filter_map(|i| child(node, i)) {
        fingerprint(c, child, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_preserves_structure_and_epoch(shape in arb_shape(), epoch in any::<u32>()) {
        let cache = build_cache(&shape);
        let root = cache.root().unwrap();
        let bytes = encode_fragment(&cache, root, 16, epoch);
        let frag = decode_fragment::<CountData>(&bytes).expect("well-formed fragment");
        prop_assert_eq!(frag.epoch, epoch, "epoch must survive the wire");
        let mut a = Vec::new();
        fingerprint(root, &|n, i| cache.child(n, i), &mut a);
        let mut b = Vec::new();
        fingerprint(&frag.nodes[0], &|n, i| in_run(&frag, n, i), &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn depth_limited_roundtrip_never_exceeds_depth(shape in arb_shape(), depth in 0u32..3) {
        let bytes = encode(&shape, depth, 0);
        let frag = decode_fragment::<CountData>(&bytes).expect("well-formed fragment");
        // No decoded node sits deeper than `depth` below the root.
        for n in &frag.nodes {
            prop_assert!(n.key.level(3) <= depth);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Must return Ok or Err, never crash.
        let _ = decode_fragment::<CountData>(&bytes);
    }

    #[test]
    fn truncations_of_valid_fragments_are_rejected(shape in arb_shape(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&shape, 16, 3);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_fragment::<CountData>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bitflips_never_panic(shape in arb_shape(), flip_byte in 0usize..256, flip_bit in 0u8..8) {
        let mut bytes = encode(&shape, 16, 3);
        if !bytes.is_empty() {
            let i = flip_byte % bytes.len();
            bytes[i] ^= 1 << flip_bit;
            let _ = decode_fragment::<CountData>(&bytes); // no panic
        }
    }

    #[test]
    fn legacy_headerless_payloads_yield_structured_errors(shape in arb_shape()) {
        // A pre-epoch payload is exactly a v2 payload with the header
        // stripped: it must surface as LegacyFragment (or, when shorter
        // than any header could be, MalformedFragment), never decode.
        let bytes = encode(&shape, 16, 1);
        let legacy = &bytes[HEADER_BYTES..];
        match decode_fragment::<CountData>(legacy) {
            Err(CacheError::LegacyFragment { len }) => prop_assert_eq!(len, legacy.len()),
            Err(CacheError::MalformedFragment { .. }) => prop_assert!(legacy.len() < HEADER_BYTES),
            Err(e) => prop_assert!(false, "unexpected error {}", e),
            Ok(_) => prop_assert!(false, "legacy payload decoded"),
        }
    }

    #[test]
    fn wrong_wire_versions_are_rejected(shape in arb_shape(), version in any::<u8>()) {
        let mut bytes = encode(&shape, 16, 1);
        if version != bytes[4] {
            bytes[4] = version;
            prop_assert_eq!(
                decode_fragment::<CountData>(&bytes).err(),
                Some(CacheError::MalformedFragment { len: bytes.len() })
            );
        }
    }
}
