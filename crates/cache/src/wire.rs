//! The request/fill wire protocol (Steps 1–2 of Fig. 2).
//!
//! A *fill* ships "the requested node and a user-specified number of its
//! descendants, along with particles for any leaves" as one collapsed
//! byte array. The receiver converts it back into [`CacheNode`] objects
//! and wires parent/child pointers privately before publication.
//!
//! Layout (wire version 2): a 9-byte header, then nodes in preorder.
//!
//! ```text
//! magic: u32 | version: u8 | epoch: u32
//! ```
//!
//! then each node is
//!
//! ```text
//! key: u64 | kind: u8 | home_rank: u32 | bbox: 6×f64 | n_particles: u32
//! | data: D::encode | (leaf) count: u32 + particles
//! | (internal) child-mask: u8, then present children in slot order
//! ```
//!
//! Internal nodes at the requested depth limit are demoted to
//! [`NodeKind::Placeholder`] on the wire — their summaries travel, their
//! structure stays home until someone asks for it.
//!
//! The `epoch` is the sender's recovery epoch at serialisation time
//! (see [`crate::CacheTree::epoch`]): after a rank crash the engine
//! bumps every cache's epoch, so in-flight fills serialised before the
//! crash decode fine but are rejected on insert with
//! [`CacheError::StaleEpoch`]. Payloads from the pre-epoch wire format
//! (no magic) are rejected with [`CacheError::LegacyFragment`] instead
//! of being mis-decoded as node data.

use crate::error::CacheError;
use crate::node::{CacheNode, NodeKind};
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::io::{get_particle, put_particle};
use paratreet_tree::data::wire::{get_vec3, put_vec3};
use paratreet_tree::Data;
use std::sync::atomic::Ordering;

/// Maximum children per node on the wire (octree width).
pub const MAX_BRANCH: usize = 8;

/// First four bytes of every versioned fill payload.
pub const FRAGMENT_MAGIC: u32 = 0xFA57_7EE7;

/// Current wire version (bumped when the node layout changes).
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the fragment header (magic + version + epoch).
pub const HEADER_BYTES: usize = 9;

/// A decoded fill: boxed nodes (stable heap addresses) with child
/// pointers already wired among themselves. Index 0 is the fragment root.
/// Frontier children are fresh placeholder nodes inside `nodes`.
pub struct Fragment<D> {
    /// All materialised nodes, fragment root first.
    pub nodes: Vec<Box<CacheNode<D>>>,
    /// Total particles carried (for stats).
    pub n_particles: u64,
    /// Recovery epoch the sender serialised under.
    pub epoch: u32,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u8(input: &[u8], off: &mut usize) -> Option<u8> {
    let v = *input.get(*off)?;
    *off += 1;
    Some(v)
}

fn get_u32(input: &[u8], off: &mut usize) -> Option<u32> {
    let bytes: [u8; 4] = input.get(*off..*off + 4)?.try_into().ok()?;
    *off += 4;
    Some(u32::from_le_bytes(bytes))
}

fn get_u64(input: &[u8], off: &mut usize) -> Option<u64> {
    let bytes: [u8; 8] = input.get(*off..*off + 8)?.try_into().ok()?;
    *off += 8;
    Some(u64::from_le_bytes(bytes))
}

fn kind_to_u8(k: NodeKind) -> u8 {
    match k {
        NodeKind::Internal => 0,
        NodeKind::Leaf => 1,
        NodeKind::Empty => 2,
        NodeKind::Placeholder => 3,
    }
}

fn kind_from_u8(v: u8) -> Option<NodeKind> {
    Some(match v {
        0 => NodeKind::Internal,
        1 => NodeKind::Leaf,
        2 => NodeKind::Empty,
        3 => NodeKind::Placeholder,
        _ => return None,
    })
}

/// Serialises the subtree under `root` to relative depth `depth_limit`,
/// stamped with the sender's recovery `epoch`. Internal nodes exactly at
/// the limit (and placeholders encountered on the way) are encoded as
/// placeholders; leaves ship with particles.
pub fn encode_fragment<D: Data>(root: &CacheNode<D>, depth_limit: u32, epoch: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, FRAGMENT_MAGIC);
    out.push(WIRE_VERSION);
    put_u32(&mut out, epoch);
    encode_node(root, depth_limit, &mut out);
    out
}

fn encode_node<D: Data>(node: &CacheNode<D>, levels_left: u32, out: &mut Vec<u8>) {
    let demote = node.kind == NodeKind::Internal && levels_left == 0;
    let kind = if demote { NodeKind::Placeholder } else { node.kind };
    put_u64(out, node.key.raw());
    out.push(kind_to_u8(kind));
    put_u32(out, node.home_rank);
    put_vec3(out, node.bbox.lo);
    put_vec3(out, node.bbox.hi);
    put_u32(out, node.n_particles);
    node.data.encode(out);
    match kind {
        NodeKind::Leaf => {
            put_u32(out, node.particles.len() as u32);
            for p in &node.particles {
                put_particle(out, p);
            }
        }
        NodeKind::Internal => {
            let mut mask = 0u8;
            let mut kids: Vec<&CacheNode<D>> = Vec::new();
            for i in 0..MAX_BRANCH {
                if let Some(c) = node.child(i) {
                    mask |= 1 << i;
                    kids.push(c);
                }
            }
            out.push(mask);
            for c in kids {
                encode_node(c, levels_left - 1, out);
            }
        }
        NodeKind::Empty | NodeKind::Placeholder => {}
    }
}

/// Decodes a fill into a privately wired [`Fragment`]. Malformed input
/// (truncation, bad kind bytes, trailing garbage, wrong version) is
/// [`CacheError::MalformedFragment`]; a payload without the magic is
/// the pre-epoch wire format, [`CacheError::LegacyFragment`].
pub fn decode_fragment<D: Data>(input: &[u8]) -> Result<Fragment<D>, CacheError> {
    let len = input.len();
    let mut off = 0;
    let header = (|| {
        let magic = get_u32(input, &mut off)?;
        let version = get_u8(input, &mut off)?;
        let epoch = get_u32(input, &mut off)?;
        Some((magic, version, epoch))
    })();
    let Some((magic, version, epoch)) = header else {
        return Err(CacheError::MalformedFragment { len });
    };
    if magic != FRAGMENT_MAGIC {
        return Err(CacheError::LegacyFragment { len });
    }
    if version != WIRE_VERSION {
        return Err(CacheError::MalformedFragment { len });
    }
    let mut nodes = Vec::new();
    let mut n_particles = 0u64;
    if decode_node::<D>(input, &mut off, &mut nodes, &mut n_particles).is_none() {
        return Err(CacheError::MalformedFragment { len });
    }
    if off != input.len() {
        return Err(CacheError::MalformedFragment { len }); // trailing garbage
    }
    Ok(Fragment { nodes, n_particles, epoch })
}

/// Decodes one node (and recursively its children), appends the boxed
/// nodes to `nodes` in preorder, and returns the raw pointer of the node
/// just decoded so the parent can wire its child slot.
fn decode_node<D: Data>(
    input: &[u8],
    off: &mut usize,
    nodes: &mut Vec<Box<CacheNode<D>>>,
    n_particles: &mut u64,
) -> Option<*mut CacheNode<D>> {
    let key = NodeKey(get_u64(input, off)?);
    let kind = kind_from_u8(get_u8(input, off)?)?;
    let home_rank = get_u32(input, off)?;
    let lo = get_vec3(input, off)?;
    let hi = get_vec3(input, off)?;
    let count = get_u32(input, off)?;
    let (data, used) = D::decode(&input[*off..])?;
    *off += used;
    let bbox = BoundingBox { lo, hi };
    let mut node = Box::new(CacheNode::new(key, bbox, count, data, home_rank, kind, Vec::new()));
    match kind {
        NodeKind::Leaf => {
            let n = get_u32(input, off)? as usize;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(get_particle(input, off)?);
            }
            *n_particles += n as u64;
            node.particles = ps;
        }
        NodeKind::Internal => {
            let mask = get_u8(input, off)?;
            // Reserve our slot in preorder before the children.
            let my_index = nodes.len();
            nodes.push(node);
            for i in 0..MAX_BRANCH {
                if mask & (1 << i) != 0 {
                    let child = decode_node::<D>(input, off, nodes, n_particles)?;
                    nodes[my_index].children[i].store(child, Ordering::Relaxed);
                }
            }
            return Some(&mut *nodes[my_index] as *mut _);
        }
        NodeKind::Empty | NodeKind::Placeholder => {}
    }
    nodes.push(node);
    let last = nodes.len() - 1;
    Some(&mut *nodes[last] as *mut _)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_geometry::{Vec3, ROOT_KEY};
    use paratreet_particles::Particle;
    use paratreet_tree::CountData;

    /// Unwraps the error side of a decode (the `Fragment` itself has no
    /// `Debug`, so `unwrap_err` is unavailable).
    fn decode_err(r: Result<Fragment<CountData>, CacheError>) -> CacheError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("payload unexpectedly decoded"),
        }
    }

    /// Hand-builds: root(internal) -> [leaf(2 particles), internal -> [leaf(1)]]
    #[allow(clippy::vec_box)] // mirrors the cache's boxed-node storage
    fn sample_tree() -> Vec<Box<CacheNode<CountData>>> {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let mk_leaf = |key: NodeKey, ids: &[u64]| {
            let ps: Vec<Particle> =
                ids.iter().map(|&i| Particle::point_mass(i, 1.0, Vec3::splat(0.1))).collect();
            Box::new(CacheNode::new(
                key,
                b,
                ps.len() as u32,
                CountData { count: ps.len() as u64 },
                1,
                NodeKind::Leaf,
                ps,
            ))
        };
        let leaf_a = mk_leaf(ROOT_KEY.child(0, 3), &[10, 11]);
        let leaf_b = mk_leaf(ROOT_KEY.child(3, 3).child(7, 3), &[12]);
        let mid = Box::new(CacheNode::new(
            ROOT_KEY.child(3, 3),
            b,
            1,
            CountData { count: 1 },
            1,
            NodeKind::Internal,
            vec![],
        ));
        let root = Box::new(CacheNode::new(
            ROOT_KEY,
            b,
            3,
            CountData { count: 3 },
            1,
            NodeKind::Internal,
            vec![],
        ));
        let pa = &*leaf_a as *const _ as *mut CacheNode<CountData>;
        let pb = &*leaf_b as *const _ as *mut CacheNode<CountData>;
        let pm = &*mid as *const _ as *mut CacheNode<CountData>;
        mid.children[7].store(pb, Ordering::Relaxed);
        root.children[0].store(pa, Ordering::Relaxed);
        root.children[3].store(pm, Ordering::Relaxed);
        vec![root, mid, leaf_a, leaf_b]
    }

    #[test]
    fn roundtrip_full_depth() {
        let tree = sample_tree();
        let bytes = encode_fragment(&tree[0], 10, 7);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        assert_eq!(frag.nodes.len(), 4);
        assert_eq!(frag.n_particles, 3);
        assert_eq!(frag.epoch, 7);
        let root = &frag.nodes[0];
        assert_eq!(root.key, ROOT_KEY);
        assert_eq!(root.kind, NodeKind::Internal);
        let leaf_a = root.child(0).unwrap();
        assert_eq!(leaf_a.kind, NodeKind::Leaf);
        assert_eq!(leaf_a.particles.len(), 2);
        assert_eq!(leaf_a.particles[0].id, 10);
        let mid = root.child(3).unwrap();
        let leaf_b = mid.child(7).unwrap();
        assert_eq!(leaf_b.particles.len(), 1);
        assert_eq!(leaf_b.particles[0].id, 12);
        // Absent slots stay null.
        assert!(root.child(1).is_none());
    }

    #[test]
    fn depth_limit_demotes_internals_to_placeholders() {
        let tree = sample_tree();
        let bytes = encode_fragment(&tree[0], 1, 0);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        let root = &frag.nodes[0];
        // Depth-1 leaf ships fully; depth-1 internal becomes placeholder.
        assert_eq!(root.child(0).unwrap().kind, NodeKind::Leaf);
        let mid = root.child(3).unwrap();
        assert_eq!(mid.kind, NodeKind::Placeholder);
        assert_eq!(mid.n_particles, 1); // summary still travels
        assert!(mid.child(7).is_none());
    }

    #[test]
    fn depth_zero_ships_root_summary_only_for_internal() {
        let tree = sample_tree();
        let bytes = encode_fragment(&tree[0], 0, 0);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        assert_eq!(frag.nodes.len(), 1);
        assert_eq!(frag.nodes[0].kind, NodeKind::Placeholder);
    }

    #[test]
    fn truncated_input_rejected() {
        let tree = sample_tree();
        let bytes = encode_fragment(&tree[0], 10, 0);
        for cut in [1, 9, 20, bytes.len() - 1] {
            assert_eq!(
                decode_err(decode_fragment::<CountData>(&bytes[..cut])),
                CacheError::MalformedFragment { len: cut },
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let tree = sample_tree();
        let mut bytes = encode_fragment(&tree[0], 10, 0);
        bytes.push(0);
        assert_eq!(
            decode_err(decode_fragment::<CountData>(&bytes)),
            CacheError::MalformedFragment { len: bytes.len() }
        );
    }

    #[test]
    fn bad_kind_byte_rejected() {
        let tree = sample_tree();
        let mut bytes = encode_fragment(&tree[0], 10, 0);
        bytes[HEADER_BYTES + 8] = 9; // kind byte of the root
        assert_eq!(
            decode_err(decode_fragment::<CountData>(&bytes)),
            CacheError::MalformedFragment { len: bytes.len() }
        );
    }

    #[test]
    fn legacy_headerless_payload_rejected_structurally() {
        // The pre-epoch format started straight at the root node's key;
        // stripping the header reproduces it byte-for-byte.
        let tree = sample_tree();
        let bytes = encode_fragment(&tree[0], 10, 3);
        let legacy = &bytes[HEADER_BYTES..];
        assert_eq!(
            decode_err(decode_fragment::<CountData>(legacy)),
            CacheError::LegacyFragment { len: legacy.len() }
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let tree = sample_tree();
        let mut bytes = encode_fragment(&tree[0], 10, 3);
        bytes[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_err(decode_fragment::<CountData>(&bytes)),
            CacheError::MalformedFragment { len: bytes.len() }
        );
    }
}
