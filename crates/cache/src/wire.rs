//! The request/fill wire protocol (Steps 1–2 of Fig. 2).
//!
//! A *fill* ships "the requested node and a user-specified number of its
//! descendants, along with particles for any leaves" as one collapsed
//! byte array. The receiver decodes it into one run of [`CacheNode`]s,
//! whose child slots index the run, plus one particle array, and
//! appends both to its store before publication.
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
use crate::tree::CacheTree;
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::io::{get_particle, put_particle, PARTICLE_WIRE_BYTES};
use paratreet_particles::Particle;
use paratreet_tree::data::wire::{get_vec3, put_vec3};
use paratreet_tree::Data;

/// Maximum children per node on the wire (octree width).
pub const MAX_BRANCH: usize = 8;

/// First four bytes of every versioned fill payload.
pub const FRAGMENT_MAGIC: u32 = 0xFA57_7EE7;

/// Current wire version (bumped when the node layout changes).
pub const WIRE_VERSION: u8 = 2;

/// Bytes of the fragment header (magic + version + epoch).
pub const HEADER_BYTES: usize = 9;

/// A decoded fill: one run of nodes in preorder, the fragment root
/// first, whose child slots hold indices into the run. Frontier children
/// are placeholder nodes of the run.
pub struct Fragment<D> {
    /// All materialised nodes, fragment root first.
    pub nodes: Vec<CacheNode<D>>,
    /// Every leaf's particles; a leaf's [`CacheNode::bucket`] indexes it.
    pub particles: Vec<Particle>,
    /// Recovery epoch the sender serialised under.
    pub epoch: u32,
}

impl<D: Data> Fragment<D> {
    /// Whether the run fits together in a tree with `bits` per key
    /// digit: every child's key is its parent's key extended by its
    /// slot, and every leaf carries as many particles as it summarises.
    pub(crate) fn is_consistent(&self, bits: u32) -> bool {
        self.nodes.iter().all(|n| {
            let fits = |slot, c: &CacheNode<D>| {
                c.key != n.key && c.key.parent(bits) == n.key && c.key.child_index(bits) == slot
            };
            let kids_fit = (0..MAX_BRANCH)
                .all(|slot| n.child(slot).is_none_or(|c| fits(slot, &self.nodes[c.0 as usize])));
            kids_fit && (!n.is_leaf() || n.bucket().len() == n.n_particles as usize)
        })
    }
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

/// Serialises the subtree of `cache` under `root` to relative depth
/// `depth_limit`, stamped with the sender's recovery `epoch`. Internal
/// nodes exactly at the limit (and placeholders encountered on the way)
/// are encoded as placeholders; leaves ship with particles.
pub fn encode_fragment<D: Data>(
    cache: &CacheTree<D>,
    root: &CacheNode<D>,
    depth_limit: u32,
    epoch: u32,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, FRAGMENT_MAGIC);
    out.push(WIRE_VERSION);
    put_u32(&mut out, epoch);
    encode_node(cache, root, depth_limit, &mut out);
    out
}

fn encode_node<D: Data>(cache: &CacheTree<D>, node: &CacheNode<D>, left: u32, out: &mut Vec<u8>) {
    let demote = node.kind == NodeKind::Internal && left == 0;
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
            let particles = cache.particles(node);
            put_u32(out, particles.len() as u32);
            for p in particles {
                put_particle(out, p);
            }
        }
        NodeKind::Internal => {
            let mut mask = 0u8;
            let mut kids: Vec<&CacheNode<D>> = Vec::new();
            for i in 0..MAX_BRANCH {
                if let Some(c) = node.child(i) {
                    mask |= 1 << i;
                    kids.push(cache.node(c));
                }
            }
            out.push(mask);
            for c in kids {
                encode_node(cache, c, left - 1, out);
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
    // One allocation holds every particle the payload has bytes for.
    let particles = Vec::with_capacity(len / PARTICLE_WIRE_BYTES);
    let mut frag = Fragment { nodes: Vec::new(), particles, epoch };
    if decode_node::<D>(input, &mut off, &mut frag).is_none() {
        return Err(CacheError::MalformedFragment { len });
    }
    if off != input.len() {
        return Err(CacheError::MalformedFragment { len }); // trailing garbage
    }
    Ok(frag)
}

/// Decodes one node (and recursively its children) into `frag` in
/// preorder, and returns the node's index in the run so the parent can
/// fill its child slot.
fn decode_node<D: Data>(input: &[u8], off: &mut usize, frag: &mut Fragment<D>) -> Option<u32> {
    let key = NodeKey(get_u64(input, off)?);
    let kind = kind_from_u8(get_u8(input, off)?)?;
    let home_rank = get_u32(input, off)?;
    let lo = get_vec3(input, off)?;
    let hi = get_vec3(input, off)?;
    let count = get_u32(input, off)?;
    let (data, used) = D::decode(&input[*off..])?;
    *off += used;
    let mut node = CacheNode::new(key, BoundingBox { lo, hi }, count, data, home_rank, kind);
    // Our slot in preorder comes before the children's.
    let index = frag.nodes.len() as u32;
    match kind {
        NodeKind::Leaf => {
            let n = get_u32(input, off)?;
            let start = frag.particles.len() as u32;
            for _ in 0..n {
                frag.particles.push(get_particle(input, off)?);
            }
            node.bucket = start..start + n;
        }
        NodeKind::Internal => {
            let mask = get_u8(input, off)?;
            frag.nodes.push(node);
            for i in 0..MAX_BRANCH {
                if mask & (1 << i) != 0 {
                    let child = decode_node::<D>(input, off, frag)?;
                    *frag.nodes[index as usize].children[i].get_mut() = child;
                }
            }
            return Some(index);
        }
        NodeKind::Empty | NodeKind::Placeholder => {}
    }
    frag.nodes.push(node);
    Some(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubtreeSummary;
    use paratreet_geometry::{Vec3, ROOT_KEY};
    use paratreet_tree::node::{BuildNode, NodeShape, NO_NODE};
    use paratreet_tree::{BuiltTree, CountData};

    /// Unwraps the error side of a decode (the `Fragment` itself has no
    /// `Debug`, so `unwrap_err` is unavailable).
    fn decode_err(r: Result<Fragment<CountData>, CacheError>) -> CacheError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("payload unexpectedly decoded"),
        }
    }

    /// Hand-builds root(internal) -> [leaf(2 particles), internal ->
    /// [leaf(1)]] as the one local Subtree of a cache, and encodes it.
    fn encode_sample(depth_limit: u32, epoch: u32) -> Vec<u8> {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let node = |key: NodeKey, shape, n: u32, kids: &[(usize, u32)]| {
            let mut children = [NO_NODE; 8];
            kids.iter().for_each(|&(slot, c)| children[slot] = c);
            let data = CountData { count: n as u64 };
            BuildNode { key, bbox: b, shape, children, data, n_particles: n, depth: key.level(3) }
        };
        let mid = ROOT_KEY.child(3, 3);
        let tree = BuiltTree {
            nodes: vec![
                node(ROOT_KEY, NodeShape::Internal, 3, &[(0, 1), (3, 2)]),
                node(ROOT_KEY.child(0, 3), NodeShape::Leaf { start: 0, end: 2 }, 2, &[]),
                node(mid, NodeShape::Internal, 1, &[(7, 3)]),
                node(mid.child(7, 3), NodeShape::Leaf { start: 2, end: 3 }, 1, &[]),
            ],
            particles: [10, 11, 12].map(|i| Particle::point_mass(i, 1.0, Vec3::splat(0.1))).into(),
            bits_per_level: 3,
        };
        let data = tree.root().data;
        let summary = SubtreeSummary { key: ROOT_KEY, bbox: b, n_particles: 3, data, home_rank: 1 };
        let cache = CacheTree::new(1, 3);
        cache.init(&[summary], vec![tree]);
        encode_fragment(&cache, cache.root().unwrap(), depth_limit, epoch)
    }

    /// Child `i` of `node`, a node of `frag`'s run.
    fn child<'f>(
        frag: &'f Fragment<CountData>,
        node: &CacheNode<CountData>,
        i: usize,
    ) -> Option<&'f CacheNode<CountData>> {
        node.child(i).map(|h| &frag.nodes[h.0 as usize])
    }

    #[test]
    fn roundtrip_full_depth() {
        let bytes = encode_sample(10, 7);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        assert_eq!(frag.nodes.len(), 4);
        assert_eq!(frag.particles.len(), 3);
        assert_eq!(frag.epoch, 7);
        let root = &frag.nodes[0];
        assert_eq!(root.key, ROOT_KEY);
        assert_eq!(root.kind, NodeKind::Internal);
        let leaf_a = child(&frag, root, 0).unwrap();
        assert_eq!(leaf_a.kind, NodeKind::Leaf);
        assert_eq!(leaf_a.bucket().len(), 2);
        assert_eq!(frag.particles[leaf_a.bucket()][0].id, 10);
        let mid = child(&frag, root, 3).unwrap();
        let leaf_b = child(&frag, mid, 7).unwrap();
        assert_eq!(leaf_b.bucket().len(), 1);
        assert_eq!(frag.particles[leaf_b.bucket()][0].id, 12);
        // Absent slots stay empty.
        assert!(root.child(1).is_none());
    }

    #[test]
    fn depth_limit_demotes_internals_to_placeholders() {
        let bytes = encode_sample(1, 0);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        let root = &frag.nodes[0];
        // Depth-1 leaf ships fully; depth-1 internal becomes placeholder.
        assert_eq!(child(&frag, root, 0).unwrap().kind, NodeKind::Leaf);
        let mid = child(&frag, root, 3).unwrap();
        assert_eq!(mid.kind, NodeKind::Placeholder);
        assert_eq!(mid.n_particles, 1); // summary still travels
        assert!(mid.child(7).is_none());
    }

    #[test]
    fn depth_zero_ships_root_summary_only_for_internal() {
        let bytes = encode_sample(0, 0);
        let frag: Fragment<CountData> = decode_fragment(&bytes).unwrap();
        assert_eq!(frag.nodes.len(), 1);
        assert_eq!(frag.nodes[0].kind, NodeKind::Placeholder);
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode_sample(10, 0);
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
        let mut bytes = encode_sample(10, 0);
        bytes.push(0);
        assert_eq!(
            decode_err(decode_fragment::<CountData>(&bytes)),
            CacheError::MalformedFragment { len: bytes.len() }
        );
    }

    #[test]
    fn bad_kind_byte_rejected() {
        let mut bytes = encode_sample(10, 0);
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
        let bytes = encode_sample(10, 3);
        let legacy = &bytes[HEADER_BYTES..];
        assert_eq!(
            decode_err(decode_fragment::<CountData>(legacy)),
            CacheError::LegacyFragment { len: legacy.len() }
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_sample(10, 3);
        bytes[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_err(decode_fragment::<CountData>(&bytes)),
            CacheError::MalformedFragment { len: bytes.len() }
        );
    }
}
