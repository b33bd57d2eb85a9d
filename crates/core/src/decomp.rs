//! The Partitions–Subtrees decomposition (§II-C).
//!
//! "Tree decompositions serve dual purposes in traditional n-body codes:
//! dividing work among processors, and acting as a distributed repository
//! of hierarchically organized data. Our model separates these concerns."
//!
//! [`decompose`] therefore produces two independent views of one particle
//! set:
//!
//! * **Subtrees** — pieces aligned with the *tree type*: each piece is a
//!   genuine node of the global tree (key + region), produced by
//!   repeatedly splitting the most populated piece by the tree's split
//!   rule. Subtrees own particles and build tree memory.
//! * **A [`Partitioner`]** — the *decomposition type*'s assignment of
//!   every particle to a Partition (work). SFC slices the Morton line
//!   uniformly in count; Oct aligns partitions with octree regions; Kd
//!   and LongestDim use binary median planes.
//!
//! Because the two views need not agree, a tree leaf's particles may land
//! in several Partitions; the *leaf sharing* step (in the engines) splits
//! exactly those buckets — never interior tree paths — which is the
//! model's communication saving.
//!
//! The work is kept in proportion to what it touches: the records are
//! sorted once (by 24-byte key entries, see
//! [`ParticleVec::sort_by_sfc_key`]); a piece is a *range* of that one
//! array until the carving is over, split in place and regrouped only
//! where the SFC order has not already grouped it; each piece is then
//! copied out once, into a vector of exactly its length; and the
//! partitioners, which read nothing but positions, carve a position
//! list instead of a clone of the records.

use crate::config::{Configuration, DecompType, SfcCurve};
use paratreet_geometry::{Axis, BoundingBox, MortonKey, NodeKey, Vec3, ROOT_KEY};
use paratreet_particles::{Particle, ParticleVec};
use paratreet_tree::{cut, TreeType};
use rayon::prelude::*;

/// One Subtree piece: a node of the global tree plus its particles.
#[derive(Clone, Debug)]
pub struct SubtreePiece {
    /// The piece's node key in the global tree.
    pub key: NodeKey,
    /// The piece's spatial region (octant region or median-split slab).
    pub bbox: BoundingBox,
    /// Depth of `key` below the global root.
    pub depth: u32,
    /// The particles this Subtree owns.
    pub particles: Vec<Particle>,
}

impl From<&SubtreePiece> for SubtreePiece {
    fn from(piece: &SubtreePiece) -> SubtreePiece {
        piece.clone()
    }
}

/// Binary decision node of a plane-based partitioner. Children encode
/// either another node (`Node`) or a partition id (`Part`).
#[derive(Clone, Copy, Debug)]
pub enum PlaneChild {
    /// Index of a further split in the plane tree.
    Node(u32),
    /// Terminal partition id.
    Part(u32),
}

/// One median split plane.
#[derive(Clone, Copy, Debug)]
pub struct PlaneNode {
    /// Split axis.
    pub axis: Axis,
    /// Coordinates `< plane` go left, `>= plane` go right.
    pub plane: f64,
    /// Low-side child.
    pub lo: PlaneChild,
    /// High-side child.
    pub hi: PlaneChild,
}

/// Assigns particles to Partitions.
#[derive(Clone, Debug)]
pub enum Partitioner {
    /// Partition `i` covers Morton keys in `[splitters[i-1], splitters[i])`
    /// (with implicit 0 and ∞ at the ends). Used by SFC and Oct.
    KeyRanges {
        /// Ascending interior boundaries (`n_partitions - 1` of them).
        splitters: Vec<MortonKey>,
    },
    /// A binary tree of median planes. Used by Kd and LongestDim.
    Planes {
        /// Plane nodes; index 0 is the root (empty means 1 partition).
        nodes: Vec<PlaneNode>,
    },
}

/// The one-Partition partitioner (no splitters: everything is Partition 0).
impl Default for Partitioner {
    fn default() -> Partitioner {
        Partitioner::KeyRanges { splitters: Vec::new() }
    }
}

impl Partitioner {
    /// The Partition owning particle `p` (whose `key` must be assigned).
    pub fn assign(&self, p: &Particle) -> u32 {
        match self {
            Partitioner::KeyRanges { splitters } => {
                splitters.partition_point(|s| *s <= p.key) as u32
            }
            Partitioner::Planes { nodes } => {
                if nodes.is_empty() {
                    return 0;
                }
                let mut cur = 0u32;
                loop {
                    let n = &nodes[cur as usize];
                    let side = if p.pos.component(n.axis.index()) < n.plane { n.lo } else { n.hi };
                    match side {
                        PlaneChild::Node(i) => cur = i,
                        PlaneChild::Part(id) => return id,
                    }
                }
            }
        }
    }
}

/// The full output of the decomposition phase.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The global root's region (a cube for octrees).
    pub universe: BoundingBox,
    /// Subtree pieces (≥ the configured minimum; tiles the universe).
    pub subtrees: Vec<SubtreePiece>,
    /// Particle → Partition assignment.
    pub partitioner: Partitioner,
    /// Number of Partitions the partitioner produces.
    pub n_partitions: usize,
}

/// A piece while it is still a stretch of the one SFC-sorted array:
/// splitting regroups the stretch in place and hands its children
/// sub-ranges, so nothing is copied until the pieces are final.
struct PieceRange {
    key: NodeKey,
    bbox: BoundingBox,
    depth: u32,
    range: std::ops::Range<usize>,
}

/// Carves `items` into at least `min_pieces` pieces by repeatedly
/// splitting the most populated one with the tree rule. Only `pos` of an
/// item is read, so the same carving serves the particle records and a
/// bare position list.
fn find_piece_ranges<T>(
    items: &mut [T],
    pos: impl Fn(&T) -> Vec3 + Copy,
    universe: BoundingBox,
    tree_type: TreeType,
    min_pieces: usize,
    bucket_size: usize,
) -> Vec<PieceRange> {
    let mut pieces =
        vec![PieceRange { key: ROOT_KEY, bbox: universe, depth: 0, range: 0..items.len() }];
    while pieces.len() < min_pieces {
        // Split the most populated piece; stop if nothing is splittable.
        let Some((idx, _)) = pieces
            .iter()
            .enumerate()
            .filter(|(_, p)| p.range.len() > bucket_size.max(1))
            .max_by_key(|(_, p)| p.range.len())
        else {
            break;
        };
        // The tree's own cut regroups the piece's stretch in place; its
        // children take the stretch's consecutive sub-ranges.
        let piece = pieces.swap_remove(idx);
        let mut start = piece.range.start;
        let stretch = &mut items[piece.range];
        for c in cut::split(tree_type, stretch, pos, &piece.bbox, piece.key, piece.depth) {
            let range = start..start + c.len;
            start = range.end;
            pieces.push(PieceRange { key: c.key, bbox: c.bbox, depth: piece.depth + 1, range });
        }
    }
    // Deterministic order: by key (pieces form an antichain, so Morton
    // floors are disjoint and ordered).
    pieces.sort_by_key(|p| (p.depth, p.key.raw()));
    pieces
}

/// Splits the SFC-sorted particle set into at least `min_pieces` Subtree
/// pieces. Every piece is copied out of the one array once, into a
/// vector of exactly its own length.
fn find_subtree_pieces(
    mut particles: Vec<Particle>,
    universe: BoundingBox,
    tree_type: TreeType,
    min_pieces: usize,
    bucket_size: usize,
) -> Vec<SubtreePiece> {
    let ranges =
        find_piece_ranges(&mut particles, |p| p.pos, universe, tree_type, min_pieces, bucket_size);
    let particles = &particles;
    ranges
        .into_par_iter()
        .map(|r| SubtreePiece {
            key: r.key,
            bbox: r.bbox,
            depth: r.depth,
            particles: particles[r.range].to_vec(),
        })
        .collect()
}

/// Builds the SFC partitioner: slice the Morton-sorted order into
/// `n_partitions` equal-count ranges.
fn sfc_partitioner(sorted: &[Particle], n_partitions: usize) -> Partitioner {
    let n = sorted.len();
    let mut splitters = Vec::with_capacity(n_partitions.saturating_sub(1));
    for j in 1..n_partitions {
        let idx = j * n / n_partitions;
        if idx < n {
            splitters.push(sorted[idx].key);
        }
    }
    splitters.dedup();
    Partitioner::KeyRanges { splitters }
}

/// Builds the Oct partitioner: decompose by octree rule into at least
/// `n_partitions` pieces and use their Morton ranges as key splitters —
/// partitions are octree regions, so load follows the spatial
/// distribution, not the particle count (the Fig. 13 imbalance).
fn oct_partitioner(
    sorted: &[Particle],
    universe: BoundingBox,
    n_partitions: usize,
    bucket_size: usize,
) -> (Partitioner, usize) {
    // The carving reads positions only: 24 bytes a particle of scratch.
    let mut positions: Vec<Vec3> = sorted.iter().map(|p| p.pos).collect();
    let pieces = find_piece_ranges(
        &mut positions,
        |p| *p,
        universe,
        TreeType::Octree,
        n_partitions,
        bucket_size,
    );
    let mut floors: Vec<MortonKey> = pieces.iter().map(|p| p.key.morton_range(21).0).collect();
    floors.sort_unstable();
    let count = floors.len();
    let splitters = floors.split_off(1);
    (Partitioner::KeyRanges { splitters }, count)
}

/// Recursively builds a plane-based partitioner over `parts` partitions,
/// splitting particle counts proportionally. Returns the child handle
/// for this range and appends plane nodes to `nodes`. `particles` is a
/// scratch list of positions, reordered freely.
fn build_planes(
    particles: &mut [Vec3],
    bbox: BoundingBox,
    depth: u32,
    parts: u32,
    next_part: &mut u32,
    nodes: &mut Vec<PlaneNode>,
    tree_type: TreeType,
) -> PlaneChild {
    if parts <= 1 {
        let id = *next_part;
        *next_part += 1;
        return PlaneChild::Part(id);
    }
    let axis = tree_type.split_axis(depth, &bbox);
    let lo_parts = parts / 2;
    let mid = particles.len() * lo_parts as usize / parts as usize;
    let plane = if particles.is_empty() {
        // Degenerate range: split space at the box centre so the plane
        // tree stays well-formed and partition ids stay dense.
        bbox.center().component(axis.index())
    } else {
        cut::kth_plane(particles, mid.min(particles.len() - 1), axis, |p: &Vec3| *p)
    };
    let (lo_box, hi_box) = bbox.split_at(axis, plane);
    let my_index = nodes.len() as u32;
    nodes.push(PlaneNode {
        axis,
        plane,
        lo: PlaneChild::Part(u32::MAX),
        hi: PlaneChild::Part(u32::MAX),
    });
    let (lo_slice, hi_slice) = particles.split_at_mut(mid);
    let lo = build_planes(lo_slice, lo_box, depth + 1, lo_parts, next_part, nodes, tree_type);
    let hi =
        build_planes(hi_slice, hi_box, depth + 1, parts - lo_parts, next_part, nodes, tree_type);
    nodes[my_index as usize].lo = lo;
    nodes[my_index as usize].hi = hi;
    PlaneChild::Node(my_index)
}

/// Runs the decomposition phase: computes the universe, assigns Morton
/// keys, sorts into SFC order, finds both sets of splitters, and returns
/// the Subtree pieces plus the Partition assignment function.
pub fn decompose(particles: Vec<Particle>, config: &Configuration) -> Decomposition {
    let universe = universe_for(&particles, config, 0.0);
    decompose_within(particles, config, universe)
}

/// The universe box [`decompose`] would use for `particles`, inflated by
/// `pad` × the largest extent on every side before cubing. `pad = 0`
/// reproduces [`decompose`]'s box exactly; incremental maintenance seeds
/// with a positive pad so slowly drifting hull particles stay inside the
/// maintained root regions across iterations.
pub fn universe_for(particles: &[Particle], config: &Configuration, pad: f64) -> BoundingBox {
    let mut tight = particles.bounding_box().padded(1e-9);
    if pad > 0.0 && !tight.is_empty() {
        let extent = tight.hi - tight.lo;
        let margin = pad * extent.x.max(extent.y).max(extent.z);
        tight = tight.padded(margin);
    }
    let universe = config.tree_type.root_region(tight);
    if universe.is_empty() {
        BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0))
    } else {
        universe
    }
}

/// Like [`decompose`] but over an explicitly supplied universe box
/// (see [`universe_for`]). The box must contain every particle.
///
/// Panics naming the first particle whose position is not finite.
pub fn decompose_within(
    mut particles: Vec<Particle>,
    config: &Configuration,
    universe: BoundingBox,
) -> Decomposition {
    // Key particles along the configured curve. The Hilbert curve only
    // applies to SFC decomposition — octree decomposition derives its
    // splitters from Morton digit structure. The same pass rejects a
    // non-finite position: no key, box or force could place it.
    let hilbert = config.sfc == SfcCurve::Hilbert && config.decomp_type == DecompType::Sfc;
    for (i, p) in particles.iter_mut().enumerate() {
        assert!(p.pos.is_finite(), "particle {i} (id {}) has a non-finite position", p.id);
        p.key = if hilbert {
            paratreet_geometry::hilbert_key(p.pos, &universe)
        } else {
            paratreet_geometry::morton_key(p.pos, &universe)
        };
    }
    particles.sort_by_sfc_key();

    let (partitioner, n_partitions) = match config.decomp_type {
        DecompType::Sfc => (sfc_partitioner(&particles, config.n_partitions), config.n_partitions),
        DecompType::Oct => {
            oct_partitioner(&particles, universe, config.n_partitions, config.bucket_size)
        }
        DecompType::Kd | DecompType::LongestDim => {
            let rule = if config.decomp_type == DecompType::Kd {
                TreeType::KdTree
            } else {
                TreeType::LongestDim
            };
            let mut nodes = Vec::new();
            let mut next = 0u32;
            let mut scratch: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
            build_planes(
                &mut scratch,
                universe,
                0,
                config.n_partitions as u32,
                &mut next,
                &mut nodes,
                rule,
            );
            (Partitioner::Planes { nodes }, next as usize)
        }
    };

    let mut subtrees = find_subtree_pieces(
        particles,
        universe,
        config.tree_type,
        config.n_subtrees,
        config.bucket_size,
    );
    // Order pieces along the same curve the Partitions use, so
    // contiguous blocks of Subtrees and contiguous blocks of Partitions
    // land on the same ranks (the locality that makes leaf sharing and
    // traversal mostly rank-local).
    if config.sfc == SfcCurve::Hilbert && config.decomp_type == DecompType::Sfc {
        subtrees.sort_by_key(|p| paratreet_geometry::hilbert_key(p.bbox.center(), &universe));
    }

    Decomposition { universe, subtrees, partitioner, n_partitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::gen;

    fn config(decomp: DecompType, tree: TreeType) -> Configuration {
        Configuration {
            decomp_type: decomp,
            tree_type: tree,
            n_subtrees: 8,
            n_partitions: 6,
            bucket_size: 8,
            ..Default::default()
        }
    }

    fn total_subtree_particles(d: &Decomposition) -> usize {
        d.subtrees.iter().map(|s| s.particles.len()).sum()
    }

    #[test]
    fn subtree_pieces_conserve_particles_and_tile() {
        for tree in [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim] {
            let ps = gen::uniform_cube(1000, 3, 1.0, 1.0);
            let d = decompose(ps, &config(DecompType::Sfc, tree));
            assert_eq!(total_subtree_particles(&d), 1000, "{tree:?}");
            assert!(d.subtrees.len() >= 8, "{tree:?}");
            // Pieces form an antichain: no piece's key is an ancestor of
            // another's.
            let bits = tree.bits_per_level();
            for a in &d.subtrees {
                for b in &d.subtrees {
                    if a.key != b.key {
                        assert!(!a.key.is_ancestor_of(b.key, bits));
                    }
                }
                // Every particle is inside its piece's region.
                for p in &a.particles {
                    assert!(a.bbox.padded(1e-12).contains(p.pos));
                }
            }
        }
    }

    #[test]
    fn sfc_partitions_are_balanced() {
        let ps = gen::clustered(1200, 4, 9, 1.0, 1.0);
        let d = decompose(ps.clone(), &config(DecompType::Sfc, TreeType::Octree));
        let mut counts = vec![0usize; d.n_partitions];
        for s in &d.subtrees {
            for p in &s.particles {
                counts[d.partitioner.assign(p) as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 1200);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // SFC slices are uniform in count up to key ties.
        assert!(max - min <= 1200 / 6 / 2, "counts {counts:?}");
    }

    #[test]
    fn oct_partitions_follow_space_not_count() {
        // A clustered set under Oct decomposition yields imbalanced
        // partitions — that is the Fig. 13 effect the paper describes.
        let ps = gen::clustered(1200, 2, 5, 1.0, 1.0);
        let d = decompose(ps, &config(DecompType::Oct, TreeType::Octree));
        let mut counts = vec![0usize; d.n_partitions];
        for s in &d.subtrees {
            for p in &s.particles {
                counts[d.partitioner.assign(p) as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 1200);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 2 * (min + 1), "expected imbalance, got {counts:?}");
    }

    #[test]
    fn kd_partitions_are_balanced_even_when_clustered() {
        let ps = gen::clustered(1024, 3, 7, 1.0, 1.0);
        let d = decompose(ps, &config(DecompType::Kd, TreeType::KdTree));
        let mut counts = vec![0usize; d.n_partitions];
        for s in &d.subtrees {
            for p in &s.particles {
                counts[d.partitioner.assign(p) as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1024 / 6, "counts {counts:?}");
    }

    #[test]
    fn partition_ids_are_dense() {
        for decomp in [DecompType::Sfc, DecompType::Oct, DecompType::Kd, DecompType::LongestDim] {
            let ps = gen::uniform_cube(600, 11, 1.0, 1.0);
            let d = decompose(ps, &config(decomp, TreeType::Octree));
            let mut seen = vec![false; d.n_partitions];
            for s in &d.subtrees {
                for p in &s.particles {
                    let id = d.partitioner.assign(p) as usize;
                    assert!(id < d.n_partitions, "{decomp:?}: id {id}");
                    seen[id] = true;
                }
            }
            let used = seen.iter().filter(|&&b| b).count();
            assert!(used >= d.n_partitions / 2, "{decomp:?}: only {used} partitions used");
        }
    }

    #[test]
    fn empty_input_decomposes() {
        let d = decompose(vec![], &config(DecompType::Sfc, TreeType::Octree));
        assert_eq!(d.subtrees.len(), 1);
        assert!(d.subtrees[0].particles.is_empty());
    }

    #[test]
    fn single_particle_decomposes() {
        let ps = gen::uniform_cube(1, 1, 1.0, 1.0);
        let d = decompose(ps, &config(DecompType::Kd, TreeType::KdTree));
        assert_eq!(total_subtree_particles(&d), 1);
    }

    #[test]
    fn disk_longest_dim_slices_the_plane() {
        // A thin disk decomposed by LongestDim should never split along z.
        let ps = gen::keplerian_disk(800, 3, gen::DiskParams::default());
        let d = decompose(ps, &config(DecompType::LongestDim, TreeType::LongestDim));
        if let Partitioner::Planes { nodes } = &d.partitioner {
            assert!(!nodes.is_empty());
            for n in nodes {
                assert_ne!(n.axis, Axis::Z, "disk should split in-plane");
            }
        } else {
            panic!("longest-dim uses planes");
        }
    }

    /// The decomposition as this module ran it before pieces became
    /// ranges — a stable sort of the records, pieces carved by a
    /// `split_off` chain, partitioners over a clone of the array — kept
    /// as the reference the range version must reproduce exactly.
    mod reference {
        use super::super::*;

        /// Splits `piece` by `tree_type`'s rule, returning the child pieces
        /// (empty octants are skipped). The piece's particles are consumed.
        fn split_piece(mut piece: SubtreePiece, tree_type: TreeType) -> Vec<SubtreePiece> {
            let bits = tree_type.bits_per_level();
            match tree_type {
                TreeType::Octree => {
                    let bbox = piece.bbox;
                    piece.particles.sort_unstable_by_key(|p| bbox.octant_of(p.pos));
                    let mut out = Vec::new();
                    let mut rest = piece.particles;
                    while !rest.is_empty() {
                        let oct = bbox.octant_of(rest[0].pos);
                        let split_at =
                            rest.iter().take_while(|p| bbox.octant_of(p.pos) == oct).count();
                        let tail = rest.split_off(split_at);
                        out.push(SubtreePiece {
                            key: piece.key.child(oct, bits),
                            bbox: bbox.octant(oct),
                            depth: piece.depth + 1,
                            particles: rest,
                        });
                        rest = tail;
                    }
                    out
                }
                TreeType::BinaryOct => {
                    let axis = tree_type.cycling_axis(piece.depth).expect("binary oct cycles axes");
                    let plane = piece.bbox.center().component(axis.index());
                    piece.particles.sort_unstable_by(|a, b| {
                        a.pos
                            .component(axis.index())
                            .partial_cmp(&b.pos.component(axis.index()))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let mid =
                        piece.particles.partition_point(|p| p.pos.component(axis.index()) < plane);
                    let hi_particles = piece.particles.split_off(mid);
                    let (lo_box, hi_box) = piece.bbox.split_at(axis, plane);
                    let mut out = Vec::new();
                    if !piece.particles.is_empty() {
                        out.push(SubtreePiece {
                            key: piece.key.child(0, bits),
                            bbox: lo_box,
                            depth: piece.depth + 1,
                            particles: piece.particles,
                        });
                    }
                    if !hi_particles.is_empty() {
                        out.push(SubtreePiece {
                            key: piece.key.child(1, bits),
                            bbox: hi_box,
                            depth: piece.depth + 1,
                            particles: hi_particles,
                        });
                    }
                    out
                }
                TreeType::KdTree | TreeType::LongestDim => {
                    let axis = match tree_type.cycling_axis(piece.depth) {
                        Some(a) => a,
                        None => piece.bbox.longest_axis(),
                    };
                    let mid = piece.particles.len() / 2;
                    piece.particles.select_nth_unstable_by(mid, |a, b| {
                        a.pos
                            .component(axis.index())
                            .partial_cmp(&b.pos.component(axis.index()))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let plane = piece.particles[mid].pos.component(axis.index());
                    let hi_particles = piece.particles.split_off(mid);
                    let (lo_box, hi_box) = piece.bbox.split_at(axis, plane);
                    vec![
                        SubtreePiece {
                            key: piece.key.child(0, bits),
                            bbox: lo_box,
                            depth: piece.depth + 1,
                            particles: piece.particles,
                        },
                        SubtreePiece {
                            key: piece.key.child(1, bits),
                            bbox: hi_box,
                            depth: piece.depth + 1,
                            particles: hi_particles,
                        },
                    ]
                }
            }
        }

        /// Splits the particle set into at least `min_pieces` Subtree pieces by
        /// repeatedly splitting the most populated piece with the tree rule.
        fn find_subtree_pieces(
            particles: Vec<Particle>,
            universe: BoundingBox,
            tree_type: TreeType,
            min_pieces: usize,
            bucket_size: usize,
        ) -> Vec<SubtreePiece> {
            let mut pieces =
                vec![SubtreePiece { key: ROOT_KEY, bbox: universe, depth: 0, particles }];
            while pieces.len() < min_pieces {
                // Split the most populated piece; stop if nothing is splittable.
                let (idx, _) = match pieces
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.particles.len() > bucket_size.max(1))
                    .max_by_key(|(_, p)| p.particles.len())
                {
                    Some((i, p)) => (i, p.particles.len()),
                    None => break,
                };
                let piece = pieces.swap_remove(idx);
                let kids = split_piece(piece, tree_type);
                pieces.extend(kids);
            }
            // Deterministic order: by key (pieces form an antichain, so Morton
            // floors are disjoint and ordered).
            pieces.sort_by_key(|p| (p.depth, p.key.raw()));
            pieces
        }

        fn oct_partitioner(
            sorted: &[Particle],
            universe: BoundingBox,
            n_partitions: usize,
            bucket_size: usize,
        ) -> (Partitioner, usize) {
            let pieces = find_subtree_pieces(
                sorted.to_vec(),
                universe,
                TreeType::Octree,
                n_partitions,
                bucket_size,
            );
            let mut floors: Vec<MortonKey> =
                pieces.iter().map(|p| p.key.morton_range(21).0).collect();
            floors.sort_unstable();
            let count = floors.len();
            let splitters = floors.split_off(1);
            (Partitioner::KeyRanges { splitters }, count)
        }

        /// Recursively builds a plane-based partitioner over `parts` partitions,
        /// splitting particle counts proportionally. Returns the child handle
        /// for this range and appends plane nodes to `nodes`.
        fn build_planes(
            particles: &mut [Particle],
            bbox: BoundingBox,
            depth: u32,
            parts: u32,
            next_part: &mut u32,
            nodes: &mut Vec<PlaneNode>,
            tree_type: TreeType,
        ) -> PlaneChild {
            if parts <= 1 {
                let id = *next_part;
                *next_part += 1;
                return PlaneChild::Part(id);
            }
            let axis = match tree_type.cycling_axis(depth) {
                Some(a) => a,
                None => bbox.longest_axis(),
            };
            let lo_parts = parts / 2;
            let mid = particles.len() * lo_parts as usize / parts as usize;
            let plane = if particles.is_empty() {
                // Degenerate range: split space at the box centre so the plane
                // tree stays well-formed and partition ids stay dense.
                bbox.center().component(axis.index())
            } else {
                let sel = mid.min(particles.len() - 1);
                particles.select_nth_unstable_by(sel, |a, b| {
                    a.pos
                        .component(axis.index())
                        .partial_cmp(&b.pos.component(axis.index()))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                particles[sel].pos.component(axis.index())
            };
            let (lo_box, hi_box) = bbox.split_at(axis, plane);
            let my_index = nodes.len() as u32;
            nodes.push(PlaneNode {
                axis,
                plane,
                lo: PlaneChild::Part(u32::MAX),
                hi: PlaneChild::Part(u32::MAX),
            });
            let (lo_slice, hi_slice) = particles.split_at_mut(mid);
            let lo =
                build_planes(lo_slice, lo_box, depth + 1, lo_parts, next_part, nodes, tree_type);
            let hi = build_planes(
                hi_slice,
                hi_box,
                depth + 1,
                parts - lo_parts,
                next_part,
                nodes,
                tree_type,
            );
            nodes[my_index as usize].lo = lo;
            nodes[my_index as usize].hi = hi;
            PlaneChild::Node(my_index)
        }

        pub fn decompose_within(
            mut particles: Vec<Particle>,
            config: &Configuration,
            universe: BoundingBox,
        ) -> Decomposition {
            let hilbert = config.sfc == SfcCurve::Hilbert && config.decomp_type == DecompType::Sfc;
            if hilbert {
                for p in particles.iter_mut() {
                    p.key = paratreet_geometry::hilbert_key(p.pos, &universe);
                }
            } else {
                particles.assign_keys(&universe);
            }
            particles.sort_by(|a, b| a.key.cmp(&b.key).then(a.id.cmp(&b.id)));
            let (partitioner, n_partitions) = match config.decomp_type {
                DecompType::Sfc => {
                    (sfc_partitioner(&particles, config.n_partitions), config.n_partitions)
                }
                DecompType::Oct => {
                    oct_partitioner(&particles, universe, config.n_partitions, config.bucket_size)
                }
                DecompType::Kd | DecompType::LongestDim => {
                    let rule = if config.decomp_type == DecompType::Kd {
                        TreeType::KdTree
                    } else {
                        TreeType::LongestDim
                    };
                    let mut nodes = Vec::new();
                    let mut next = 0u32;
                    let mut scratch = particles.clone();
                    let parts = config.n_partitions as u32;
                    build_planes(&mut scratch, universe, 0, parts, &mut next, &mut nodes, rule);
                    (Partitioner::Planes { nodes }, next as usize)
                }
            };
            let mut subtrees = find_subtree_pieces(
                particles,
                universe,
                config.tree_type,
                config.n_subtrees,
                config.bucket_size,
            );
            if hilbert {
                subtrees
                    .sort_by_key(|p| paratreet_geometry::hilbert_key(p.bbox.center(), &universe));
            }
            Decomposition { universe, subtrees, partitioner, n_partitions }
        }
    }

    #[test]
    fn range_pieces_match_the_split_off_reference() {
        // Sixteen sites, twenty particles on each, ids against the grain:
        // every key ties twenty ways and only the id orders a site.
        let coincident: Vec<Particle> = (0..320u64)
            .map(|i| {
                let site = gen::uniform_cube(16, 5, 1.0, 1.0)[(i % 16) as usize].pos;
                Particle::point_mass(319 - i, 1.0, site)
            })
            .collect();
        let unsorted = gen::clustered(3000, 4, 23, 1.0, 1.0);
        let sorted = |config: &Configuration| {
            let mut ps = unsorted.clone();
            let universe = universe_for(&ps, config, 0.0);
            ps.assign_keys(&universe);
            ps.sort_by_sfc_key();
            ps
        };
        for tree_type in
            [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct]
        {
            for decomp_type in
                [DecompType::Sfc, DecompType::Oct, DecompType::Kd, DecompType::LongestDim]
            {
                let config = config(decomp_type, tree_type);
                // What a step after the first feeds in: last step's order,
                // a few particles moved since.
                let mut nearly = sorted(&config);
                for p in nearly.iter_mut().step_by(97) {
                    p.pos *= 0.93;
                }
                let inputs = [
                    ("unsorted", unsorted.clone()),
                    ("sorted", sorted(&config)),
                    ("nearly sorted", nearly),
                    ("coincident", coincident.clone()),
                    ("one bucket", unsorted[..config.bucket_size].to_vec()),
                    ("empty", Vec::new()),
                ];
                for (name, input) in inputs {
                    let what = format!("{tree_type:?} x {decomp_type:?}, {name}");
                    let universe = universe_for(&input, &config, 0.0);
                    let want = reference::decompose_within(input.clone(), &config, universe);
                    let have = decompose_within(input, &config, universe);
                    assert_eq!(have.n_partitions, want.n_partitions, "{what}");
                    assert_eq!(
                        format!("{:?}", have.partitioner),
                        format!("{:?}", want.partitioner),
                        "{what}"
                    );
                    assert_eq!(have.subtrees.len(), want.subtrees.len(), "{what}");
                    for (a, b) in have.subtrees.iter().zip(&want.subtrees) {
                        assert_eq!((a.key, a.depth), (b.key, b.depth), "{what}");
                        // Bits: the empty set's universe is NaN on both sides.
                        let bits = |b: &BoundingBox| {
                            [b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z].map(f64::to_bits)
                        };
                        assert_eq!(bits(&a.bbox), bits(&b.bbox), "{what}");
                        assert_eq!(a.particles, b.particles, "{what}");
                        assert_eq!(a.particles.capacity(), a.particles.len(), "{what}");
                    }
                }
            }
        }
    }
}
