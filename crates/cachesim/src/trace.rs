//! Gravity-traversal access-trace replay (the Table II experiment).
//!
//! Replays the memory-access stream of a Barnes-Hut traversal over the
//! *real* tree with the *real* opening decisions, in either the
//! transposed (ParaTreeT) or per-bucket (ChaNGa) order, against the
//! simulated hierarchy. CPU streams are interleaved round-robin, one
//! work item per turn, so the shared L3 sees concurrent footprints.
//!
//! Address layout (synthetic but shape-faithful):
//!
//! * tree nodes — an array of `node_bytes` records (ParaTreeT's compact
//!   `Data` vs ChaNGa's larger per-node state is exactly this knob),
//! * source particles — the bucket-ordered particle array,
//! * target copies — the partition-owned writable copies,
//! * bucket metadata — per-bucket bounding boxes read by `open()`.

use crate::hierarchy::{CacheHierarchy, HierarchyConfig, LevelStats};
use paratreet_apps::gravity::{CentroidData, NodeMoments};
use paratreet_particles::{Particle, ParticleVec};
use paratreet_tree::{BuiltTree, NodeIdx, TreeBuilder, TreeType};

/// Which traversal order to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceStyle {
    /// ParaTreeT: bucket-per-node (loop transposition).
    Transposed,
    /// ChaNGa: tree walk per bucket.
    PerBucket,
}

/// Replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Traversal order.
    pub style: TraceStyle,
    /// Bytes of per-node state streamed on every node visit.
    pub node_bytes: u64,
    /// Opening angle.
    pub theta: f64,
    /// Leaf bucket size.
    pub bucket_size: usize,
    /// Particles per Partition. The paper's overdecomposition sizes
    /// partitions so "the set of buckets in a Partition fits in the L2
    /// cache"; the transposed traversal processes one partition at a
    /// time, sweeping only that partition's targets per node.
    pub partition_particles: usize,
    /// CPUs sharing the L3.
    pub cpus: usize,
    /// Hierarchy geometry/timing.
    pub hierarchy: HierarchyConfig,
    /// Arithmetic cycles per particle–particle interaction (sqrt + MADs;
    /// memory stalls are modelled separately by the hierarchy).
    pub compute_pp: f64,
    /// Arithmetic cycles per particle–node (multipole) interaction.
    pub compute_pn: f64,
    /// Arithmetic cycles per `open()` test.
    pub compute_open: f64,
    /// Arithmetic cycles of per-node-visit overhead (dispatch, stack).
    pub compute_visit: f64,
    /// Model interaction-list traffic: ChaNGa-style walks append every
    /// accepted node / source particle to a per-bucket check list and
    /// the kernel re-reads it (extra stores + loads per interaction).
    pub list_traffic: bool,
}

impl TraceConfig {
    /// ParaTreeT's configuration: transposed order, compact `Data`
    /// (CentroidData ≈ 128 B + node header).
    pub fn paratreet(cpus: usize) -> TraceConfig {
        TraceConfig {
            style: TraceStyle::Transposed,
            node_bytes: 160,
            theta: 0.7,
            bucket_size: 16,
            partition_particles: 4096,
            cpus,
            hierarchy: HierarchyConfig::default(),
            compute_pp: 28.0,
            compute_pn: 40.0,
            compute_open: 12.0,
            compute_visit: 20.0,
            list_traffic: false,
        }
    }

    /// ChaNGa's configuration: per-bucket walks and the larger per-node
    /// working set the paper credits for most of the difference.
    pub fn changa(cpus: usize) -> TraceConfig {
        TraceConfig {
            style: TraceStyle::PerBucket,
            node_bytes: 320,
            compute_visit: 45.0, // virtual-dispatch walk, check-list upkeep
            list_traffic: true,
            ..TraceConfig::paratreet(cpus)
        }
    }
}

/// One Table II-style row.
#[derive(Clone, Copy, Debug)]
pub struct TraceResult {
    /// Estimated data-access runtime in seconds.
    pub runtime: f64,
    /// Aggregated L1D counters.
    pub l1: LevelStats,
    /// Aggregated L2 counters.
    pub l2: LevelStats,
    /// Shared L3 counters.
    pub l3: LevelStats,
    /// Exact particle–particle interactions replayed (identical across
    /// styles — the work is the same, only the order differs).
    pub pp_interactions: u64,
    /// Exact particle–node interactions replayed.
    pub pn_interactions: u64,
    /// Tree-node visits (work items processed) — the quantity the loop
    /// transposition amortises.
    pub node_visits: u64,
}

/// Synthetic address regions, far enough apart never to alias.
const NODE_BASE: u64 = 0x1_0000_0000;
const SRC_BASE: u64 = 0x2_0000_0000;
const TGT_BASE: u64 = 0x3_0000_0000;
const META_BASE: u64 = 0x4_0000_0000;
/// Bytes per particle record in the arrays.
const PARTICLE_BYTES: u64 = 152;
/// Bytes the gravity kernel reads per source particle (position + mass).
const SRC_READ: u64 = 32;
/// Bytes read from a target per interaction (position).
const TGT_READ: u64 = 24;
/// Bytes written to a target per node/leaf evaluation (acceleration).
const TGT_WRITE: u64 = 24;
/// Bytes of bucket metadata read per `open()` test.
const META_READ: u64 = 48;
/// Per-CPU stack/scratch region (traversal bookkeeping).
const STACK_BASE: u64 = 0x5_0000_0000;
/// Per-CPU interaction-list region (ChaNGa-style check lists).
const LIST_BASE: u64 = 0x6_0000_0000;
/// Bytes per interaction-list entry (pointer + flags).
const LIST_BYTES: u64 = 16;
/// Bytes of stack traffic per work-item push/pop.
const STACK_BYTES: u64 = 16;

struct Bucket {
    start: u64,
    len: u64,
}

/// Per-CPU traversal state: the current partition's work stack plus the
/// queue of partitions (transposed) or buckets (per-bucket) remaining.
struct CpuState {
    stack: Vec<(NodeIdx, Vec<u32>)>,
    /// Work units not yet started: partitions (bucket-id groups) for the
    /// transposed style, single buckets for the per-bucket style.
    queue: Vec<Vec<u32>>,
}

/// Replays the traversal and returns the Table II row.
pub fn simulate_gravity(particles: Vec<Particle>, cfg: TraceConfig) -> TraceResult {
    let bbox = particles.bounding_box().padded(1e-9).bounding_cube();
    let tree: BuiltTree<CentroidData> =
        TreeBuilder::new(TreeType::Octree).bucket_size(cfg.bucket_size).build(particles, bbox);

    // Buckets = leaves, with their particle ranges.
    let buckets: Vec<Bucket> = tree
        .leaf_indices()
        .into_iter()
        .map(|li| {
            let r = tree.node(li).bucket_range().expect("leaf");
            Bucket { start: r.start as u64, len: (r.end - r.start) as u64 }
        })
        .collect();
    let bucket_boxes: Vec<paratreet_geometry::BoundingBox> = buckets
        .iter()
        .map(|b| {
            paratreet_geometry::BoundingBox::around(
                tree.particles[b.start as usize..(b.start + b.len) as usize].iter().map(|p| p.pos),
            )
        })
        .collect();

    // Contiguous blocks of buckets per CPU, cut into partitions of
    // ~partition_particles each (the overdecomposition granularity).
    let cpus = cfg.cpus.max(1);
    let mut states: Vec<CpuState> = Vec::with_capacity(cpus);
    for c in 0..cpus {
        let lo = c * buckets.len() / cpus;
        let hi = (c + 1) * buckets.len() / cpus;
        let mut queue: Vec<Vec<u32>> = Vec::new();
        match cfg.style {
            TraceStyle::Transposed => {
                let mut current: Vec<u32> = Vec::new();
                let mut current_particles = 0u64;
                for b in lo as u32..hi as u32 {
                    current_particles += buckets[b as usize].len;
                    current.push(b);
                    if current_particles >= cfg.partition_particles as u64 {
                        queue.push(std::mem::take(&mut current));
                        current_particles = 0;
                    }
                }
                if !current.is_empty() {
                    queue.push(current);
                }
            }
            TraceStyle::PerBucket => {
                queue.extend((lo as u32..hi as u32).map(|b| vec![b]));
            }
        }
        queue.reverse(); // pop from the front in original order
        states.push(CpuState { stack: vec![], queue });
    }

    let mut hier = CacheHierarchy::new(cpus, cfg.hierarchy);
    let mut pp = 0u64;
    let mut pn = 0u64;
    let mut visits = 0u64;
    let mut list_pos: Vec<u64> = vec![0; cpus];
    // Appends one check-list entry and charges the kernel's later read.
    let list_touch = |hier: &mut CacheHierarchy, list_pos: &mut Vec<u64>, cpu: usize| {
        let addr = LIST_BASE + cpu as u64 * 0x100_0000 + (list_pos[cpu] % 0x80_0000);
        list_pos[cpu] += LIST_BYTES;
        hier.access(cpu, addr, LIST_BYTES, true);
        hier.access(cpu, addr, LIST_BYTES, false);
    };

    // Round-robin: each live CPU processes one work item per turn.
    let mut live = cpus;
    while live > 0 {
        live = 0;
        for (cpu, st) in states.iter_mut().enumerate() {
            if st.stack.is_empty() {
                if let Some(unit) = st.queue.pop() {
                    st.stack.push((0, unit));
                }
            }
            let (node_idx, interested) = match st.stack.pop() {
                Some(x) => x,
                None => continue,
            };
            live += 1;

            // Visit: stream the node's state.
            hier.access(cpu, NODE_BASE + node_idx as u64 * cfg.node_bytes, cfg.node_bytes, false);
            hier.cycles[cpu] += cfg.compute_visit;
            visits += 1;
            let node = tree.node(node_idx);
            let moments = NodeMoments::of(&node.data, cfg.theta);
            let mut opened: Vec<u32> = Vec::new();
            for &b in &interested {
                // open(): read the bucket metadata.
                hier.access(cpu, META_BASE + b as u64 * 64, META_READ, false);
                let o = moments.opens(&bucket_boxes[b as usize]);
                hier.cycles[cpu] += cfg.compute_open;
                let bucket = &buckets[b as usize];
                if node.is_leaf() {
                    if o {
                        // leaf(): exact pairwise kernel. Each pair
                        // re-reads source components (position, then
                        // mass) and the target position — hot accesses
                        // that real counters see and mostly hit.
                        let leaf_range = node.bucket_range().expect("leaf");
                        for t in 0..bucket.len {
                            let taddr = TGT_BASE + (bucket.start + t) * PARTICLE_BYTES;
                            for s in leaf_range.clone() {
                                let saddr = SRC_BASE + s as u64 * PARTICLE_BYTES;
                                if cfg.list_traffic && t == 0 {
                                    // One check-list entry per source
                                    // particle per bucket.
                                    list_touch(&mut hier, &mut list_pos, cpu);
                                }
                                hier.access(cpu, saddr, SRC_READ, false);
                                hier.access(cpu, saddr + 8, 8, false); // mass reload
                                hier.access(cpu, taddr, TGT_READ, false);
                                hier.cycles[cpu] += cfg.compute_pp;
                                pp += 1;
                            }
                            hier.access(cpu, taddr + TGT_READ, TGT_WRITE, true);
                        }
                    } else {
                        // node() on a leaf summary.
                        if cfg.list_traffic {
                            list_touch(&mut hier, &mut list_pos, cpu);
                        }
                        for t in 0..bucket.len {
                            let taddr = TGT_BASE + (bucket.start + t) * PARTICLE_BYTES;
                            hier.access(cpu, taddr, TGT_READ, false);
                            hier.access(
                                cpu,
                                NODE_BASE + node_idx as u64 * cfg.node_bytes,
                                64,
                                false,
                            );
                            hier.access(cpu, taddr + TGT_READ, TGT_WRITE, true);
                            hier.cycles[cpu] += cfg.compute_pn;
                            pn += 1;
                        }
                    }
                } else if o {
                    opened.push(b);
                } else {
                    // node(): multipole approximation per target — the
                    // kernel re-reads the node's moments per target (hot)
                    // plus the target position, then writes acceleration.
                    if cfg.list_traffic {
                        list_touch(&mut hier, &mut list_pos, cpu);
                    }
                    for t in 0..bucket.len {
                        let taddr = TGT_BASE + (bucket.start + t) * PARTICLE_BYTES;
                        hier.access(cpu, taddr, TGT_READ, false);
                        hier.access(cpu, NODE_BASE + node_idx as u64 * cfg.node_bytes, 64, false);
                        hier.access(cpu, taddr + TGT_READ, TGT_WRITE, true);
                        hier.cycles[cpu] += cfg.compute_pn;
                        pn += 1;
                    }
                }
            }
            if !opened.is_empty() {
                for c in node.children.iter().rev() {
                    if *c != paratreet_tree::node::NO_NODE {
                        // Stack push: bookkeeping traffic per work item.
                        let depth = st.stack.len() as u64;
                        hier.access(
                            cpu,
                            STACK_BASE + cpu as u64 * 0x10000 + depth * STACK_BYTES,
                            STACK_BYTES,
                            true,
                        );
                        st.stack.push((*c, opened.clone()));
                    }
                }
            }
        }
    }

    TraceResult {
        runtime: hier.runtime_seconds(),
        l1: hier.l1_total(),
        l2: hier.l2_total(),
        l3: hier.l3_stats,
        pp_interactions: pp,
        pn_interactions: pn,
        node_visits: visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paratreet_particles::gen;

    fn particles(n: usize) -> Vec<Particle> {
        gen::uniform_cube(n, 5, 1.0, 1.0)
    }

    #[test]
    fn styles_do_identical_physical_work() {
        let a = simulate_gravity(particles(2000), TraceConfig::paratreet(1));
        let b = simulate_gravity(particles(2000), TraceConfig::changa(1));
        assert_eq!(a.pp_interactions, b.pp_interactions);
        assert_eq!(a.pn_interactions, b.pn_interactions);
    }

    #[test]
    fn transposed_makes_fewer_accesses() {
        // Table II: ParaTreeT has fewer L1D loads and stores, fewer node
        // visits by orders of magnitude, and lower estimated runtime.
        let a = simulate_gravity(particles(10_000), TraceConfig::paratreet(1));
        let b = simulate_gravity(particles(10_000), TraceConfig::changa(1));
        assert!(
            a.l1.load_accesses < b.l1.load_accesses,
            "ParaTreeT {} vs ChaNGa {}",
            a.l1.load_accesses,
            b.l1.load_accesses
        );
        assert!(a.l1.store_accesses < b.l1.store_accesses);
        assert!(a.node_visits * 10 < b.node_visits);
        assert!(a.runtime < b.runtime, "{} vs {}", a.runtime, b.runtime);
    }

    #[test]
    fn more_cpus_shorten_runtime() {
        let one = simulate_gravity(particles(4000), TraceConfig::paratreet(1));
        let four = simulate_gravity(particles(4000), TraceConfig::paratreet(4));
        assert!(four.runtime < one.runtime * 0.5, "{} vs {}", four.runtime, one.runtime);
        // Same work regardless of CPU count.
        assert_eq!(one.pp_interactions, four.pp_interactions);
    }

    #[test]
    fn deterministic() {
        let a = simulate_gravity(particles(1000), TraceConfig::paratreet(2));
        let b = simulate_gravity(particles(1000), TraceConfig::paratreet(2));
        assert_eq!(a.l1.load_accesses, b.l1.load_accesses);
        assert_eq!(a.runtime, b.runtime);
    }
}
