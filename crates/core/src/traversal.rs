//! Traversal engines: the work-item machinery shared by the
//! shared-memory and distributed executors.
//!
//! ParaTreeT's traversal is *transposed* relative to a textbook
//! Barnes-Hut walk: "instead of traversing the tree for each bucket, it
//! processes each bucket for each tree node" (§III-A). A work item is
//! therefore a tree node plus the list of target buckets still
//! interested in it; processing an item evaluates `open` per bucket and
//! forwards the still-interested subset to the node's children. The
//! classic walk ("BasicTrav" in Fig. 10) is the same machine seeded with
//! one single-bucket item per target bucket. The up-and-down walk is
//! seeded per *sibling group* — the buckets whose leaves share a parent
//! — so its items, too, carry several buckets, while each bucket still
//! meets its own leaf first and farther subtrees later.
//!
//! `open` is evaluated bucket by bucket, but `node` and `leaf` are not
//! applied bucket by bucket: the buckets that do not open a node are
//! neighbours in SFC order, so an item's ascending bucket list is walked
//! as *runs* — adjacent buckets with the same outcome — and each run is
//! handed to the visitor as one [`TargetSpan`](crate::visitor::TargetSpan).
//! An item meets each interested bucket exactly once and a run never
//! crosses items, so every bucket sees the calls it always saw, in the
//! order it always saw them.
//!
//! Bucket lists are not owned by their items: an item holds a
//! [`BucketRange`] into its partition's [`WorkStack`] scratch, the
//! children of a node all share the one range their parent's `open`s
//! wrote, and the scratch is itself a stack that shrinks as items pop —
//! processing an item allocates nothing.
//!
//! When an item reaches a [`NodeKind::Placeholder`], the interested
//! buckets cannot proceed; the item is surrendered as a
//! [`PendingFetch`] and the executor decides what to do — the
//! shared-memory engine treats it as a bug (everything is local), the
//! distributed engine turns it into a cache request.

use crate::config::TraversalKind;
use crate::pipeline::Targets;
use crate::visitor::{SpatialNodeView, TargetBucket, Visitor};
use paratreet_cache::{CacheNode, CacheTree, NodeHandle, NodeKind};
use paratreet_geometry::NodeKey;
use paratreet_telemetry::{MetricSource, MetricsRegistry};
use std::ops::{AddAssign, ControlFlow, Range};

/// A (source, target) node pair on the dual-tree work stack.
type NodePair<D> = (NodeHandle<D>, NodeHandle<D>);

/// Which software-cache model a distributed run uses (Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheModel {
    /// ParaTreeT's wait-free shared cache: parallel reads and writes,
    /// placeholder swap by atomic store.
    WaitFree,
    /// Exclusive-write shared cache: one lock per rank serialises every
    /// insertion (deserialisation included).
    XWrite,
    /// Per-thread caches ("Sequential" in Fig. 3): no sharing, so each
    /// worker fetches its own copy of remote data — more communication
    /// volume and memory, no insertion contention.
    PerThread,
}

impl CacheModel {
    /// Harness-output name matching the figure legend.
    pub fn name(self) -> &'static str {
        match self {
            CacheModel::WaitFree => "WaitFree",
            CacheModel::XWrite => "XWrite",
            CacheModel::PerThread => "Sequential",
        }
    }
}

/// Interaction counters for one traversal. These are exact algorithmic
/// quantities, and double as the cost basis for the virtual-time machine
/// model. They are identical across executors for visitors whose `open`
/// reads no bucket state (gravity, collision); a state-dependent `open`
/// (k-NN's heap bound) tightens in whatever order the executor's pauses
/// leave, so its counts depend on the schedule. The message engines
/// re-open a resumed placeholder: the item that hit it and the item
/// that resumes at the fetched node both count toward `nodes_visited`
/// and `opens`, so those two exceed the shared-memory engine's there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Work items processed: one per (node, group of buckets) the walk
    /// meets. A top-down item carries every bucket still interested in
    /// the node and an up-and-down item a sibling group, so this is not
    /// the number of `open`s, nor the same across schedules.
    pub nodes_visited: u64,
    /// `open()` evaluations.
    pub opens: u64,
    /// Particle–node approximations applied (`node()` per target particle).
    pub node_interactions: u64,
    /// Particle–particle exact interactions (`leaf()` pairs).
    pub leaf_interactions: u64,
}

impl AddAssign for WorkCounts {
    fn add_assign(&mut self, o: WorkCounts) {
        self.nodes_visited += o.nodes_visited;
        self.opens += o.opens;
        self.node_interactions += o.node_interactions;
        self.leaf_interactions += o.leaf_interactions;
    }
}

/// Per-traversal statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraversalStats {
    /// Interaction counters.
    pub counts: WorkCounts,
    /// Placeholder hits that required a fetch.
    pub fetches: u64,
}

impl MetricSource for WorkCounts {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.nodes_visited"), self.nodes_visited);
        registry.set_u64(format!("{prefix}.opens"), self.opens);
        registry.set_u64(format!("{prefix}.node_interactions"), self.node_interactions);
        registry.set_u64(format!("{prefix}.leaf_interactions"), self.leaf_interactions);
    }
}

impl MetricSource for TraversalStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        self.counts.register_metrics(prefix, registry);
        registry.set_u64(format!("{prefix}.fetches"), self.fetches);
    }
}

/// A run of bucket indices in a [`WorkStack`]'s scratch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketRange {
    start: u32,
    len: u32,
}

impl BucketRange {
    fn new(start: usize, len: usize) -> BucketRange {
        let fits = |x: usize| u32::try_from(x).expect("scratch offsets fit in u32");
        BucketRange { start: fits(start), len: fits(len) }
    }

    fn span(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// A tree node plus the target buckets still interested in it.
#[derive(Clone, Copy, Debug)]
pub struct WorkItem<D> {
    /// The node to evaluate.
    pub node: NodeHandle<D>,
    /// Indices into the partition's bucket array, held in the scratch of
    /// the [`WorkStack`] the item was popped from.
    pub buckets: BucketRange,
}

/// A work item that hit a placeholder: the executor must fetch `key`
/// and re-enqueue the buckets when the fill lands.
#[derive(Clone, Copy, Debug)]
pub struct PendingFetch<D> {
    /// Key of the remote node.
    pub key: NodeKey,
    /// The placeholder node (carries `home_rank` and the request flag).
    pub node: NodeHandle<D>,
    /// Buckets that opened the placeholder. The range is readable only
    /// until the stack's next [`WorkStack::pop`] reclaims it: an
    /// executor that parks the fetch copies it out first
    /// ([`WorkStack::buckets`]) and [`WorkStack::push`]es the copy back
    /// on resume.
    pub buckets: BucketRange,
}

/// One partition's LIFO work list and the scratch its items' bucket
/// ranges live in.
///
/// Invariant: from the bottom of the stack to the top, range ends never
/// decrease, and no range reaches past the end of the scratch. Children
/// are pushed with a range written above their parent's, resumed items
/// with a fresh range at the very top, so popping an item may cut the
/// scratch back to that item's range end: whatever lies above belonged
/// to descendants of siblings popped earlier, all of them finished.
#[derive(Debug)]
pub struct WorkStack<D> {
    items: Vec<WorkItem<D>>,
    scratch: Vec<u32>,
}

impl<D> Default for WorkStack<D> {
    fn default() -> Self {
        WorkStack { items: Vec::new(), scratch: Vec::new() }
    }
}

impl<D> WorkStack<D> {
    /// An empty stack.
    pub fn new() -> WorkStack<D> {
        WorkStack::default()
    }

    /// Pushes an item that owns a fresh copy of `buckets` (a resumed
    /// fetch: its old range is long reclaimed).
    pub fn push(&mut self, node: NodeHandle<D>, buckets: &[u32]) {
        let range = self.append(buckets.iter().copied());
        self.items.push(WorkItem { node, buckets: range });
    }

    /// Writes `buckets` at the top of the scratch as a fresh range.
    fn append(&mut self, buckets: impl IntoIterator<Item = u32>) -> BucketRange {
        let start = self.scratch.len();
        self.scratch.extend(buckets);
        BucketRange::new(start, self.scratch.len() - start)
    }

    /// Pops the top item and reclaims the scratch above its range.
    pub fn pop(&mut self) -> Option<WorkItem<D>> {
        let item = self.items.pop()?;
        self.scratch.truncate(item.buckets.span().end);
        Some(item)
    }

    /// The bucket indices of `range`.
    pub fn buckets(&self, range: BucketRange) -> &[u32] {
        &self.scratch[range.span()]
    }

    /// True when no item is left.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items waiting on the stack.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Bucket indices currently held in the scratch.
    pub fn scratch_len(&self) -> usize {
        self.scratch.len()
    }
}

/// One Partition's targets as visitor `V` sees them.
pub type TargetsOf<V> = Targets<<V as Visitor>::State, <V as Visitor>::PerTarget>;

/// How a traversal applies the outcomes `open` decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apply {
    /// Not at all: identical `open` decisions, counters, children and
    /// fetches, but no `node()`/`leaf()` call. The distributed engine
    /// simulates in this mode — the timeline drives fetches and costs,
    /// and physics is applied afterwards by a canonical local replay
    /// over the fully-fetched cache, so a crash can never double-apply
    /// an interaction. Only valid for traversals whose `open` ignores
    /// bucket state (gravity, collision); state-dependent walks (k-NN)
    /// must apply as they go.
    Dry,
    /// One `node()`/`leaf()` call per run of adjacent buckets.
    Runs,
    /// One call per bucket — the reference the coalescing test holds
    /// [`Apply::Runs`] against.
    #[cfg(test)]
    PerBucket,
}

/// Applies one source node's outcomes run by run: holds the run of
/// adjacent buckets that took the node the same way (all as a leaf, or
/// all as a pruned node) and have not been applied yet.
struct Runs<'a, V: Visitor> {
    visitor: &'a V,
    source: &'a SpatialNodeView<'a, V::Data>,
    prepared: &'a V::Prepared,
    mode: Apply,
    run: Range<usize>,
    leaf: bool,
}

impl<'a, V: Visitor> Runs<'a, V> {
    fn new(
        visitor: &'a V,
        source: &'a SpatialNodeView<'a, V::Data>,
        prepared: &'a V::Prepared,
        mode: Apply,
    ) -> Runs<'a, V> {
        Runs { visitor, source, prepared, mode, run: 0..0, leaf: false }
    }

    /// Bucket `b` takes the node as a leaf (`leaf`) or pruned: extends
    /// the run if `b` continues it, else applies the run and starts the
    /// next at `b`.
    #[inline]
    fn push(&mut self, targets: &mut TargetsOf<V>, b: usize, leaf: bool) {
        if self.mode == Apply::Dry {
            return;
        }
        if self.mode == Apply::Runs && b == self.run.end && leaf == self.leaf {
            self.run.end += 1;
        } else {
            self.flush(targets);
            (self.run, self.leaf) = (b..b + 1, leaf);
        }
    }

    /// Applies the run, if any.
    #[inline]
    fn flush(&mut self, targets: &mut TargetsOf<V>) {
        let run = std::mem::replace(&mut self.run, 0..0);
        if run.is_empty() {
            return;
        }
        let mut span = targets.span(run);
        if self.leaf {
            self.visitor.leaf(self.source, self.prepared, &mut span);
        } else {
            self.visitor.node(self.source, self.prepared, &mut span);
        }
    }
}

/// Evaluates one work item: `open` per interested bucket, `node`/`leaf`
/// per run of them as `apply` says, pushing child items onto `stack` (in
/// reverse slot order, so the LIFO stack pops slot 0 first) and
/// surrendering placeholder hits to `fetches`. `item` must be the item
/// just popped from `stack`.
#[allow(clippy::too_many_arguments)]
pub fn process_item<V: Visitor>(
    cache: &CacheTree<V::Data>,
    visitor: &V,
    apply: Apply,
    targets: &mut TargetsOf<V>,
    item: WorkItem<V::Data>,
    stack: &mut WorkStack<V::Data>,
    fetches: &mut Vec<PendingFetch<V::Data>>,
    counts: &mut WorkCounts,
) {
    let node = cache.node(item.node);
    counts.nodes_visited += 1;
    if node.kind == NodeKind::Empty {
        return;
    }
    let view = SpatialNodeView::of(cache, node);
    let prepared = visitor.prepare(&view);
    let mut runs = Runs::new(visitor, &view, &prepared, apply);
    if node.kind == NodeKind::Leaf {
        for &b in stack.buckets(item.buckets) {
            counts.opens += 1;
            let bucket = &targets.buckets()[b as usize];
            let leaf = visitor.open(&view, &prepared, bucket);
            if leaf {
                counts.leaf_interactions += (view.particles.len() * bucket.len()) as u64;
            } else {
                counts.node_interactions += bucket.len() as u64;
            }
            runs.push(targets, b as usize, leaf);
        }
        runs.flush(targets);
        return;
    }
    // Internal or placeholder: the buckets that open the node are
    // written above the item's own range, once, for all its children.
    let opened_start = stack.scratch.len();
    for i in item.buckets.span() {
        let b = stack.scratch[i];
        counts.opens += 1;
        let bucket = &targets.buckets()[b as usize];
        if visitor.open(&view, &prepared, bucket) {
            stack.scratch.push(b);
        } else {
            counts.node_interactions += bucket.len() as u64;
            runs.push(targets, b as usize, false);
        }
    }
    runs.flush(targets);
    let opened = BucketRange::new(opened_start, stack.scratch.len() - opened_start);
    if opened.len == 0 {
        return;
    }
    if node.kind == NodeKind::Placeholder {
        fetches.push(PendingFetch { key: node.key, node: item.node, buckets: opened });
    } else {
        // Reverse slot order: a LIFO stack then visits children
        // in ascending slot (depth-first, SFC) order.
        for i in (0..8).rev() {
            if let Some(c) = node.child(i) {
                stack.items.push(WorkItem { node: c, buckets: opened });
            }
        }
    }
}

/// Builds the initial work list for one partition's buckets. The
/// top-down and basic seeds index the identity `0..buckets.len()` (the
/// top-down seed all of it, every basic seed one entry); the up-and-down
/// seeds write their ranges in push order, one sibling group at a time.
pub fn seed_items<V: Visitor>(
    cache: &CacheTree<V::Data>,
    kind: TraversalKind,
    targets: &TargetsOf<V>,
) -> WorkStack<V::Data> {
    let mut stack = WorkStack::new();
    let buckets = targets.buckets();
    let Some(root) = cache.root() else { return stack };
    if buckets.is_empty() {
        return stack;
    }
    let root_item = |buckets| WorkItem { node: root.handle(), buckets };
    match kind {
        TraversalKind::TopDown => {
            let all = stack.append(0..buckets.len() as u32);
            stack.items.push(root_item(all));
        }
        TraversalKind::BasicDfs => {
            stack.append(0..buckets.len() as u32);
            stack.items.extend((0..buckets.len()).map(|b| root_item(BucketRange::new(b, 1))));
        }
        TraversalKind::UpAndDown => {
            let parent = |b: usize| buckets[b].leaf_key.parent(cache.bits);
            let mut start = 0;
            while start < buckets.len() {
                let p = parent(start);
                let end = (start..buckets.len()).find(|&b| parent(b) != p).unwrap_or(buckets.len());
                seed_sibling_group(cache, root, p, buckets, start..end, &mut stack);
                start = end;
            }
        }
        TraversalKind::DualTree => {
            panic!("dual-tree traversal runs on the shared-memory engine only (traverse_local)")
        }
    }
    stack
}

/// Runs a dual-tree traversal (Gray & Moore) over one partition's
/// buckets. The work unit is a *(source node, target node)* pair; the
/// visitor's `cell()` decides whether to open both sides (B² child
/// pairs) or only the source (B pairs), and a source pruned against an
/// internal target applies its summary to the partition's buckets below
/// that target run by run — one `node()` call where they are adjacent —
/// the bulk saving dual-tree methods offer.
///
/// Pruning against internal targets is conservative: `open()` is
/// consulted with an empty pseudo-bucket carrying the target node's
/// bounding box and default state.
fn traverse_dual<V: Visitor>(
    cache: &CacheTree<V::Data>,
    visitor: &V,
    apply: Apply,
    targets: &mut TargetsOf<V>,
) -> WorkCounts {
    let mut counts = WorkCounts::default();
    let root = match cache.root() {
        Some(r) => r.handle(),
        None => return counts,
    };
    if targets.buckets().is_empty() {
        return counts;
    }
    let bits = cache.bits;
    // Is bucket `b` of this partition beneath (or at) target node `key`?
    // Subtrees are not laid out in key order, so the buckets under a key
    // are runs of the bucket array, not one range of it: callers scan.
    let under = |key: NodeKey, b: &TargetBucket<V::State, V::PerTarget>| {
        key == b.leaf_key || key.is_ancestor_of(b.leaf_key, bits)
    };
    // Target nodes worth visiting: ancestors (and selves) of this
    // partition's bucket leaves. Everything else belongs to other
    // partitions and is skipped before it costs a pair evaluation.
    let mut relevant: std::collections::HashSet<NodeKey> = std::collections::HashSet::new();
    for b in targets.buckets() {
        let mut k = b.leaf_key;
        loop {
            if !relevant.insert(k) || k == NodeKey::root() {
                break;
            }
            k = k.parent(bits);
        }
    }

    let mut stack: Vec<NodePair<V::Data>> = vec![(root, root)];
    while let Some((src_h, tgt_h)) = stack.pop() {
        let src = cache.node(src_h);
        let tgt = cache.node(tgt_h);
        if !relevant.contains(&tgt.key) {
            continue;
        }
        counts.nodes_visited += 1;
        let src_view = SpatialNodeView::of(cache, src);
        let prepared = visitor.prepare(&src_view);
        let mut runs = Runs::new(visitor, &src_view, &prepared, apply);

        if tgt.kind == NodeKind::Leaf {
            // Single-tree semantics against the bucket(s) of this leaf.
            for b in 0..targets.buckets().len() {
                let bucket = &targets.buckets()[b];
                if !under(tgt.key, bucket) {
                    continue;
                }
                counts.opens += 1;
                if !visitor.open(&src_view, &prepared, bucket) {
                    counts.node_interactions += bucket.len() as u64;
                    runs.push(targets, b, false);
                } else if src.kind == NodeKind::Leaf {
                    counts.leaf_interactions += (src_view.particles.len() * bucket.len()) as u64;
                    runs.push(targets, b, true);
                } else {
                    assert!(
                        src.kind == NodeKind::Internal || src.kind == NodeKind::Empty,
                        "dual-tree traversal requires a fully local tree"
                    );
                    for i in (0..8).rev() {
                        if let Some(c) = src.child(i) {
                            stack.push((c, tgt_h));
                        }
                    }
                }
            }
            runs.flush(targets);
            continue;
        }
        // Internal target: does this partition own anything below it?
        if tgt.kind == NodeKind::Empty || !targets.buckets().iter().any(|b| under(tgt.key, b)) {
            continue;
        }
        assert!(tgt.kind == NodeKind::Internal, "dual-tree traversal requires a fully local tree");
        // Conservative pruning with a pseudo-bucket at the target's box.
        let pseudo = TargetBucket {
            leaf_key: tgt.key,
            bbox: tgt.bbox,
            range: 0..0,
            state: V::State::default(),
            prepared: visitor.prepare_target(&[]),
        };
        counts.opens += 1;
        if !visitor.open(&src_view, &prepared, &pseudo) {
            // The source's summary covers every bucket below the target.
            for b in 0..targets.buckets().len() {
                let bucket = &targets.buckets()[b];
                if under(tgt.key, bucket) {
                    counts.node_interactions += bucket.len() as u64;
                    runs.push(targets, b, false);
                }
            }
            runs.flush(targets);
            continue;
        }
        if src.kind != NodeKind::Internal {
            // Source cannot open further (leaf): descend the target only.
            for i in (0..8).rev() {
                if let Some(c) = tgt.child(i) {
                    stack.push((src_h, c));
                }
            }
            continue;
        }
        let tgt_view = SpatialNodeView::of(cache, tgt);
        if visitor.cell(&src_view, &tgt_view) {
            // Open both: B² child pairs.
            for i in (0..8).rev() {
                if let Some(sc) = src.child(i) {
                    for j in (0..8).rev() {
                        if let Some(tc) = tgt.child(j) {
                            stack.push((sc, tc));
                        }
                    }
                }
            }
        } else {
            // Keep the target, open only the source: B pairs.
            for i in (0..8).rev() {
                if let Some(sc) = src.child(i) {
                    stack.push((sc, tgt_h));
                }
            }
        }
    }
    counts
}

/// Up-and-down seeds for one sibling group: the adjacent buckets `group`
/// of a Partition, whose leaves share the parent `parent`. Walk the path
/// root → parent; emit, for every ancestor, its non-path children
/// carrying the whole group; then each child of the parent carrying the
/// group minus the buckets whose own leaf it is; and each bucket's own
/// leaf last, as a one-bucket item. A LIFO stack then hands every bucket
/// what a walk of its own would: its leaf first, then its siblings in
/// slot order, then progressively farther subtrees, deepest level first.
/// If the walk hits a placeholder (the leaves live under unfetched remote
/// data), the placeholder itself is emitted as the group's final, nearest
/// item.
///
/// Every range is written at the top of the scratch in push order (a
/// child that carries the whole group after one that did not gets a
/// fresh copy), which keeps [`WorkStack`]'s "range ends never decrease".
fn seed_sibling_group<D: paratreet_tree::Data, S, T>(
    cache: &CacheTree<D>,
    root: &CacheNode<D>,
    parent: NodeKey,
    buckets: &[TargetBucket<S, T>],
    group: Range<usize>,
    stack: &mut WorkStack<D>,
) {
    let (bits, ids) = (cache.bits, || group.clone().map(|b| b as u32));
    let mut whole = stack.append(ids());
    let mut node = root;
    let mut level = node.key.level(bits);
    while node.key != parent && node.kind == NodeKind::Internal {
        level += 1;
        let path_slot = parent.ancestor_at(level, bits).child_index(bits);
        for i in (0..8).rev().filter(|&i| i != path_slot) {
            if let Some(c) = node.child(i) {
                stack.items.push(WorkItem { node: c, buckets: whole });
            }
        }
        match cache.child(node, path_slot) {
            Some(c) => node = c,
            None => return, // the parent's slot vanished: nothing nearer to add
        }
    }
    if node.kind != NodeKind::Internal {
        // A placeholder (or a leaf) covers the parent: nearest item.
        stack.items.push(WorkItem { node: node.handle(), buckets: whole });
        return;
    }
    for i in (0..8).rev() {
        let Some(c) = cache.child(node, i) else { continue };
        let own = |b: usize| buckets[b].leaf_key == c.key;
        let carried = if group.clone().any(own) {
            stack.append(group.clone().filter(|&b| !own(b)).map(|b| b as u32))
        } else {
            if whole.span().end < stack.scratch.len() {
                whole = stack.append(ids());
            }
            whole
        };
        if carried.len > 0 {
            stack.items.push(WorkItem { node: c.handle(), buckets: carried });
        }
    }
    for b in group {
        if let Some(leaf) = node.child(buckets[b].leaf_key.child_index(bits)) {
            let one = stack.append([b as u32]);
            stack.items.push(WorkItem { node: leaf, buckets: one });
        }
    }
}

/// Up-and-down seeds for one bucket: walk the path root → leaf; emit, for
/// every ancestor, its non-path children, and the leaf itself last — so a
/// LIFO stack visits the bucket's own leaf first, then nearby siblings,
/// then progressively farther subtrees. If the walk hits a placeholder
/// (the leaf lives under unfetched remote data), the placeholder itself
/// is emitted as the final, nearest item. The reference the sibling-group
/// seeds are held against: one item per bucket per node.
#[cfg(test)]
fn seed_up_and_down<D: paratreet_tree::Data>(
    cache: &CacheTree<D>,
    leaf_key: NodeKey,
    bucket: usize,
    items: &mut Vec<WorkItem<D>>,
) {
    let (bits, buckets) = (cache.bits, BucketRange::new(bucket, 1));
    let leaf_level = leaf_key.level(bits);
    let mut node = cache.root().expect("a tree was built");
    let mut level = node.key.level(bits);
    loop {
        if node.key == leaf_key || node.kind != NodeKind::Internal {
            // Reached the leaf (or a placeholder / oversized leaf that
            // covers it): nearest item, emitted last → popped first.
            items.push(WorkItem { node: node.handle(), buckets });
            return;
        }
        level += 1;
        debug_assert!(level <= leaf_level, "leaf key must be beneath the root");
        let path_slot = leaf_key.ancestor_at(level, bits).child_index(bits);
        for i in (0..8).rev() {
            if i == path_slot {
                continue;
            }
            if let Some(c) = node.child(i) {
                items.push(WorkItem { node: c, buckets });
            }
        }
        match cache.child(node, path_slot) {
            Some(c) => node = c,
            None => return, // leaf's slot vanished: nothing nearer to add
        }
    }
}

/// Drains `stack` — the one work-item loop every executor runs: pop,
/// [`process_item`] under `apply`, and hand each surrendered fetch to
/// `surrender` with the buckets that opened the placeholder. That slice
/// is the fetch's range of the stack's scratch, which the next pop
/// reclaims: an executor that parks the fetch copies it out here.
///
/// The walk runs the stack dry, or stops right after a fetch `surrender`
/// answers with [`ControlFlow::Break`]; the items still stacked are then
/// the caller's to resume. Returns the counters of the items processed.
pub fn drain<V: Visitor>(
    cache: &CacheTree<V::Data>,
    visitor: &V,
    apply: Apply,
    targets: &mut TargetsOf<V>,
    stack: &mut WorkStack<V::Data>,
    mut surrender: impl FnMut(PendingFetch<V::Data>, &[u32]) -> ControlFlow<()>,
) -> WorkCounts {
    let mut counts = WorkCounts::default();
    let mut fetches = Vec::new();
    while let Some(item) = stack.pop() {
        process_item(cache, visitor, apply, targets, item, stack, &mut fetches, &mut counts);
        // An item meets one node, so it surrenders at most one fetch.
        if let Some(fetch) = fetches.pop() {
            let opened = fetch.buckets;
            if surrender(fetch, stack.buckets(opened)).is_break() {
                break;
            }
        }
    }
    counts
}

/// Runs a traversal over one partition's buckets entirely locally,
/// panicking if any placeholder is opened (the shared-memory engine
/// guarantees all data is local). Returns the interaction counters.
pub fn traverse_local<V: Visitor>(
    cache: &CacheTree<V::Data>,
    visitor: &V,
    kind: TraversalKind,
    targets: &mut TargetsOf<V>,
) -> WorkCounts {
    if kind == TraversalKind::DualTree {
        return traverse_dual(cache, visitor, Apply::Runs, targets);
    }
    // Up-and-down seeds are ordered nearest-last; reverse handled by LIFO.
    let mut stack = seed_items::<V>(cache, kind, targets);
    drain(cache, visitor, Apply::Runs, targets, &mut stack, remote_placeholder)
}

/// What a fully local traversal does with a surrendered fetch.
fn remote_placeholder<D>(fetch: PendingFetch<D>, _: &[u32]) -> ControlFlow<()> {
    panic!("local traversal reached a remote placeholder {:?}", fetch.key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use crate::pipeline::Iteration;
    use crate::visitor::TargetSpan;
    use paratreet_particles::gen;
    use paratreet_telemetry::Telemetry;
    use paratreet_tree::CountData;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Records what each bucket is handed: `(node key, as a leaf?)` per
    /// call, in call order — and how many calls spanned several buckets.
    /// Opens by a deterministic hash of the (node, bucket) pair, so
    /// neighbouring buckets often — not always — take a node the same
    /// way.
    #[derive(Default)]
    struct Recorder {
        wide_calls: AtomicUsize,
    }

    impl Recorder {
        fn record(
            &self,
            key: NodeKey,
            leaf: bool,
            targets: &mut TargetSpan<'_, Vec<(NodeKey, bool)>>,
        ) {
            let buckets = targets.buckets().map(|(_, b)| b.state.push((key, leaf))).count();
            self.wide_calls.fetch_add((buckets > 1) as usize, Ordering::Relaxed);
        }
    }

    impl Visitor for Recorder {
        type Data = CountData;
        type State = Vec<(NodeKey, bool)>;
        type Prepared = ();
        type PerTarget = ();
        fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
        fn open(
            &self,
            source: &SpatialNodeView<'_, CountData>,
            _: &(),
            target: &TargetBucket<Self::State>,
        ) -> bool {
            let pair = source.key.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (target.leaf_key.raw() >> 2).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
            (pair >> 40) % 8 < 5
        }
        fn node(
            &self,
            source: &SpatialNodeView<'_, CountData>,
            _: &(),
            targets: &mut TargetSpan<'_, Self::State>,
        ) {
            self.record(source.key, false, targets);
        }
        fn leaf(
            &self,
            source: &SpatialNodeView<'_, CountData>,
            _: &(),
            targets: &mut TargetSpan<'_, Self::State>,
        ) {
            self.record(source.key, true, targets);
        }
    }

    /// A tree whose leaves split across Partitions: 2 500 clustered
    /// particles in buckets of 6, 8 Subtrees placed round-robin on
    /// `n_ranks` ranks, 5 Partitions.
    fn split_leaf_front(n_ranks: u32) -> Iteration<CountData> {
        let quiet = Telemetry::disabled();
        let config =
            Configuration { bucket_size: 6, n_subtrees: 8, n_partitions: 5, ..Default::default() };
        let particles = gen::clustered(2500, 3, 19, 1.0, 1.0);
        let mut front = Iteration::<CountData>::obtain(&config, &quiet, particles, None, false);
        let home: Vec<u32> = (0..front.n_subtrees as u32).map(|s| s % n_ranks).collect();
        front.prepare(&home, n_ranks as usize, 1, &config, &quiet);
        assert!(front.n_split_leaves > 0, "some leaf is shared between Partitions");
        front
    }

    /// Coalescing changes no bucket's call sequence: under every
    /// schedule, on a tree whose leaves split across Partitions, each
    /// bucket is handed the same nodes, the same way, in the same order
    /// as when every call is flushed bucket by bucket — and the counters
    /// agree.
    #[test]
    fn runs_change_no_buckets_call_sequence() {
        let front = split_leaf_front(1);
        let cache = &front.caches[0];
        for kind in [
            TraversalKind::TopDown,
            TraversalKind::UpAndDown,
            TraversalKind::BasicDfs,
            TraversalKind::DualTree,
        ] {
            let mut wide_calls = 0;
            for p in 0..front.by_partition.len() {
                let walk = |mode: Apply| {
                    let recorder = Recorder::default();
                    let mut targets = front.targets(&recorder, p);
                    let counts = if kind == TraversalKind::DualTree {
                        traverse_dual(cache, &recorder, mode, &mut targets)
                    } else {
                        let mut stack = seed_items::<Recorder>(cache, kind, &targets);
                        let unreachable = remote_placeholder;
                        drain(cache, &recorder, mode, &mut targets, &mut stack, unreachable)
                    };
                    let calls: Vec<_> = targets.into_states().collect();
                    (calls, counts, recorder.wide_calls.into_inner())
                };
                let (by_bucket, by_bucket_counts, wide) = walk(Apply::PerBucket);
                assert_eq!(wide, 0, "the reference applies bucket by bucket");
                let (by_run, by_run_counts, wide) = walk(Apply::Runs);
                wide_calls += wide;
                assert!(by_run.iter().any(|calls| !calls.is_empty()));
                assert_eq!(by_run, by_bucket, "{kind:?}, partition {p}");
                assert_eq!(by_run_counts, by_bucket_counts, "{kind:?}, partition {p}");
            }
            // Multi-bucket items exist only where buckets share a walk:
            // all schedules but the basic one, which seeds every bucket
            // alone at the root.
            let shared = kind != TraversalKind::BasicDfs;
            assert_eq!(wide_calls > 0, shared, "{kind:?}: {wide_calls} calls spanned buckets");
        }
    }

    /// The per-bucket up-and-down seeds the sibling groups replaced: one
    /// one-entry range of the identity per bucket per node.
    fn seed_per_bucket(
        cache: &CacheTree<CountData>,
        targets: &TargetsOf<Recorder>,
    ) -> WorkStack<CountData> {
        let mut stack = WorkStack::new();
        stack.append(0..targets.buckets().len() as u32);
        for (b, bucket) in targets.buckets().iter().enumerate() {
            seed_up_and_down(cache, bucket.leaf_key, b, &mut stack.items);
        }
        stack
    }

    /// Per bucket, what an up-and-down walk hands it.
    type Calls = Vec<Vec<(NodeKey, bool)>>;
    /// Per bucket, the placeholders it opened, each after how many calls.
    type Opened = Vec<Vec<(usize, NodeKey)>>;

    /// Partition `p`'s up-and-down walk over `cache`, seeded by sibling
    /// group or (`grouped == false`) bucket by bucket, run dry with every
    /// fetch left unanswered.
    fn walk_up_and_down(
        front: &Iteration<CountData>,
        cache: &CacheTree<CountData>,
        p: usize,
        grouped: bool,
    ) -> (Calls, Opened, WorkCounts) {
        let recorder = Recorder::default();
        let mut targets = front.targets(&recorder, p);
        let mut stack = if grouped {
            seed_items::<Recorder>(cache, TraversalKind::UpAndDown, &targets)
        } else {
            seed_per_bucket(cache, &targets)
        };
        let mut opened: Opened = vec![Vec::new(); targets.buckets().len()];
        let (mut counts, mut fetches) = (WorkCounts::default(), Vec::new());
        while let Some(item) = stack.pop() {
            let (apply, stack, fetches, counts) =
                (Apply::Runs, &mut stack, &mut fetches, &mut counts);
            process_item(cache, &recorder, apply, &mut targets, item, stack, fetches, counts);
            for fetch in fetches.drain(..) {
                for &b in stack.buckets(fetch.buckets) {
                    let calls = targets.buckets()[b as usize].state.len();
                    opened[b as usize].push((calls, fetch.key));
                }
            }
        }
        (targets.into_states().collect(), opened, counts)
    }

    /// Holds Partition `p`'s sibling-group walk against the per-bucket
    /// one: the same calls and placeholders per bucket, in the same
    /// order, the same `open`s and interactions, in fewer work items.
    /// Returns whether any placeholder was opened.
    fn assert_groups_match_per_bucket(
        front: &Iteration<CountData>,
        cache: &CacheTree<CountData>,
        p: usize,
    ) -> bool {
        let (calls, opened, counts) = walk_up_and_down(front, cache, p, true);
        let (want_calls, want_opened, want) = walk_up_and_down(front, cache, p, false);
        assert!(calls.iter().any(|c| !c.is_empty()), "partition {p} met nothing");
        assert_eq!(calls, want_calls, "partition {p}");
        assert_eq!(opened, want_opened, "partition {p}");
        let interactions = |c: WorkCounts| (c.opens, c.node_interactions, c.leaf_interactions);
        assert_eq!(interactions(counts), interactions(want), "partition {p}");
        assert!(
            counts.nodes_visited < want.nodes_visited,
            "partition {p}: {} items by group, {} by bucket",
            counts.nodes_visited,
            want.nodes_visited
        );
        opened.iter().any(|o| !o.is_empty())
    }

    /// Seeding up-and-down by sibling group changes no bucket's call
    /// sequence on a fully local tree.
    #[test]
    fn sibling_groups_change_no_buckets_call_sequence() {
        let front = split_leaf_front(1);
        for p in 0..front.by_partition.len() {
            assert!(!assert_groups_match_per_bucket(&front, &front.caches[0], p), "all local");
        }
    }

    /// The same on rank 0 of two, where the path to a group's parent is
    /// cut by a remote Subtree's placeholder: the placeholder is the
    /// group's nearest item, and every bucket opens it where it would
    /// have alone.
    #[test]
    fn sibling_groups_keep_a_placeholder_as_the_nearest_item() {
        let front = split_leaf_front(2);
        let cache = &front.caches[0];
        let (mut cut_groups, mut opened) = (0, false);
        for p in 0..front.by_partition.len() {
            opened |= assert_groups_match_per_bucket(&front, cache, p);
            let targets = front.targets(&Recorder::default(), p);
            let stack = seed_items::<Recorder>(cache, TraversalKind::UpAndDown, &targets);
            cut_groups += stack
                .items
                .iter()
                .filter(|item| {
                    let node = cache.node(item.node);
                    let carried = stack.buckets(item.buckets);
                    node.is_placeholder()
                        && carried.len() > 1
                        && carried.iter().all(|&b| {
                            node.key
                                .is_ancestor_of(targets.buckets()[b as usize].leaf_key, cache.bits)
                        })
                })
                .count();
        }
        assert!(cut_groups > 0, "no group's path was cut by a placeholder");
        assert!(opened, "no placeholder was opened");
    }
}
