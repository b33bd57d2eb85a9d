//! The per-process cached global tree (Fig. 2).
//!
//! One [`CacheTree`] lives on every simulated process (rank). After the
//! local tree build it holds
//!
//! * the *top skeleton*: the global root and every ancestor of a subtree
//!   root, with `Data` summaries merged from the subtree root summaries
//!   that all ranks exchange ("the global root and a user-specified
//!   number of its descendants are shared with each process"),
//! * grafted local subtrees (full structure, reachable "as if local"),
//! * placeholders for remote subtrees, each with an atomic `requested`
//!   flag,
//! * received fill fragments spliced in by one atomic store of a child
//!   handle.
//!
//! # Publication model
//!
//! Nodes live in one append-only store and are named by `u32` handles
//! ([`NodeHandle`]); a leaf's particles are a range of one of the
//! particle arrays kept beside the nodes — a local Subtree's array,
//! moved in whole, or a fill's. Both stores append under the
//! book-keeping lock, and every slot is written once, before any handle
//! to it is published. A child slot is written `Relaxed` while its node
//! is still private and overwritten at most once afterwards
//! (placeholder → fill) with `Release`; readers load child slots and the
//! root with `Acquire`, so whatever a loaded handle names is fully
//! visible. Nothing is removed until the `CacheTree` drops (the cache is
//! no-delete, like the paper's): a handle never dangles.

use crate::error::CacheError;
use crate::node::{CacheNode, NodeHandle, NodeKind};
use crate::stats::CacheStats;
use crate::store::Store;
use crate::wire;
use paratreet_geometry::{BoundingBox, NodeKey};
use paratreet_particles::Particle;
use paratreet_telemetry::Telemetry;
use paratreet_tree::node::NO_NODE;
use paratreet_tree::{BuiltTree, Data, NodeShape};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The summary of one subtree root that every rank learns during the
/// share step: enough to build the top skeleton and to prune traversals
/// without fetching.
#[derive(Clone, Debug)]
pub struct SubtreeSummary<D> {
    /// Key of the subtree root in the global tree.
    pub key: NodeKey,
    /// Spatial footprint of the subtree.
    pub bbox: BoundingBox,
    /// Particles in the subtree.
    pub n_particles: u32,
    /// Accumulated `Data` of the subtree root.
    pub data: D,
    /// Rank that owns the subtree.
    pub home_rank: u32,
}

/// Result of asking the cache for a remote node's contents.
#[derive(Debug)]
pub enum RequestOutcome<'a, D> {
    /// The data is already materialised (a fill won the race); traverse on.
    Ready(&'a CacheNode<D>),
    /// First request for this key: the caller must send a fetch to
    /// `home_rank`. The waiter has been parked.
    SendFetch {
        /// Where the authoritative subtree lives.
        home_rank: u32,
    },
    /// A fetch is already in flight; the waiter has been parked.
    InFlight,
}

/// Everything a successful fill splice produced: the canonical node now
/// standing at the fragment root's key, and every parked waiter the fill
/// unblocked (tagged with the key it was parked on and the node standing
/// there, so engines can requeue the right paused work).
#[derive(Debug)]
pub struct FillOutcome<'a, D> {
    /// Canonical node at the fragment root's key. On a duplicate fill
    /// this is the *pre-existing* materialised node, not the payload's.
    pub root: &'a CacheNode<D>,
    /// `(key, waiter)` pairs drained from `pending`, covering every key
    /// the fill materialised — root, interior, and frontier keys alike.
    pub resumed: Vec<(NodeKey, u64)>,
    /// The canonical node at each `resumed` key, index for index.
    pub resumed_at: Vec<NodeHandle<D>>,
    /// True when the fragment root was already materialised and the
    /// payload was discarded (idempotent duplicate delivery).
    pub duplicate: bool,
}

/// Book-keeping guarded by one short-held mutex: the process-level hash
/// table of materialised nodes, parked waiters, and the next free slots
/// of the stores. Traversal *reads* never touch this — they walk atomic
/// child handles.
#[derive(Default)]
struct Bookkeeping<D> {
    resolved: HashMap<NodeKey, NodeHandle<D>>,
    pending: HashMap<NodeKey, Vec<u64>>,
    /// Nodes appended so far, superseded ones included.
    n_nodes: u32,
    /// Particle arrays appended so far.
    n_arrays: u32,
}

/// The per-rank software cache; see module docs.
pub struct CacheTree<D: Data> {
    /// This cache's rank (process id).
    pub rank: u32,
    /// Bits per key digit of the tree type in use.
    pub bits: u32,
    /// Traffic counters.
    pub stats: CacheStats,
    /// Span sink for the fetch/fill path (wall clock — only the real
    /// threaded engine attaches an enabled handle; the DES engine keeps
    /// its virtual-time trace free of wall timestamps).
    pub telemetry: Telemetry,
    root: AtomicU32,
    book: Mutex<Bookkeeping<D>>,
    nodes: Store<CacheNode<D>>,
    /// The particle arrays leaves' buckets index: one per local Subtree
    /// and one per fill.
    arrays: Store<Vec<Particle>>,
    /// Recovery epoch: fills are stamped with the sender's epoch at
    /// serialisation and rejected on insert when they predate the
    /// receiver's ([`CacheError::StaleEpoch`]). Bumped by the engine on
    /// every recovery (rank crash).
    epoch: AtomicU32,
    /// Set when this cache's rank has crashed for good (re-shard
    /// recovery): serialisation and insertion fail with
    /// [`CacheError::OwnerDead`].
    dead: AtomicBool,
}

impl<D: Data> CacheTree<D> {
    /// An empty cache for `rank`, for a tree with `bits` per key digit.
    pub fn new(rank: u32, bits: u32) -> CacheTree<D> {
        CacheTree {
            rank,
            bits,
            stats: CacheStats::new(),
            telemetry: Telemetry::disabled(),
            root: AtomicU32::new(NO_NODE),
            book: Mutex::default(),
            nodes: Store::new(),
            arrays: Store::new(),
            epoch: AtomicU32::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The current recovery epoch. Every fill serialised by this cache
    /// carries it; every fill inserted must match it.
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Moves this cache into `epoch`. Called by the engine on every
    /// cache when a crash is detected, so fills serialised before the
    /// crash can no longer splice anywhere.
    pub fn set_epoch(&self, epoch: u32) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Marks this cache's rank as crashed-for-good (re-shard recovery).
    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Whether [`CacheTree::mark_dead`] was called.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Re-arms every placeholder homed on `dead_rank`: clears the
    /// `requested` flag so the next [`CacheTree::request`] sends a fresh
    /// fetch (which the engine routes to the subtree's *new* owner)
    /// instead of deduplicating against a fetch the dead rank swallowed.
    /// Returns the number of placeholders re-armed.
    pub fn on_owner_crash(&self, dead_rank: u32) -> usize {
        let book = self.book.lock();
        let mut rearmed = 0;
        for &h in book.resolved.values() {
            let node = self.node(h);
            if node.is_placeholder()
                && node.home_rank == dead_rank
                && node.requested.swap(false, Ordering::AcqRel)
            {
                rearmed += 1;
            }
        }
        rearmed
    }

    /// Rebuilds this cache from scratch (restart recovery): every fill
    /// received so far is forgotten, the book-keeping is cleared, and
    /// the skeleton is re-initialised from `summaries` + the rank's
    /// rebuilt `local` trees, appended as a fresh skeleton. Superseded
    /// nodes are kept until drop (the cache stays no-delete, so old
    /// [`NodeHandle`]s never dangle — the engine discards all work items
    /// of the crashed rank anyway).
    pub fn reinit(&self, summaries: &[SubtreeSummary<D>], local: Vec<BuiltTree<D>>) {
        {
            let mut book = self.book.lock();
            book.resolved.clear();
            book.pending.clear();
            self.root.store(NO_NODE, Ordering::Release);
        }
        self.init(summaries, local);
    }

    /// Grafts a freshly (re)built subtree into an already-initialised
    /// cache — re-shard recovery, where a surviving rank adopts a dead
    /// rank's subtree reconstructed from its checkpoint. Implemented as
    /// a self-delivered full-depth fill, which reuses the canonical
    /// splice/waiter-drain machinery: any traversal parked on the
    /// subtree's placeholder resumes through the returned
    /// [`FillOutcome`].
    pub fn insert_subtree(
        &self,
        tree: BuiltTree<D>,
        home_rank: u32,
    ) -> Result<FillOutcome<'_, D>, CacheError> {
        let root = tree.root();
        let summary = SubtreeSummary {
            key: root.key,
            bbox: root.bbox,
            n_particles: root.n_particles,
            data: root.data.clone(),
            home_rank,
        };
        let staging: CacheTree<D> = CacheTree::new(home_rank, self.bits);
        staging.set_epoch(self.epoch());
        staging.init(std::slice::from_ref(&summary), vec![tree]);
        let bytes = staging.serialize_fragment(summary.key, u32::MAX)?;
        self.insert_fragment(&bytes)
    }

    /// Appends a run of nodes, whose child slots already name store
    /// handles, and the particle array their buckets index. Returns the
    /// run's first handle.
    fn append(
        &self,
        book: &mut Bookkeeping<D>,
        run: impl IntoIterator<Item = CacheNode<D>>,
        particles: Vec<Particle>,
    ) -> NodeHandle<D> {
        let (first, array) = (book.n_nodes, book.n_arrays);
        if !particles.is_empty() {
            self.arrays.set(array, particles);
            book.n_arrays += 1;
        }
        for mut node in run {
            (node.handle, node.array) = (book.n_nodes, array);
            self.nodes.set(book.n_nodes, node);
            book.n_nodes += 1;
        }
        NodeHandle::new(first)
    }

    /// Builds the top skeleton from all ranks' subtree summaries and
    /// grafts this rank's built subtrees. `local` maps subtree-root keys
    /// to built trees; every key in `local` must appear in `summaries`
    /// with `home_rank == self.rank`.
    ///
    /// Called once per iteration, before traversal, from one thread.
    ///
    /// # Panics
    ///
    /// On API misuse (programming errors, not message faults): empty
    /// `summaries`, duplicate keys in `summaries` (which would corrupt
    /// the skeleton's child lists), or a local tree without a summary.
    pub fn init(&self, summaries: &[SubtreeSummary<D>], local: Vec<BuiltTree<D>>) {
        assert!(!summaries.is_empty(), "cannot init cache with no subtrees");
        let mut summary_keys: HashSet<NodeKey> = HashSet::with_capacity(summaries.len());
        for s in summaries {
            assert!(
                summary_keys.insert(s.key),
                "duplicate subtree summary for {}: every key must appear exactly once",
                s.key
            );
        }
        let mut local_by_key: HashMap<NodeKey, BuiltTree<D>> = HashMap::new();
        for t in local {
            local_by_key.insert(t.root().key, t);
        }

        // Collect every ancestor of a subtree root, with its children.
        let mut child_keys: HashMap<NodeKey, Vec<NodeKey>> = HashMap::new();
        for s in summaries {
            let mut k = s.key;
            while k != NodeKey::root() {
                let p = k.parent(self.bits);
                let kids = child_keys.entry(p).or_default();
                if !kids.contains(&k) {
                    kids.push(k);
                }
                k = p;
            }
        }

        let mut book = self.book.lock();
        // Materialise subtree roots first.
        for s in summaries {
            let h = if let Some(tree) = local_by_key.remove(&s.key) {
                self.graft(&mut book, tree, s.home_rank)
            } else {
                let (data, kind) = (s.data.clone(), NodeKind::Placeholder);
                let node = CacheNode::new(s.key, s.bbox, s.n_particles, data, s.home_rank, kind);
                self.append(&mut book, [node], Vec::new())
            };
            book.resolved.insert(s.key, h);
        }
        assert!(local_by_key.is_empty(), "local subtree without matching summary");

        // Materialise ancestors bottom-up (deepest keys first, i.e. by
        // descending raw key value since children have longer keys; sort
        // by level explicitly for clarity).
        let mut ancestors: Vec<NodeKey> = child_keys.keys().copied().collect();
        ancestors.sort_by_key(|k| std::cmp::Reverse(k.level(self.bits)));
        for key in ancestors {
            if book.resolved.contains_key(&key) {
                // A subtree root can itself be an ancestor of nothing
                // else; and with one subtree the root is the summary.
                continue;
            }
            // The skeleton is replicated, not owned: no home rank.
            let (bbox, kind) = (BoundingBox::empty(), NodeKind::Internal);
            let mut node = CacheNode::new(key, bbox, 0, D::default(), u32::MAX, kind);
            let mut kids = child_keys[&key].clone();
            kids.sort_by_key(|k| k.child_index(self.bits));
            for ck in kids {
                let child = self.node(book.resolved[&ck]);
                node.bbox.merge(&child.bbox);
                node.n_particles += child.n_particles;
                node.data.merge(&child.data);
                *node.children[ck.child_index(self.bits)].get_mut() = child.handle;
            }
            let h = self.append(&mut book, [node], Vec::new());
            book.resolved.insert(key, h);
        }

        let root = book.resolved[&NodeKey::root()];
        drop(book);
        self.root.store(root.0, Ordering::Release);
    }

    /// Appends a built subtree as one run — its nodes in arena order
    /// (index 0, the root, first), its particle array moved in whole —
    /// and returns its root's handle. Pre-publication, so plain stores.
    fn graft(&self, book: &mut Bookkeeping<D>, tree: BuiltTree<D>, home: u32) -> NodeHandle<D> {
        let base = book.n_nodes;
        let run = tree.nodes.into_iter().map(|bn| {
            let (kind, bucket) = match bn.shape {
                NodeShape::Internal => (NodeKind::Internal, 0..0),
                NodeShape::Empty => (NodeKind::Empty, 0..0),
                NodeShape::Leaf { start, end } => (NodeKind::Leaf, start..end),
            };
            let mut node = CacheNode::new(bn.key, bn.bbox, bn.n_particles, bn.data, home, kind);
            node.bucket = bucket;
            node.children = bn.children.map(AtomicU32::new);
            node.rebase(base);
            node
        });
        self.append(book, run, tree.particles)
    }

    /// The node `h` names — wait-free: no lock, only `Acquire` loads.
    /// Panics on a handle past this cache's end (another cache's).
    #[inline]
    pub fn node(&self, h: NodeHandle<D>) -> &CacheNode<D> {
        self.nodes.get(h.0).expect("a handle names a node of its cache")
    }

    /// Child `i` of `node`, resolved.
    #[inline]
    pub fn child(&self, node: &CacheNode<D>, i: usize) -> Option<&CacheNode<D>> {
        node.child(i).map(|h| self.node(h))
    }

    /// The present children of `node` (slots 0..`branch_factor`).
    pub fn children<'a>(
        &'a self,
        node: &'a CacheNode<D>,
        branch_factor: usize,
    ) -> impl Iterator<Item = &'a CacheNode<D>> + 'a {
        (0..branch_factor).filter_map(move |i| self.child(node, i))
    }

    /// A leaf's bucket of particles; empty for every other kind.
    #[inline]
    pub fn particles(&self, node: &CacheNode<D>) -> &[Particle] {
        match self.arrays.get(node.array) {
            Some(array) if node.is_leaf() => &array[node.bucket()],
            _ => &[],
        }
    }

    /// The global root; `None` before [`CacheTree::init`].
    pub fn root(&self) -> Option<&CacheNode<D>> {
        let h = self.root.load(Ordering::Acquire);
        (h != NO_NODE).then(|| self.node(NodeHandle::new(h)))
    }

    /// Looks a node up in the process-level hash table. Takes the
    /// book-keeping lock — setup/debug paths only, not traversal.
    pub fn lookup(&self, key: NodeKey) -> Option<&CacheNode<D>> {
        let h = self.book.lock().resolved.get(&key).copied();
        h.map(|h| self.node(h))
    }

    /// Asks for the contents of placeholder `node`, parking `waiter`
    /// until the fill arrives. See [`RequestOutcome`] for what the caller
    /// must do; if the fill already arrived the parked waiter is *not*
    /// registered and the materialised node is returned instead.
    pub fn request(&self, node: &CacheNode<D>, waiter: u64) -> RequestOutcome<'_, D> {
        debug_assert!(node.is_placeholder());
        let mut book = self.book.lock();
        // Re-check under the lock: a fill may have swapped the
        // placeholder out after the caller loaded its handle.
        if let Some(&cur) = book.resolved.get(&node.key) {
            let cur = self.node(cur);
            if !cur.is_placeholder() {
                return RequestOutcome::Ready(cur);
            }
        }
        book.pending.entry(node.key).or_default().push(waiter);
        CacheStats::add(&self.stats.waiters_parked, 1);
        drop(book);
        if !node.requested.swap(true, Ordering::AcqRel) {
            CacheStats::add(&self.stats.requests_sent, 1);
            RequestOutcome::SendFetch { home_rank: node.home_rank }
        } else {
            CacheStats::add(&self.stats.requests_deduped, 1);
            RequestOutcome::InFlight
        }
    }

    /// Finds the node for `key`: first via the process-level hash table
    /// (which holds subtree roots and fill fragments), then by walking
    /// down from the nearest hashed ancestor following the key's digits.
    /// This is how a home rank locates an interior node of its local
    /// subtree when a fetch arrives — the paper hashes only subtree
    /// roots, not every node.
    pub fn find(&self, key: NodeKey) -> Option<&CacheNode<D>> {
        if let Some(n) = self.lookup(key) {
            return Some(n);
        }
        let mut node = self.root()?;
        let target_level = key.level(self.bits);
        let mut level = node.key.level(self.bits);
        while level < target_level {
            level += 1;
            let digit = key.ancestor_at(level, self.bits).child_index(self.bits);
            node = self.child(node, digit)?;
        }
        (node.key == key).then_some(node)
    }

    /// Serialises the subtree under `key` to relative `depth` levels —
    /// the home-side half of a fetch (Step 1 of Fig. 2). Fails with
    /// [`CacheError::UnknownKey`] when this rank cannot locate `key`
    /// (e.g. a corrupted fetch message); engines log and drop such
    /// requests instead of panicking.
    pub fn serialize_fragment(&self, key: NodeKey, depth: u32) -> Result<Vec<u8>, CacheError> {
        self.telemetry.wall_span(self.rank, "fill serve", Some(key.raw()), || {
            if self.is_dead() {
                return Err(CacheError::OwnerDead { rank: self.rank });
            }
            if self.root().is_none() {
                return Err(CacheError::NotInitialized);
            }
            let node = self.find(key).ok_or(CacheError::UnknownKey { key })?;
            Ok(wire::encode_fragment(self, node, depth, self.epoch()))
        })
    }

    /// Splices a received fill into the tree (Steps 2–4 of Fig. 2) and
    /// returns a [`FillOutcome`]: the canonical fragment-root node plus
    /// every parked waiter this fill unblocks (Step 5). Any worker
    /// thread may call this — that is the point of the wait-free design:
    /// the tree structure is updated by atomic child-handle stores, and
    /// only the hash-table/pending book-keeping takes a (short) lock.
    ///
    /// Guarantees, in the presence of duplicated / reordered deliveries:
    ///
    /// * **Per-key canonicalisation** — for every key the fragment
    ///   carries, the first *materialised* node wins and stays canonical;
    ///   later copies are discarded (the cache is no-delete, so they stay
    ///   allocated but unreachable). Duplicate fills are idempotent.
    /// * **Complete waiter drain** — `pending` is drained for *every*
    ///   key whose canonical node is materialised after this call, not
    ///   just the fragment root. A deep fill that materialises interior
    ///   keys resumes waiters parked at those depths too.
    /// * **Atomic failure** — on `Err` the cache is unchanged, so the
    ///   engine can simply re-request.
    ///
    /// A fill whose root decodes to a placeholder (the home rank
    /// serialised at depth 0, carrying no child data) clears the
    /// `requested` flag and hands back the parked waiters so the engine
    /// re-requests instead of deadlocking.
    pub fn insert_fragment(&self, bytes: &[u8]) -> Result<FillOutcome<'_, D>, CacheError> {
        self.telemetry
            .wall_span(self.rank, "cache insertion", None, || self.insert_fragment_impl(bytes))
    }

    fn insert_fragment_impl(&self, bytes: &[u8]) -> Result<FillOutcome<'_, D>, CacheError> {
        if self.is_dead() {
            return Err(CacheError::OwnerDead { rank: self.rank });
        }
        let mut frag = wire::decode_fragment::<D>(bytes)?;
        let cache_epoch = self.epoch();
        if frag.epoch != cache_epoch {
            return Err(CacheError::StaleEpoch { fill_epoch: frag.epoch, cache_epoch });
        }
        if frag.nodes.is_empty() {
            return Err(CacheError::EmptyFragment);
        }
        let root_key = frag.nodes[0].key;

        let mut book = self.book.lock();

        // Validate *before* mutating anything, so a rejected fill leaves
        // the cache untouched. A fill lands only on a key this cache
        // registered (every placeholder is, when it is created) under a
        // materialised parent, and its nodes must fit together.
        if root_key == NodeKey::root() {
            if !book.resolved.contains_key(&root_key) {
                return Err(CacheError::NotInitialized);
            }
        } else {
            let parent = book.resolved.get(&root_key.parent(self.bits));
            let parent_ok = parent.is_some_and(|&p| !self.node(p).is_placeholder());
            if !parent_ok || !book.resolved.contains_key(&root_key) {
                return Err(CacheError::OrphanFill { key: root_key });
            }
        }
        if !frag.is_consistent(self.bits) {
            return Err(CacheError::MalformedFragment { len: bytes.len() });
        }

        CacheStats::add(&self.stats.fills_inserted, 1);
        CacheStats::add(&self.stats.bytes_received, bytes.len() as u64);
        CacheStats::add(&self.stats.nodes_inserted, frag.nodes.len() as u64);
        CacheStats::add(&self.stats.particles_inserted, frag.particles.len() as u64);

        // Append the fragment as one run: its child indices become store
        // handles, its particle array is moved in.
        let base = book.n_nodes;
        frag.nodes.iter_mut().for_each(|node| node.rebase(base));
        self.append(&mut book, frag.nodes, frag.particles);
        let run: Vec<&CacheNode<D>> =
            (base..book.n_nodes).map(|h| self.node(NodeHandle::new(h))).collect();

        // Step 3a — canonicalise per key: decide, for every key the
        // fragment carries, which node shall represent it from now on.
        // An existing materialised node always wins (idempotence); an
        // existing placeholder is kept over a fragment placeholder (it
        // owns the `requested` flag and the identity other parents point
        // at) but loses to fragment data.
        let mut fragment_wins = Vec::with_capacity(run.len());
        for node in &run {
            let wins = match book.resolved.get(&node.key) {
                Some(&existing) => {
                    let ex = self.node(existing);
                    ex.is_placeholder() && !node.is_placeholder()
                }
                None => true,
            };
            if wins {
                book.resolved.insert(node.key, node.handle());
            }
            fragment_wins.push(wins);
        }

        // Step 3b — rewire winning internal nodes' child slots to the
        // canonical node per key. Pre-publication: Relaxed suffices, the
        // publishing stores below are Release.
        for (i, node) in run.iter().enumerate() {
            if !fragment_wins[i] || node.kind != NodeKind::Internal {
                continue;
            }
            for slot in 0..wire::MAX_BRANCH {
                let Some(child) = node.child(slot) else { continue };
                let child_key = self.node(child).key;
                if let Some(&canon) = book.resolved.get(&child_key) {
                    if canon.0 != child.0 {
                        node.children[slot].store(canon.0, Ordering::Relaxed);
                    }
                }
            }
        }

        // Step 4 — publish every winning node into its canonical
        // parent's child slot (Release: pairs with traversal's Acquire
        // loads). This covers the fragment root replacing its
        // placeholder AND interior keys whose placeholder is referenced
        // by an *older* fill's internal node.
        for (i, node) in run.iter().enumerate() {
            if !fragment_wins[i] {
                continue;
            }
            let key = node.key;
            if key == NodeKey::root() {
                self.root.store(node.handle, Ordering::Release);
                continue;
            }
            let Some(&parent) = book.resolved.get(&key.parent(self.bits)) else {
                // Interior keys always have their parent in the fragment;
                // the root's parent was validated above.
                continue;
            };
            let parent = self.node(parent);
            if parent.is_placeholder() {
                // Never hang children off a placeholder (audit invariant).
                continue;
            }
            parent.children[key.child_index(self.bits)].store(node.handle, Ordering::Release);
        }

        // Step 5 — drain waiters for every key that is materialised
        // after this fill, tagging each with its parking key and the
        // node there so the engine can requeue the right paused work.
        let mut drained: Vec<&CacheNode<D>> = (run.iter())
            .filter_map(|node| book.resolved.get(&node.key).map(|&canon| self.node(canon)))
            .filter(|canon| !canon.is_placeholder())
            .collect();
        let canon_root = self.node(book.resolved[&root_key]);
        if canon_root.is_placeholder() {
            // Depth-0 fill: no data arrived. Re-arm the request flag and
            // hand the waiters back; resuming them re-runs the visitor,
            // which re-requests at the placeholder and re-parks.
            canon_root.requested.store(false, Ordering::Release);
            drained.push(canon_root);
        }
        let (mut resumed, mut resumed_at) = (Vec::new(), Vec::new());
        for canon in drained {
            if let Some(ws) = book.pending.remove(&canon.key) {
                resumed_at.extend(std::iter::repeat_n(canon.handle(), ws.len()));
                resumed.extend(ws.into_iter().map(|w| (canon.key, w)));
            }
        }
        CacheStats::add(&self.stats.waiters_resumed, resumed.len() as u64);

        let duplicate = !fragment_wins[0] && !canon_root.is_placeholder();
        if duplicate {
            CacheStats::add(&self.stats.fills_duplicate, 1);
        }
        drop(book);

        Ok(FillOutcome { root: canon_root, resumed, resumed_at, duplicate })
    }

    /// Checks every structural invariant of the cached tree. Intended
    /// for debug builds at phase boundaries; takes the book-keeping lock
    /// (mutations are excluded, lock-free readers race benignly).
    ///
    /// Invariants checked:
    ///
    /// 1. every `resolved` key maps to a node with that key, reachable
    ///    from the root,
    /// 2. every reachable child's key equals `parent.key.child(slot)`,
    ///    and no child sits in a slot beyond the branch factor,
    /// 3. no placeholder (or leaf, or empty) node has children,
    /// 4. every `pending` key refers to a resolved placeholder (a waiter
    ///    parked on materialised data would sleep forever).
    ///
    /// Nothing reachable can have been freed: the store never removes a
    /// node, and a handle past its end panics where it is resolved.
    pub fn audit(&self) -> Result<(), String> {
        let book = self.book.lock();
        let Some(root) = self.root() else {
            return if book.resolved.is_empty() && book.pending.is_empty() {
                Ok(())
            } else {
                Err("cache has book-keeping entries but no published root".into())
            };
        };

        let branch = 1usize << self.bits;
        let mut errors: Vec<String> = Vec::new();
        let mut reachable: HashSet<u32> = HashSet::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if !reachable.insert(node.handle) {
                errors.push(format!("node {} is reachable via more than one path", node.key));
                continue;
            }
            let mut has_children = false;
            for slot in 0..node.children.len() {
                let Some(c) = self.child(node, slot) else { continue };
                has_children = true;
                if slot >= branch {
                    errors.push(format!(
                        "node {} has a child in slot {slot}, beyond branch factor {branch}",
                        node.key
                    ));
                }
                let child_key = c.key;
                let expected = node.key.child(slot, self.bits);
                if child_key != expected {
                    errors.push(format!(
                        "child of {} in slot {slot} has key {child_key}, expected {expected}",
                        node.key
                    ));
                }
                stack.push(c);
            }
            if has_children && node.kind != NodeKind::Internal {
                errors.push(format!("{:?} node {} has children", node.kind, node.key));
            }
        }

        for (&key, &h) in &book.resolved {
            let node = self.node(h);
            if node.key != key {
                errors.push(format!("resolved[{key}] points at node with key {}", node.key));
            }
            if !reachable.contains(&h.0) {
                errors.push(format!("resolved key {key} is not reachable from the root"));
            }
        }

        for (&key, waiters) in &book.pending {
            if waiters.is_empty() {
                continue;
            }
            let is_placeholder =
                book.resolved.get(&key).is_some_and(|&h| self.node(h).is_placeholder());
            if !is_placeholder {
                errors.push(format!(
                    "{} waiter(s) parked on {key}, which is not a resolved placeholder",
                    waiters.len()
                ));
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// [`CacheTree::audit`] plus the invariants a *fresh* build gets for
    /// free but incremental maintenance must actively preserve — run at
    /// the incremental-update phase boundary in debug builds:
    ///
    /// 1. **Bucket-size bounds** — every leaf holds at most
    ///    `bucket_size` particles unless its key has no room for deeper
    ///    digits (the depth-cap escape hatch fresh builds also use), and
    ///    its bucket's length matches its `n_particles` summary,
    /// 2. **Summary consistency** — every internal node's `n_particles`
    ///    equals the sum over its children (placeholder summaries
    ///    included: counts travel on the wire), every child's region box
    ///    sits inside its parent's, every leaf contains its particles,
    ///    and no internal node is childless (a patched-empty interior
    ///    must be pruned, not left dangling),
    /// 3. **No orphan placeholders** — every reachable placeholder is
    ///    the canonical `resolved` entry for its key, so a fill can
    ///    still replace it (a spliced-in subtree that re-hung a stale
    ///    placeholder would strand requests forever).
    pub fn audit_patched(&self, bucket_size: usize) -> Result<(), String> {
        self.audit()?;
        let book = self.book.lock();
        let Some(root) = self.root() else { return Ok(()) };
        let max_level = 63 / self.bits; // deepest level a key can encode
        let mut errors: Vec<String> = Vec::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            match node.kind {
                NodeKind::Leaf => {
                    let particles = self.particles(node);
                    if particles.len() != node.n_particles as usize {
                        errors.push(format!(
                            "leaf {} summarises {} particles but holds {}",
                            node.key,
                            node.n_particles,
                            particles.len()
                        ));
                    }
                    let at_depth_cap = node.key.level(self.bits) >= max_level;
                    if particles.len() > bucket_size && !at_depth_cap {
                        errors.push(format!(
                            "leaf {} holds {} particles, over bucket size {bucket_size}",
                            node.key,
                            particles.len()
                        ));
                    }
                    if let Some(p) = particles.iter().find(|p| !node.bbox.contains(p.pos)) {
                        errors.push(format!(
                            "leaf {} holds particle {} outside its region box",
                            node.key, p.id
                        ));
                    }
                }
                NodeKind::Internal => {
                    let mut n_children = 0u32;
                    let mut sum = 0u32;
                    for slot in 0..node.children.len() {
                        let Some(child) = self.child(node, slot) else { continue };
                        n_children += 1;
                        sum += child.n_particles;
                        let contained =
                            node.bbox.contains(child.bbox.lo) && node.bbox.contains(child.bbox.hi);
                        if !child.bbox.is_empty() && !contained {
                            errors.push(format!(
                                "child {} sticks out of parent {}'s region box",
                                child.key, node.key
                            ));
                        }
                        stack.push(child);
                    }
                    if n_children == 0 {
                        errors.push(format!("internal node {} has no children", node.key));
                    } else if sum != node.n_particles {
                        errors.push(format!(
                            "internal node {} summarises {} particles but its children sum to {sum}",
                            node.key, node.n_particles
                        ));
                    }
                }
                NodeKind::Placeholder => {
                    let canonical =
                        book.resolved.get(&node.key).is_some_and(|h| h.0 == node.handle);
                    if !canonical {
                        errors.push(format!(
                            "orphan placeholder {}: reachable but not the canonical entry",
                            node.key
                        ));
                    }
                }
                NodeKind::Empty => {}
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// Number of nodes appended so far (including superseded
    /// placeholders — the cache is no-delete).
    pub fn n_allocated(&self) -> usize {
        self.book.lock().n_nodes as usize
    }
}
