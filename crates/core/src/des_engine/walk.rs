//! The partition walk and the fetch → serve → fill → resume pipeline
//! behind it. A Partition is a chare: its work batches are
//! run-to-completion tasks serialised on the partition's own resource,
//! a placeholder hit parks the interested buckets and asks the key's
//! home rank for a fill, and the fill's insertion resumes every
//! traversal parked on a key it materialised.

use super::{Ev, Run, Sim};
use crate::config::TraversalKind;
use crate::traversal::{
    drain, resume, seed_items, CacheModel, PendingFetch, TargetsOf, WorkCounts, WorkStack,
};
use crate::visitor::Visitor;
use paratreet_cache::{CacheError, NodeHandle, RequestOutcome};
use paratreet_geometry::NodeKey;
use paratreet_runtime::{FaultAction, FaultInjector, Phase};
use paratreet_telemetry::Track;
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A node of the cache visitor `V`'s traversals walk.
type Handle<V> = NodeHandle<<V as Visitor>::Data>;

/// XWrite lock resource ids (one per rank) sit above every partition's.
const LOCK_BASE: u64 = 1 << 48;

/// One fetch on the wire: `key`, asked of rank `home` for cache
/// instance `to_cache` of rank `requester`.
#[derive(Clone, Copy)]
pub(super) struct Fetch {
    key: NodeKey,
    home: u32,
    to_cache: u32,
    requester: u32,
}

/// Per-partition chare state.
pub(super) struct PartState<V: Visitor> {
    pub(super) rank: u32,
    pub(super) cache_idx: u32,
    pub(super) targets: TargetsOf<V>,
    stack: WorkStack<V::Data>,
    /// Bucket sets of the items parked on a fetch, by awaited key. A
    /// batch drains on past its fetches, so a parked item owns its copy;
    /// the fill hands back the node.
    paused: HashMap<NodeKey, Vec<Vec<u32>>>,
    outstanding: usize,
    /// Work batches spawned whose `PartWorkDone` has not fired yet.
    in_flight: usize,
    /// Accumulated traversal cost (the chare's measured load).
    pub(super) cost: f64,
    /// Interaction counts this partition has accumulated; discarded on
    /// crash reset so re-executed work is never double-counted.
    pub(super) counts: WorkCounts,
    seeded: bool,
    resumed_once: bool,
    finished: bool,
}

impl<V: Visitor> PartState<V> {
    pub(super) fn new(rank: u32, cache_idx: u32, targets: TargetsOf<V>) -> PartState<V> {
        PartState {
            rank,
            cache_idx,
            targets,
            stack: WorkStack::new(),
            paused: HashMap::new(),
            outstanding: 0,
            in_flight: 0,
            cost: 0.0,
            counts: WorkCounts::default(),
            seeded: false,
            resumed_once: false,
            finished: false,
        }
    }

    /// Wipes the volatile traversal state after the partition's rank
    /// crashed: clear the stack and parked fetches, restore bucket state
    /// *and particles* to their pre-iteration values (`fresh`: the
    /// Partition's targets assembled again) so re-running applies every
    /// effect exactly once. Returns whether the partition had finished.
    pub(super) fn reset(&mut self, fresh: TargetsOf<V>) -> bool {
        let PartState { rank, cache_idx, cost, finished, .. } = *self;
        *self = PartState { cost, ..PartState::new(rank, cache_idx, fresh) };
        finished
    }
}

impl<V: Visitor> Run<'_, V> {
    /// Routes one engine message through the fault layer: deliver, drop,
    /// duplicate, or delay it per the injector's seeded decision stream.
    /// With no injector this is exactly [`paratreet_runtime::Sim::send`].
    fn send(&mut self, sim: &mut Sim<V>, from: u32, to: u32, bytes: u64, ev: Ev<V::Data>) {
        match self.injector.as_mut().map(FaultInjector::decide) {
            None | Some(FaultAction::Deliver) => sim.send(from, to, bytes, ev),
            Some(FaultAction::Drop) => {}
            Some(FaultAction::Duplicate) => {
                sim.send(from, to, bytes, ev.clone());
                sim.send(from, to, bytes, ev);
            }
            Some(FaultAction::Delay(extra)) => sim.send_delayed(from, to, bytes, extra, ev),
        }
    }

    /// Sends `fetch` to its home rank — unless that rank is down — and,
    /// when faults are on, arms the timer that re-asks if no fill comes.
    fn send_fetch(&mut self, sim: &mut Sim<V>, fetch: Fetch, retry: bool) {
        if !self.down[fetch.home as usize] {
            if retry {
                self.tally.fetch_retries += 1;
                sim.telemetry.count("des.fetch_retries", 1);
            }
            let bytes = self.engine.costs.request_bytes;
            self.send(sim, fetch.requester, fetch.home, bytes, Ev::RequestArrive(fetch));
        }
        if self.injector.is_some() {
            sim.post_after(self.retry_timeout, Ev::FetchTimeout(fetch));
        }
    }

    /// A fill or a fetch the cache could not take: logged by the caller,
    /// counted here, and left to the retry timer.
    fn fill_error(&mut self, sim: &mut Sim<V>) {
        self.tally.fill_errors += 1;
        sim.telemetry.count("des.fill_errors", 1);
    }

    /// Every `(key, waiter)` a fill or graft released resumes on its
    /// own, at the node `at` names for it.
    pub(super) fn resume(&mut self, sim: &mut Sim<V>, ws: Vec<(NodeKey, u64)>, at: Vec<Handle<V>>) {
        for ((_, waiter), node) in ws.into_iter().zip(at) {
            let part = waiter as u32;
            let rank = self.parts[part as usize].rank;
            let pe = self.part_epoch[part as usize];
            let cost = self.engine.costs.resume;
            sim.spawn(rank, Phase::TraversalResumption, cost, Ev::Resumed { part, pe, node });
        }
    }

    /// Whether the rank behind cache `to_cache` is gone — what is headed
    /// for it is discarded.
    fn is_lost(&self, to_cache: u32) -> bool {
        let cache = &self.front.caches[to_cache as usize];
        self.down[cache.rank as usize] || cache.is_dead()
    }

    /// (Re)processes a partition's work list as one run-to-completion
    /// batch.
    pub(super) fn on_part_run(&mut self, sim: &mut Sim<V>, part: u32, pe: u32) {
        if pe != self.part_epoch[part as usize] {
            return self.discard();
        }
        let ps = &mut self.parts[part as usize];
        if self.down[ps.rank as usize] {
            // Traversal began without the rank: a restart relaunches it.
            self.launch_missed = true;
            return;
        }
        let cache = &self.front.caches[ps.cache_idx as usize];
        let (visitor, kind) = (self.engine.visitor, self.engine.kind);
        if !ps.seeded {
            ps.seeded = true;
            ps.stack = seed_items::<V>(cache, kind, &ps.targets);
        }
        // The event that parks a fetch carries its copy of the buckets.
        // Up-and-down stops at its first fetch: its pruning bounds tighten
        // as items complete in order, so racing ahead with untightened
        // bounds would fetch (and evaluate) far more remote data than the
        // sequential schedule. Every other schedule runs the stack dry.
        let ordered = kind == TraversalKind::UpAndDown;
        let mut fetches: Vec<(NodeKey, Vec<u32>)> = Vec::new();
        let park = |fetch: PendingFetch<V::Data>, buckets: &[u32]| {
            fetches.push((fetch.key, buckets.to_vec()));
            if ordered {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let batch = drain(cache, visitor, self.apply, &mut ps.targets, &mut ps.stack, park);
        ps.counts += batch;
        let phase = if ps.resumed_once { Phase::RemoteTraversal } else { Phase::LocalTraversal };
        ps.in_flight += 1;
        let batch_cost = self.engine.costs.work(&batch).max(1e-9);
        ps.cost += batch_cost;
        let done = Ev::PartWorkDone { part, pe, fetches };
        sim.spawn_exclusive(ps.rank, part as u64 + 1, phase, batch_cost, done);
    }

    /// A batch finished: release its effects — each surrendered fetch
    /// either finds its fill already landed or parks on a request.
    pub(super) fn on_part_work_done(
        &mut self,
        sim: &mut Sim<V>,
        part: u32,
        pe: u32,
        fetches: Vec<(NodeKey, Vec<u32>)>,
    ) {
        if pe != self.part_epoch[part as usize] {
            return self.discard();
        }
        let (rank, cache_idx) =
            (self.parts[part as usize].rank, self.parts[part as usize].cache_idx);
        let cache = &self.front.caches[cache_idx as usize];
        let kind = self.engine.kind;
        self.parts[part as usize].in_flight -= 1;
        let mut rerun = false;
        for (key, buckets) in fetches {
            // Re-find the placeholder (it may have been swapped). The
            // skeleton guarantees the key exists; a miss is an engine
            // bug, not a recoverable message fault.
            let Some(node) = cache.find(key) else {
                debug_assert!(false, "fetch target {key} missing from skeleton");
                self.fill_error(sim);
                continue;
            };
            let ready = if !node.is_placeholder() {
                // The fill landed while the batch was busy.
                Some(node)
            } else {
                match cache.request(node, part as u64) {
                    RequestOutcome::Ready(n) => Some(n),
                    RequestOutcome::SendFetch { home_rank } => {
                        // Small CPU cost to issue the request.
                        sim.ledger.record(sim.now(), sim.now(), Phase::CacheRequest);
                        let track = Track { rank, worker: 0 };
                        let at = sim.now() * 1e6;
                        sim.telemetry.span_at(track, "cache request", at, 0.0, Some(key.raw()));
                        let home = self.route(key, home_rank);
                        let fetch = Fetch { key, home, to_cache: cache_idx, requester: rank };
                        self.send_fetch(sim, fetch, false);
                        None
                    }
                    RequestOutcome::InFlight => None,
                }
            };
            let ps = &mut self.parts[part as usize];
            match ready {
                Some(n) => {
                    ps.stack.push(n.handle(), &buckets);
                    resume::<V>(cache, kind, &ps.targets, &mut ps.stack, n.handle());
                    rerun = true;
                }
                None => {
                    ps.paused.entry(key).or_default().push(buckets);
                    ps.outstanding += 1;
                }
            }
        }
        let ps = &mut self.parts[part as usize];
        if rerun {
            sim.post(Ev::PartRun { part, pe });
        } else if ps.stack.is_empty() && ps.outstanding == 0 && ps.in_flight == 0 && !ps.finished {
            ps.finished = true;
            self.tally.parts_done += 1;
        }
    }

    /// A fetch request arrived at the home rank. The authoritative copy
    /// lives in every cache instance of that rank (with PerThread they
    /// all graft the local trees), so its first cache serves.
    pub(super) fn on_request(&mut self, sim: &mut Sim<V>, fetch: Fetch) {
        let Fetch { key, home, .. } = fetch;
        let home_cache = &self.front.caches[(home * self.caches_per_rank) as usize];
        // After a crash a re-sharded subtree may not be grafted at its
        // new owner yet; drop and let the retry timer re-ask.
        let grafted = || home_cache.find(key).is_some_and(|n| !n.is_placeholder());
        if self.down[home as usize] || home_cache.is_dead() || (self.crash.is_some() && !grafted())
        {
            self.tally.rec.dead_requests += 1;
            return;
        }
        match home_cache.serialize_fragment(key, self.config.fetch_depth) {
            Ok(bytes) => {
                let costs = &self.engine.costs;
                let cost = costs.serialize_per_byte * bytes.len() as f64 + costs.insert_fixed / 2.0;
                sim.spawn(home, Phase::FillServe, cost, Ev::FillServeDone { fetch, bytes });
            }
            Err(e) => {
                // The home rank cannot serve this key. Drop the request;
                // the requester's retry timer re-issues it rather than
                // aborting the simulation.
                self.fill_error(sim);
                eprintln!("des: fetch for {key} failed at home rank {home}: {e}");
            }
        }
    }

    /// The home rank finished serialising a fill: put it on the wire.
    pub(super) fn on_fill_served(&mut self, sim: &mut Sim<V>, fetch: Fetch, bytes: Vec<u8>) {
        if self.is_lost(fetch.to_cache) {
            return self.discard();
        }
        let (nbytes, to_cache) = (bytes.len() as u64, fetch.to_cache);
        self.send(sim, fetch.home, fetch.requester, nbytes, Ev::FillArrive { to_cache, bytes });
    }

    /// A fill arrived at the requesting rank: insert it on the least busy
    /// worker — under the rank's one lock in the XWrite model.
    pub(super) fn on_fill_arrive(&mut self, sim: &mut Sim<V>, to_cache: u32, bytes: Vec<u8>) {
        if self.is_lost(to_cache) {
            return self.discard();
        }
        let rank = self.front.caches[to_cache as usize].rank;
        let costs = &self.engine.costs;
        let cost = costs.insert_fixed + costs.insert_per_byte * bytes.len() as f64;
        let done = Ev::InsertDone { to_cache, bytes };
        if self.engine.cache_model == CacheModel::XWrite {
            let lock = LOCK_BASE + rank as u64;
            sim.spawn_exclusive(rank, lock, Phase::CacheInsertion, cost, done);
        } else {
            sim.spawn(rank, Phase::CacheInsertion, cost, done);
        }
    }

    /// An insertion task completed: splice and resume.
    pub(super) fn on_insert_done(&mut self, sim: &mut Sim<V>, to_cache: u32, bytes: &[u8]) {
        if self.is_lost(to_cache) {
            return self.discard();
        }
        match self.front.caches[to_cache as usize].insert_fragment(bytes) {
            // A fill may materialise several keys at once (a deep
            // fragment covering earlier shallow waits).
            Ok(outcome) => self.resume(sim, outcome.resumed, outcome.resumed_at),
            // A fill serialised before the crash: reject it silently —
            // the retry machinery re-fetches under the new epoch.
            Err(CacheError::StaleEpoch { .. }) => self.tally.rec.stale_fills += 1,
            Err(e) => {
                // A bad fill degrades to a logged drop; the placeholder
                // stays pending and the retry timer re-requests it.
                self.fill_error(sim);
                eprintln!("des: fill rejected by cache {to_cache}: {e}");
            }
        }
    }

    /// A paused partition's resumption task completed: its items parked
    /// on `node`'s key go back on its stack and resume at `node`.
    pub(super) fn on_resumed(&mut self, sim: &mut Sim<V>, part: u32, pe: u32, node: Handle<V>) {
        if pe != self.part_epoch[part as usize] {
            return self.discard();
        }
        let ps = &mut self.parts[part as usize];
        let cache = &self.front.caches[ps.cache_idx as usize];
        let Some(items) = ps.paused.remove(&cache.node(node).key) else { return };
        for buckets in items {
            ps.outstanding -= 1;
            ps.stack.push(node, &buckets);
            resume::<V>(cache, self.engine.kind, &ps.targets, &mut ps.stack, node);
        }
        ps.resumed_once = true;
        sim.post(Ev::PartRun { part, pe });
    }

    /// A fetch's retry timer expired: re-request only if the fill never
    /// landed (the fetch or the fill was dropped, or both are still
    /// delayed — a duplicate fill is idempotent, so over-asking is safe).
    /// While the owner is down (crashed, not yet restarted or
    /// re-sharded) only the timer is kept alive.
    pub(super) fn on_fetch_timeout(&mut self, sim: &mut Sim<V>, fetch: Fetch) {
        let requester_cache = &self.front.caches[fetch.to_cache as usize];
        if self.down[fetch.requester as usize] || requester_cache.is_dead() {
            return;
        }
        let pending = requester_cache.find(fetch.key).is_some_and(|n| n.is_placeholder());
        if pending && self.injector.is_some() {
            let home = self.route(fetch.key, fetch.home);
            self.send_fetch(sim, Fetch { home, ..fetch }, true);
        }
    }
}
