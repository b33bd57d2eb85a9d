//! The front-end phases: decomposition → tree builds → summary sharing →
//! skeleton + leaf sharing → traversal start. Each phase's tasks and
//! messages are spawned by [`Run::begin`] and counted by a [`Barrier`];
//! the last valid arrival releases the barrier and begins the next
//! phase. This module owns the barriers and the per-rank epochs that
//! guard them; what a crash does with them is `recovery`'s business.

use super::{Ev, Run, Sim, NO_SUBTREE};
use crate::visitor::Visitor;
use paratreet_runtime::{CrashPhase, Phase};

/// The pipeline stage a run is in — what [`Run::begin`] last began.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Stage {
    Decomposition,
    TreeBuild,
    /// Subtree summaries, all-to-all.
    Sharing,
    /// Per-rank skeleton builds, and leaf buckets to their Partitions.
    LeafSharing,
    Traversal,
}

impl Stage {
    /// The stage whose start a phase-triggered crash fires at.
    pub(super) fn of(phase: CrashPhase) -> Stage {
        match phase {
            CrashPhase::Decomposition => Stage::Decomposition,
            CrashPhase::TreeBuild => Stage::TreeBuild,
            CrashPhase::LeafSharing => Stage::LeafSharing,
            CrashPhase::Traversal => Stage::Traversal,
        }
    }

    /// `RecoveryStats::phase_idx` of a crash during this stage.
    pub(super) fn crash_index(self) -> u64 {
        match self {
            Stage::Decomposition => 0,
            Stage::TreeBuild => 1,
            Stage::Sharing | Stage::LeafSharing => 2,
            Stage::Traversal => 3,
        }
    }
}

/// Which barrier a front-end delivery counts toward. Leaf sharing has
/// two — the skeleton task each rank runs and the leaf buckets it
/// receives — because recovery replaces them differently; traversal
/// starts when both have released.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Gate {
    Decomp,
    Build,
    Share,
    Skeleton,
    Leaves,
}

/// Number of [`Gate`]s.
pub(super) const N_GATES: usize = 5;

/// One phase's barrier: deliveries still outstanding, in total and per
/// receiving rank.
#[derive(Clone)]
struct Barrier {
    left: usize,
    /// `owed[rank]`: deliveries to `rank` that were expected and have
    /// not validly arrived.
    owed: Vec<usize>,
}

/// The five barriers and the rank epochs that stamp their deliveries.
///
/// `owed` moves in two ways only: [`Barriers::expect`] when a phase
/// spawns a delivery, and a *valid* [`Barriers::arrive`]. A crash bumps
/// the rank's epoch, so whatever was in flight to it is discarded on
/// delivery and its owed counts freeze; a delivery expected of the rank
/// *after* the crash carries the new epoch and is counted as usual. At
/// any later instant — detection, in particular — `owed[rank]` is
/// therefore exactly what the crash lost and recovery must re-post, and
/// no barrier the rank owes can have released in between.
pub(super) struct Barriers {
    gates: [Barrier; N_GATES],
    epoch: Vec<u32>,
}

impl Barriers {
    pub(super) fn new(ranks: usize) -> Barriers {
        let gate = Barrier { left: 0, owed: vec![0; ranks] };
        Barriers { gates: std::array::from_fn(|_| gate.clone()), epoch: vec![0; ranks] }
    }

    /// `rank`'s current epoch: the stamp a delivery to it must carry.
    pub(super) fn epoch(&self, rank: u32) -> u32 {
        self.epoch[rank as usize]
    }

    /// One more delivery to `rank` that `gate` waits for.
    pub(super) fn expect(&mut self, gate: Gate, rank: u32) {
        let barrier = &mut self.gates[gate as usize];
        barrier.left += 1;
        barrier.owed[rank as usize] += 1;
    }

    /// A delivery stamped `re` reached `rank`. `None` when the stamp is
    /// stale (nothing moves); otherwise whether this arrival released
    /// the barrier.
    pub(super) fn arrive(&mut self, gate: Gate, rank: u32, re: u32) -> Option<bool> {
        if re != self.epoch(rank) {
            return None;
        }
        let barrier = &mut self.gates[gate as usize];
        barrier.owed[rank as usize] -= 1;
        barrier.left -= 1;
        Some(barrier.left == 0)
    }

    /// True while `gate` still waits for a delivery.
    pub(super) fn is_open(&self, gate: Gate) -> bool {
        self.gates[gate as usize].left > 0
    }

    /// `rank` crashed: everything in flight to it is void from now on.
    pub(super) fn crash(&mut self, rank: u32) {
        self.epoch[rank as usize] += 1;
    }

    /// What each gate is still owed by way of `rank`.
    pub(super) fn owed(&self, rank: u32) -> [usize; N_GATES] {
        std::array::from_fn(|g| self.gates[g].owed[rank as usize])
    }
}

impl<V: Visitor> Run<'_, V> {
    /// A front-end delivery to `rank` for `gate`, stamped with the
    /// rank's current epoch.
    pub(super) fn arrival(&self, gate: Gate, rank: u32) -> Ev<V::Data> {
        Ev::Arrive { gate, rank, re: self.barriers.epoch(rank), si: NO_SUBTREE }
    }

    /// Counts one delivery; the last one of a phase begins the next.
    pub(super) fn on_arrive(&mut self, sim: &mut Sim<V>, gate: Gate, rank: u32, re: u32, si: u32) {
        let Some(released) = self.barriers.arrive(gate, rank, re) else {
            return self.discard();
        };
        if si != NO_SUBTREE && self.needs_graft[si as usize] {
            // A re-sharded subtree finished building at its new owner:
            // graft it so fetches can be served there.
            self.graft(sim, si as usize);
        }
        if !released {
            return;
        }
        match gate {
            Gate::Decomp => self.begin(sim, Stage::TreeBuild),
            Gate::Build => self.begin(sim, Stage::Sharing),
            Gate::Share => self.begin(sim, Stage::LeafSharing),
            Gate::Skeleton | Gate::Leaves => {
                if !self.barriers.is_open(Gate::Skeleton) && !self.barriers.is_open(Gate::Leaves) {
                    self.begin(sim, Stage::Traversal);
                }
            }
        }
    }

    /// Begins `stage`: fires a crash scheduled for its start, then
    /// spawns its tasks and messages on the current owners, expecting
    /// each at its barrier.
    pub(super) fn begin(&mut self, sim: &mut Sim<V>, stage: Stage) {
        self.stage = stage;
        if self.crash_at == Some(stage) && !self.crash_fired {
            sim.post(Ev::Crash);
        }
        match stage {
            Stage::Decomposition => self.begin_decomposition(sim),
            Stage::TreeBuild => self.begin_builds(sim),
            Stage::Sharing => self.begin_sharing(sim),
            Stage::LeafSharing => self.begin_leaf_sharing(sim),
            Stage::Traversal => self.begin_traversal(sim),
        }
    }

    /// The model spreads each rank's sort over its workers (the real
    /// engines' decomposition sort is one serial `sort_by_sfc_key`, not
    /// a region).
    fn begin_decomposition(&mut self, sim: &mut Sim<V>) {
        for r in 0..self.ranks {
            for _ in 0..self.tasks.decomp_per_rank {
                self.barriers.expect(Gate::Decomp, r);
                let done = self.arrival(Gate::Decomp, r);
                sim.spawn(r, Phase::Decomposition, self.tasks.decomp, done);
            }
        }
    }

    /// Tree builds, one task per Subtree, on the subtree's current owner.
    fn begin_builds(&mut self, sim: &mut Sim<V>) {
        for si in 0..self.owner.len() {
            let cost = self.tasks.subtree_build[si];
            let rank = self.owner[si];
            let si = if self.needs_graft[si] { si as u32 } else { NO_SUBTREE };
            self.barriers.expect(Gate::Build, rank);
            let re = self.barriers.epoch(rank);
            sim.spawn(rank, Phase::TreeBuild, cost, Ev::Arrive { gate: Gate::Build, rank, re, si });
        }
    }

    /// Summaries all-to-all among the living. With one rank left (or one
    /// rank total) the barrier is satisfied by a single local event.
    fn begin_sharing(&mut self, sim: &mut Sim<V>) {
        let payload = self.front.summaries.len() as u64 * self.engine.costs.summary_bytes;
        let alive = |r: &u32| !self.down[*r as usize];
        let living: Vec<u32> = (0..self.ranks).filter(alive).collect();
        for &from in &living {
            for &to in living.iter().filter(|&&to| to != from) {
                self.barriers.expect(Gate::Share, to);
                sim.send(from, to, payload / self.ranks as u64, self.arrival(Gate::Share, to));
            }
        }
        if living.len() < 2 {
            let to = living.first().copied().unwrap_or(0);
            self.barriers.expect(Gate::Share, to);
            sim.post(self.arrival(Gate::Share, to));
        }
    }

    /// A small skeleton-build task per living rank, then leaf buckets
    /// flow from each subtree's current owner to its partition's
    /// current rank.
    fn begin_leaf_sharing(&mut self, sim: &mut Sim<V>) {
        for r in (0..self.ranks).filter(|&r| !self.down[r as usize]) {
            self.barriers.expect(Gate::Skeleton, r);
            let built = self.arrival(Gate::Skeleton, r);
            sim.spawn(r, Phase::ShareTopLevels, self.tasks.skeleton, built);
        }
        for i in 0..self.leaf_pairs.len() {
            let (si, part, bytes) = self.leaf_pairs[i];
            let (from, to) = (self.owner[si as usize], self.parts[part as usize].rank);
            if from != to {
                self.barriers.expect(Gate::Leaves, to);
                sim.send(from, to, bytes, self.arrival(Gate::Leaves, to));
            }
        }
    }

    /// Set-up is complete: stamp the stage-0 flight row and seed every
    /// partition's traversal.
    fn begin_traversal(&mut self, sim: &mut Sim<V>) {
        #[cfg(debug_assertions)]
        self.front.audit(self.config, "at traversal start");
        self.tally.traversal_start = sim.now();
        self.engine.sample_flight(sim, sim.now(), 0, self.tally.fetch_retries);
        for p in 0..self.parts.len() {
            sim.post(Ev::PartRun { part: p as u32, pe: self.part_epoch[p] });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_barrier_releases_exactly_once_at_zero() {
        let mut b = Barriers::new(3);
        for rank in [0, 1, 1, 2] {
            b.expect(Gate::Build, rank);
        }
        assert!(b.is_open(Gate::Build) && !b.is_open(Gate::Share));
        let released = [1, 0, 2, 1].map(|r| b.arrive(Gate::Build, r, 0));
        assert_eq!(released, [Some(false), Some(false), Some(false), Some(true)]);
        assert!(!b.is_open(Gate::Build));
        assert_eq!(b.owed(1), [0; N_GATES]);
    }

    #[test]
    fn a_stale_epoch_arrival_moves_nothing() {
        let mut b = Barriers::new(2);
        b.expect(Gate::Leaves, 1);
        b.expect(Gate::Leaves, 1);
        let stamp = b.epoch(1);
        b.crash(1);
        assert_eq!(b.arrive(Gate::Leaves, 1, stamp), None);
        assert_eq!(b.arrive(Gate::Leaves, 1, stamp), None);
        assert_eq!(b.owed(1)[Gate::Leaves as usize], 2);
        assert!(b.is_open(Gate::Leaves));
    }

    /// What the barrier is owed by way of the dead rank is what was in
    /// flight to it at the crash, and re-posting exactly that many
    /// deliveries under the new epoch releases the barrier — once.
    #[test]
    fn owed_after_a_crash_is_what_recovery_reposts() {
        let mut b = Barriers::new(2);
        for rank in [0, 0, 1, 1, 1] {
            b.expect(Gate::Share, rank);
        }
        let stamp = b.epoch(1);
        assert_eq!(b.arrive(Gate::Share, 1, stamp), Some(false));
        b.crash(1);
        // The two in flight are discarded; the survivor's own arrive.
        assert_eq!(b.arrive(Gate::Share, 1, stamp), None);
        assert_eq!(b.arrive(Gate::Share, 1, stamp), None);
        assert_eq!(b.arrive(Gate::Share, 0, 0), Some(false));
        assert_eq!(b.arrive(Gate::Share, 0, 0), Some(false));
        let owed = b.owed(1)[Gate::Share as usize];
        assert_eq!(owed, 2, "read at detection, equal to what the crash voided");
        let reposted: Vec<Option<bool>> =
            (0..owed).map(|_| b.arrive(Gate::Share, 1, b.epoch(1))).collect();
        assert_eq!(reposted, [Some(false), Some(true)]);
    }
}
