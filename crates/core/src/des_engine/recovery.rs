//! Rank crash-stop and recovery (module docs of `des_engine`). This
//! module alone knows the protocol: the crash voids the rank's epoch and
//! resets its partitions; detection, one retry timeout later, reads what
//! each barrier is still owed by way of the rank
//! ([`Barriers::owed`](super::phases::Barriers)) and either re-shards
//! its subtrees and partitions onto the survivors or walks the restart
//! chain — read the checkpoint, rebuild the subtrees, rejoin the
//! barrier the crash interrupted — re-posting exactly those deliveries.

use super::phases::{Gate, Stage};
use super::{Ev, Run, Sim};
use crate::visitor::Visitor;
use paratreet_geometry::NodeKey;
use paratreet_particles::io::PARTICLE_WIRE_BYTES;
use paratreet_runtime::{CrashConfig, Phase};
use paratreet_tree::BuiltTree;

impl<V: Visitor> Run<'_, V> {
    fn crash_config(&self) -> CrashConfig {
        self.crash.expect("crash events are only posted when a crash is configured")
    }

    /// Ranks that are up, other than `except`.
    fn survivors(&self, except: u32) -> Vec<u32> {
        (0..self.ranks).filter(|&r| r != except && !self.down[r as usize]).collect()
    }

    /// Subtrees `rank` owns.
    fn owned_by(&self, rank: u32) -> Vec<usize> {
        (0..self.owner.len()).filter(|&si| self.owner[si] == rank).collect()
    }

    /// Restores one subtree from the checkpoint (bit-identical to the
    /// tree that was built this iteration).
    fn restore(&self, si: usize) -> BuiltTree<V::Data> {
        self.checkpoint.as_ref().expect("checkpoint exists when a crash is configured")[si].clone()
    }

    /// Posts `n` deliveries to the crashed rank at `gate` under its new
    /// epoch: the barrier absorbs what the crash voided.
    fn repost(&self, sim: &mut Sim<V>, gate: Gate, rank: u32, n: usize) {
        for _ in 0..n {
            sim.post(self.arrival(gate, rank));
        }
    }

    /// Reading `bytes` back from stable storage, as a recovery cost.
    fn restore_task(&mut self, sim: &mut Sim<V>, rank: u32, bytes: u64, done: Ev<V::Data>) {
        self.tally.rec.restored_bytes += bytes;
        self.copy_task(sim, rank, Phase::Recovery, bytes, done);
    }

    /// Resolves the *current* home of `key` for a fetch: after a
    /// re-shard the cache's baked-in home rank may be stale, so walk
    /// ancestors up to the enclosing subtree root and read the live
    /// owner table. Keys above every subtree root (the shared top
    /// levels) keep `home_rank`.
    pub(super) fn route(&self, key: NodeKey, home_rank: u32) -> u32 {
        if self.crash.is_none() {
            return home_rank;
        }
        let bits = self.config.tree_type.bits_per_level();
        let mut k = key;
        loop {
            if let Some(&si) = self.subtree_index.get(&k) {
                return self.owner[si];
            }
            let parent = k.parent(bits);
            if parent == k {
                return home_rank;
            }
            k = parent;
        }
    }

    /// Grafts a restored subtree into every cache instance of its (new)
    /// home rank and resumes any traversals parked on its root
    /// placeholder.
    pub(super) fn graft(&mut self, sim: &mut Sim<V>, si: usize) {
        let home = self.owner[si];
        let first = (home * self.caches_per_rank) as usize;
        let caches = &self.front.caches[first..first + self.caches_per_rank as usize];
        for cache in caches {
            match cache.insert_subtree(self.restore(si), home) {
                Ok(outcome) => self.resume(sim, outcome.resumed, outcome.resumed_at),
                Err(_) => self.tally.fill_errors += 1,
            }
        }
        self.needs_graft[si] = false;
    }

    /// The configured rank dies now: everything in flight to or from it
    /// is void, its partitions lose their volatile state. Survivors
    /// notice when the rank stops answering — the same timeout that
    /// drives fetch retries.
    pub(super) fn on_crash(&mut self, sim: &mut Sim<V>) {
        if self.crash_fired {
            return;
        }
        self.crash_fired = true;
        let c = self.crash_config();
        self.tally.rec.count += 1;
        self.tally.rec.crash_time_s = sim.now();
        self.tally.rec.phase_idx = self.stage.crash_index();
        self.down[c.rank as usize] = true;
        self.barriers.crash(c.rank);
        for p in 0..self.parts.len() {
            if self.parts[p].rank == c.rank {
                // In-flight partition events become stale.
                self.part_epoch[p] += 1;
                let fresh = self.front.targets(self.engine.visitor, p);
                self.tally.parts_done -= self.parts[p].reset(fresh) as usize;
            }
        }
        sim.telemetry.count("fault.crash", 1);
        sim.post_after(self.retry_timeout, Ev::CrashDetected);
    }

    /// The retry timeout elapsed since the crash: survivors react.
    pub(super) fn on_crash_detected(&mut self, sim: &mut Sim<V>) {
        let c = self.crash_config();
        self.tally.rec.detected_s = sim.now();
        self.lost = self.barriers.owed(c.rank);
        // Globally invalidate fills serialised before the crash, and
        // re-arm placeholders whose fetches died with the rank.
        self.cache_epoch += 1;
        for cache in &self.front.caches {
            cache.set_epoch(self.cache_epoch);
        }
        for cache in &self.front.caches {
            self.tally.rec.rearmed_keys += cache.on_owner_crash(c.rank) as u64;
        }
        if c.restart {
            sim.post_after(c.restart_delay_s, Ev::RecoverStep { stage: 0 });
        } else {
            self.reshard(sim, c.rank);
        }
    }

    /// Stay-dead recovery: the survivors adopt the dead rank's subtrees
    /// and partitions, and the barriers absorb what it owed.
    fn reshard(&mut self, sim: &mut Sim<V>, dead: u32) {
        let alive = self.survivors(dead);
        let resharded = self.owned_by(dead);
        for (i, &si) in resharded.iter().enumerate() {
            self.owner[si] = alive[i % alive.len()];
            self.needs_graft[si] = true;
        }
        self.tally.rec.resharded_subtrees = resharded.len() as u64;
        for i in 0..self.caches_per_rank {
            self.front.caches[(dead * self.caches_per_rank + i) as usize].mark_dead();
        }
        // Adopt the dead rank's partitions (already reset at the crash);
        // their buckets re-load from the checkpointed particles.
        let mut moved = 0usize;
        for p in 0..self.parts.len() {
            if self.parts[p].rank != dead {
                continue;
            }
            let new_rank = alive[moved % alive.len()];
            moved += 1;
            self.parts[p].rank = new_rank;
            self.parts[p].cache_idx =
                new_rank * self.caches_per_rank + p as u32 % self.caches_per_rank;
            let bytes = (self.parts[p].targets.n_particles() * PARTICLE_WIRE_BYTES) as u64 + 8;
            Self::charge(sim, bytes);
            self.tally.rec.restored_bytes += bytes;
            if self.stage == Stage::Traversal {
                sim.post(Ev::PartRun { part: p as u32, pe: self.part_epoch[p] });
            }
        }
        self.tally.rec.moved_partitions = moved as u64;
        let lost = self.lost;
        if lost[Gate::Decomp as usize] > 0 {
            // Survivors redo the dead rank's share of the sort; the
            // build barrier then spawns on the new owners and grafts
            // ride the normal path.
            for i in 0..lost[Gate::Decomp as usize] {
                let redone = self.arrival(Gate::Decomp, dead);
                sim.spawn(alive[i % alive.len()], Phase::Decomposition, self.tasks.decomp, redone);
            }
            self.tally.rec.completed_s = sim.now();
        } else {
            // Read each lost subtree's checkpoint at its new owner,
            // rebuild, graft; owed build-barrier deliveries are
            // re-posted as rebuilds land.
            self.owed_build = lost[Gate::Build as usize];
            self.rebuilds_left = resharded.len();
            for &si in &resharded {
                let restored = Ev::SubtreeRestored { si: si as u32 };
                self.restore_task(sim, self.owner[si], self.ckpt_subtree_bytes[si], restored);
            }
            if resharded.is_empty() {
                self.tally.rec.completed_s = sim.now();
            }
        }
        for gate in [Gate::Share, Gate::Skeleton, Gate::Leaves] {
            self.repost(sim, gate, dead, lost[gate as usize]);
        }
    }

    /// Restart-mode recovery chain; stages run in order 0..=3.
    pub(super) fn on_recover_step(&mut self, sim: &mut Sim<V>, stage: u8) {
        let rank = self.crash_config().rank;
        match stage {
            0 => {
                // The rank is back: read its checkpoint.
                self.tally.rec.restarted = 1;
                let bytes = self.ckpt_rank_bytes[rank as usize];
                self.restore_task(sim, rank, bytes, Ev::RecoverStep { stage: 1 });
            }
            1 => self.restart_rebuild(sim, rank),
            2 => self.restart_share(sim, rank),
            _ => self.restart_rejoin(sim, rank),
        }
    }

    /// Stage 1: redo the sort the crash hit, or rebuild the rank's
    /// subtrees from the checkpoint.
    fn restart_rebuild(&mut self, sim: &mut Sim<V>, rank: u32) {
        let lost_sorts = self.lost[Gate::Decomp as usize];
        if lost_sorts > 0 {
            // Crash hit the sort: redo the owed share locally; the rest
            // of the pipeline follows from the barriers.
            self.down[rank as usize] = false;
            for _ in 0..lost_sorts {
                let redone = self.arrival(Gate::Decomp, rank);
                sim.spawn(rank, Phase::Decomposition, self.tasks.decomp, redone);
            }
            self.tally.rec.completed_s = sim.now();
            return;
        }
        // All of this rank's subtrees rebuild from the checkpoint (its
        // memory is gone, even for builds that had finished).
        if self.tally.rec.phase_idx < 3 {
            self.down[rank as usize] = false;
        }
        self.owed_build = self.lost[Gate::Build as usize];
        let owned = self.owned_by(rank);
        self.rebuilds_left = owned.len();
        if owned.is_empty() {
            sim.post(Ev::RecoverStep { stage: 2 });
        }
        for si in owned {
            let rebuilt = Ev::SubtreeRebuilt { si: si as u32 };
            sim.spawn(rank, Phase::TreeBuild, self.tasks.subtree_build[si], rebuilt);
        }
    }

    /// Stage 2: rejoin the summary share the crash hit, or move on to
    /// the skeleton.
    fn restart_share(&mut self, sim: &mut Sim<V>, rank: u32) {
        let lost = self.lost;
        if lost[Gate::Share as usize] > 0 {
            // Survivors re-send the summaries the rank lost; the share
            // barrier then releases with everyone alive.
            let payload = self.front.summaries.len() as u64 * self.engine.costs.summary_bytes
                / self.ranks as u64;
            let alive = self.survivors(rank);
            for i in 0..lost[Gate::Share as usize] {
                sim.send(alive[i % alive.len()], rank, payload, self.arrival(Gate::Share, rank));
            }
            self.tally.rec.completed_s = sim.now();
        } else if lost[Gate::Skeleton as usize] + lost[Gate::Leaves as usize] > 0
            || self.tally.rec.phase_idx == 3
            || self.launch_missed
        {
            // Redo the skeleton build before rejoining the leaf-share
            // barrier or traversal.
            let redone = Ev::RecoverStep { stage: 3 };
            sim.spawn(rank, Phase::ShareTopLevels, self.tasks.skeleton, redone);
        } else {
            // Crash hit decomposition or build: the barriers already
            // carry the redone work.
            self.tally.rec.completed_s = sim.now();
        }
    }

    /// Stage 3: the skeleton is rebuilt — rejoin leaf sharing, or the
    /// traversal.
    fn restart_rejoin(&mut self, sim: &mut Sim<V>, rank: u32) {
        let lost = self.lost;
        if lost[Gate::Skeleton as usize] + lost[Gate::Leaves as usize] > 0 {
            // Crash hit leaf sharing: absorb the redone skeleton and
            // re-send the lost leaf buckets from their current owners.
            self.repost(sim, Gate::Skeleton, rank, lost[Gate::Skeleton as usize]);
            let mut need = lost[Gate::Leaves as usize];
            for &(si, part, bytes) in &self.leaf_pairs {
                if need == 0 {
                    break;
                }
                let from = self.owner[si as usize];
                if self.parts[part as usize].rank == rank && from != rank {
                    need -= 1;
                    sim.send(from, rank, bytes, self.arrival(Gate::Leaves, rank));
                }
            }
            self.repost(sim, Gate::Leaves, rank, need);
        } else {
            // Traversal-phase restart: re-initialise the rank's caches
            // from the rebuilt subtrees (remote fills are gone;
            // placeholders re-fetch on demand) and relaunch its
            // partitions from their reset state.
            let owned = self.owned_by(rank);
            for i in 0..self.caches_per_rank {
                let local = owned.iter().map(|&si| self.restore(si)).collect();
                let cache = &self.front.caches[(rank * self.caches_per_rank + i) as usize];
                cache.reinit(&self.front.summaries, local);
            }
            self.down[rank as usize] = false;
            for p in 0..self.parts.len() {
                if self.parts[p].rank == rank {
                    sim.post(Ev::PartRun { part: p as u32, pe: self.part_epoch[p] });
                }
            }
        }
        self.tally.rec.completed_s = sim.now();
    }

    /// A re-sharded subtree's checkpoint finished reading at its new
    /// owner: rebuild there.
    pub(super) fn on_subtree_restored(&mut self, sim: &mut Sim<V>, si: u32) {
        let (rank, cost) = (self.owner[si as usize], self.tasks.subtree_build[si as usize]);
        sim.spawn(rank, Phase::TreeBuild, cost, Ev::SubtreeRebuilt { si });
    }

    /// A crashed rank's subtree finished rebuilding: graft it at its new
    /// owner (re-shard), satisfy one owed build-barrier delivery, and
    /// close the rebuild round with the last one.
    pub(super) fn on_subtree_rebuilt(&mut self, sim: &mut Sim<V>, si: u32) {
        let c = self.crash_config();
        if !c.restart {
            self.graft(sim, si as usize);
        }
        if self.owed_build > 0 {
            self.owed_build -= 1;
            sim.post(self.arrival(Gate::Build, c.rank));
        }
        self.rebuilds_left -= 1;
        if self.rebuilds_left > 0 {
            return;
        }
        if c.restart {
            sim.post(Ev::RecoverStep { stage: 2 });
        } else {
            self.tally.rec.completed_s = sim.now();
        }
    }
}
