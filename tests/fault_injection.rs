//! Fault-injection acceptance for the DES engine: with seeded drops,
//! duplicates, and delays (reorders) on every fetch and fill message,
//! the gravity traversal must still complete — via idempotent duplicate
//! handling and retry-on-timeout — and produce results identical to the
//! fault-free run. In debug builds the cache audit also runs at every
//! phase boundary inside `run_iteration`, so these tests double as
//! audit coverage under adversarial delivery.

use paratreet_apps::gravity::GravityVisitor;
use paratreet_core::{CacheModel, Configuration, DistributedEngine, TraversalKind};
use paratreet_particles::{gen, Particle};
use paratreet_runtime::{CrashConfig, CrashPhase, CrashTrigger, FaultConfig, MachineSpec};

fn config() -> Configuration {
    Configuration { bucket_size: 8, n_subtrees: 16, n_partitions: 32, ..Default::default() }
}

/// Every particle's `acc` and `potential` as bits, by id: equal forces
/// compare `==` bit for bit.
fn force_bits(ps: &[Particle]) -> Vec<(u64, [u64; 4])> {
    let mut bits: Vec<_> = ps
        .iter()
        .map(|p| (p.id, [p.acc.x, p.acc.y, p.acc.z, p.potential].map(f64::to_bits)))
        .collect();
    bits.sort_unstable();
    bits
}

fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_p: 0.15,
        duplicate_p: 0.15,
        delay_p: 0.20,
        delay_s: 2e-3,
        retry_timeout_s: 5e-3,
        crash: None,
    }
}

/// A perfect network carrying exactly one scheduled crash of rank 1.
fn crash_only(trigger: CrashTrigger, restart: bool) -> FaultConfig {
    FaultConfig {
        seed: 1,
        drop_p: 0.0,
        duplicate_p: 0.0,
        delay_p: 0.0,
        delay_s: 2e-3,
        retry_timeout_s: 5e-3,
        crash: Some(CrashConfig { rank: 1, trigger, restart, restart_delay_s: 5e-3 }),
    }
}

fn run(ps: &[Particle], f: Option<FaultConfig>) -> paratreet_core::des_engine::IterationReport {
    let visitor = GravityVisitor::default();
    let mut engine = DistributedEngine::new(
        MachineSpec::test(4, 2),
        config(),
        CacheModel::WaitFree,
        TraversalKind::TopDown,
        &visitor,
    );
    if let Some(f) = f {
        engine = engine.with_faults(f);
    }
    engine.run_iteration(ps.to_vec())
}

#[test]
fn faulty_network_reaches_identical_results() {
    let ps = gen::clustered(1000, 4, 23, 1.0, 1.0);
    let clean = run(&ps, None);
    let faulty = run(&ps, Some(faults(7)));

    // The fault layer actually fired all three kinds on this seed...
    assert!(faulty.faults.dropped > 0, "no drops injected: {:?}", faulty.faults);
    assert!(faulty.faults.duplicated > 0, "no duplicates injected: {:?}", faulty.faults);
    assert!(faulty.faults.delayed > 0, "no delays injected: {:?}", faulty.faults);
    // ...dropped messages forced timeout retries...
    assert!(faulty.fetch_retries > 0, "drops must trigger re-requests");
    // ...and redundant fills were absorbed idempotently, never rejected.
    assert!(faulty.cache.fills_duplicate > 0, "duplicate fills must be detected");
    assert_eq!(faulty.fill_errors, 0, "faults reorder/duplicate but never corrupt");

    // Same pruning decisions, same exact work.
    assert_eq!(faulty.counts.leaf_interactions, clean.counts.leaf_interactions);
    assert_eq!(faulty.counts.node_interactions, clean.counts.node_interactions);
    // Same physics, bit for bit.
    assert!(force_bits(&faulty.particles) == force_bits(&clean.particles), "faults move forces");

    // A perfect network injects nothing and never retries.
    assert_eq!(clean.faults.dropped + clean.faults.duplicated + clean.faults.delayed, 0);
    assert_eq!(clean.fetch_retries, 0);
    assert_eq!(clean.fill_errors, 0);
}

#[test]
fn faulty_runs_replay_deterministically() {
    let ps = gen::uniform_cube(600, 37, 1.0, 1.0);
    let a = run(&ps, Some(faults(11)));
    let b = run(&ps, Some(faults(11)));
    assert_eq!(a.makespan, b.makespan, "same seed must replay the same timeline");
    assert_eq!(a.comm.messages, b.comm.messages);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.fetch_retries, b.fetch_retries);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn faults_cost_time_but_not_correctness_across_cache_models() {
    let ps = gen::clustered(800, 4, 31, 1.0, 1.0);
    for model in [CacheModel::WaitFree, CacheModel::XWrite] {
        let visitor = GravityVisitor::default();
        let clean = DistributedEngine::new(
            MachineSpec::test(3, 2),
            config(),
            model,
            TraversalKind::TopDown,
            &visitor,
        )
        .run_iteration(ps.clone());
        let faulty = DistributedEngine::new(
            MachineSpec::test(3, 2),
            config(),
            model,
            TraversalKind::TopDown,
            &visitor,
        )
        .with_faults(faults(3))
        .run_iteration(ps.clone());
        assert_eq!(faulty.counts, clean.counts, "{model:?}");
        let same = force_bits(&faulty.particles) == force_bits(&clean.particles);
        assert!(same, "{model:?}: faults move forces");
        // Lost and delayed messages can only stretch the timeline.
        assert!(faulty.makespan >= clean.makespan * 0.999, "{model:?}");
    }
}

// ---------------------------------------------------------------------------
// Crash-stop chaos suite: a rank dies mid-pipeline and the iteration
// must still finish with results *bit-identical* to the fault-free run
// (the engine applies visitors in canonical order after the simulation,
// so even FP summation order is preserved across recovery paths).
// ---------------------------------------------------------------------------

#[test]
fn crash_at_every_phase_is_bit_identical_to_clean_run() {
    let ps = gen::clustered(900, 4, 23, 1.0, 1.0);
    let clean = run(&ps, None);
    assert_eq!(clean.recovery.count, 0, "no crash configured, none recovered");

    for phase in [
        CrashPhase::Decomposition,
        CrashPhase::TreeBuild,
        CrashPhase::LeafSharing,
        CrashPhase::Traversal,
    ] {
        for restart in [true, false] {
            let rep = run(&ps, Some(crash_only(CrashTrigger::AtPhase(phase), restart)));
            let mode = if restart { "restart" } else { "re-shard" };
            assert_eq!(rep.recovery.count, 1, "{phase:?}/{mode}: crash must be recovered");
            assert_eq!(rep.recovery.phase_idx, u64::from(phase.index()), "{phase:?}/{mode}");
            assert_eq!(rep.recovery.restarted, u64::from(restart), "{phase:?}/{mode}");
            assert!(
                rep.recovery.completed_s >= rep.recovery.detected_s,
                "{phase:?}/{mode}: recovery cannot finish before detection"
            );
            assert!(
                rep.recovery.detected_s >= rep.recovery.crash_time_s,
                "{phase:?}/{mode}: detection follows the crash"
            );
            if restart {
                assert!(
                    rep.recovery.restored_bytes > 0,
                    "{phase:?}/{mode}: restart must read the checkpoint"
                );
            } else {
                assert!(
                    rep.recovery.resharded_subtrees > 0,
                    "{phase:?}/{mode}: a dead rank's subtrees must move"
                );
            }
            assert_eq!(rep.fill_errors, 0, "{phase:?}/{mode}: recovery never corrupts fills");
            // Placeholder re-visits differ when partitions move ranks,
            // but the *physics* work is exact.
            assert_eq!(
                rep.counts.node_interactions, clean.counts.node_interactions,
                "{phase:?}/{mode}: same exact node work"
            );
            assert_eq!(
                rep.counts.leaf_interactions, clean.counts.leaf_interactions,
                "{phase:?}/{mode}: same exact leaf work"
            );
            assert_eq!(
                rep.particles, clean.particles,
                "{phase:?}/{mode}: accelerations must be bit-identical"
            );
        }
    }
}

#[test]
fn mid_flight_crash_at_absolute_time_recovers() {
    let ps = gen::clustered(900, 4, 23, 1.0, 1.0);
    let clean = run(&ps, None);
    for restart in [true, false] {
        // A quarter of the clean makespan lands mid-pipeline regardless
        // of workload scale.
        let t = clean.makespan * 0.25;
        let rep = run(&ps, Some(crash_only(CrashTrigger::AtTime(t), restart)));
        assert_eq!(rep.recovery.count, 1);
        assert_eq!(rep.counts.node_interactions, clean.counts.node_interactions);
        assert_eq!(rep.counts.leaf_interactions, clean.counts.leaf_interactions);
        assert_eq!(rep.particles, clean.particles, "restart={restart}");
    }
}

#[test]
fn crash_combined_with_message_faults_is_still_exact() {
    let ps = gen::clustered(700, 4, 29, 1.0, 1.0);
    let clean = run(&ps, None);
    let mut f = faults(7);
    f.crash = Some(CrashConfig {
        rank: 2,
        trigger: CrashTrigger::AtPhase(CrashPhase::Traversal),
        restart: true,
        restart_delay_s: 5e-3,
    });
    let rep = run(&ps, Some(f));
    assert_eq!(rep.recovery.count, 1);
    assert!(rep.faults.dropped > 0, "message faults still fire alongside the crash");
    assert_eq!(rep.fill_errors, 0);
    assert_eq!(rep.counts, clean.counts);
    assert_eq!(rep.particles, clean.particles);
}

#[test]
fn crash_recovery_replays_deterministically() {
    let ps = gen::uniform_cube(600, 37, 1.0, 1.0);
    for restart in [true, false] {
        let f = crash_only(CrashTrigger::AtPhase(CrashPhase::LeafSharing), restart);
        let a = run(&ps, Some(f));
        let b = run(&ps, Some(f));
        assert_eq!(a.makespan, b.makespan, "same seed must replay the same timeline");
        assert_eq!(a.comm.messages, b.comm.messages);
        assert_eq!(a.comm.bytes, b.comm.bytes);
        assert_eq!(a.recovery, b.recovery, "recovery statistics must replay exactly");
        assert_eq!(a.counts, b.counts);
    }
}

#[test]
fn crash_recovery_traces_are_byte_identical() {
    use paratreet_telemetry::{export, Telemetry};
    let ps = gen::uniform_cube(500, 41, 1.0, 1.0);
    let visitor = GravityVisitor::default();
    let trace = |run_tag: u32| {
        let telemetry = Telemetry::virtual_time(1);
        let engine = DistributedEngine::new(
            MachineSpec::test(4, 2),
            config(),
            CacheModel::WaitFree,
            TraversalKind::TopDown,
            &visitor,
        )
        .with_faults(crash_only(CrashTrigger::AtPhase(CrashPhase::Traversal), true))
        .with_telemetry(telemetry.clone());
        let rep = engine.run_iteration(ps.clone());
        assert_eq!(rep.recovery.count, 1, "run {run_tag}");
        let path = std::env::temp_dir().join(format!("paratreet_chaos_trace_{run_tag}.json"));
        export::write_chrome_trace(&path, &telemetry.drain()).expect("trace write");
        let bytes = std::fs::read(&path).expect("trace read");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let (a, b) = (trace(0), trace(1));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same crash schedule must produce a byte-identical trace");
}

#[test]
fn knn_up_and_down_survives_traversal_crash() {
    use paratreet_apps::knn::KnnVisitor;
    let ps = gen::uniform_cube(400, 41, 1.0, 1.0);
    let visitor = KnnVisitor { k: 8 };
    let states = |f: Option<FaultConfig>| {
        let mut engine = DistributedEngine::new(
            MachineSpec::test(4, 2),
            config(),
            CacheModel::WaitFree,
            TraversalKind::UpAndDown,
            &visitor,
        );
        if let Some(f) = f {
            engine = engine.with_faults(f);
        }
        let (rep, states) = engine.run_iteration_states(ps.clone());
        // Per leaf key, the ascending neighbour lists of every particle.
        let mut out: Vec<(u64, Vec<Vec<u64>>)> = states
            .into_iter()
            .map(|(key, s)| {
                let lists = s
                    .heaps
                    .into_iter()
                    .map(|h| h.into_sorted().into_iter().map(|n| n.id).collect())
                    .collect();
                (key.raw(), lists)
            })
            .collect();
        out.sort();
        (rep, out)
    };
    let (_, clean) = states(None);
    for restart in [true, false] {
        let (rep, chaotic) =
            states(Some(crash_only(CrashTrigger::AtPhase(CrashPhase::Traversal), restart)));
        assert_eq!(rep.recovery.count, 1, "restart={restart}");
        assert_eq!(chaotic, clean, "restart={restart}: identical neighbour lists");
    }
}

#[test]
fn collision_detection_survives_tree_build_crash() {
    use paratreet_apps::collision::CollisionVisitor;
    use paratreet_particles::gen::DiskParams;
    let mut params = DiskParams::default();
    params.body_radius *= 5e4; // inflated radii: guaranteed collision pairs
    let ps = gen::keplerian_disk(600, 11, params);
    let visitor = CollisionVisitor { dt: 1e-3 };
    let states = |f: Option<FaultConfig>| {
        let mut engine = DistributedEngine::new(
            MachineSpec::test(4, 2),
            config(),
            CacheModel::WaitFree,
            TraversalKind::TopDown,
            &visitor,
        );
        if let Some(f) = f {
            engine = engine.with_faults(f);
        }
        let (rep, states) = engine.run_iteration_states(ps.clone());
        let mut out: Vec<_> = states.into_iter().map(|(k, s)| (k.raw(), s)).collect();
        out.sort_by_key(|(k, _)| *k);
        (rep, out)
    };
    let (_, clean) = states(None);
    assert!(
        clean.iter().any(|(_, events)| !events.is_empty()),
        "inflated radii must produce collision events"
    );
    for restart in [true, false] {
        let (rep, chaotic) =
            states(Some(crash_only(CrashTrigger::AtPhase(CrashPhase::TreeBuild), restart)));
        assert_eq!(rep.recovery.count, 1, "restart={restart}");
        assert_eq!(chaotic, clean, "restart={restart}: identical collision events");
    }
}
