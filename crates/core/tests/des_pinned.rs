//! The discrete-event engine, pinned across commits.
//!
//! The engine is deterministic: a workload, a placement and a fault seed
//! decide every event. The other suites hold two runs of *one* build to
//! each other (clean ≡ faulty ≡ crashed physics, same seed ⇒ same
//! trace); this one holds each scenario's whole output — final particle
//! bytes, per-bucket states, the virtual-time Chrome trace, the flight
//! rows and the metrics registry — to an FNV hash recorded before the
//! engine was split into modules, so a refactor that moves one event,
//! one charged byte or one counter shows here by scenario name.

use paratreet_core::{
    sfc_balanced_assignment, CacheModel, Configuration, DistributedEngine, IterationReport,
    SpatialNodeView, TargetBucket, TargetSpan, TraversalKind, Visitor, DES_FLIGHT_SERIES,
};
use paratreet_geometry::NodeKey;
use paratreet_particles::{gen, io};
use paratreet_runtime::{CrashConfig, CrashPhase, CrashTrigger, FaultConfig, MachineSpec};
use paratreet_telemetry::{chrome_trace_json, FlightRecorder, Telemetry};
use paratreet_tree::CountData;

/// Opens by geometry alone (so every schedule may run it), and folds
/// what it meets into the targets *order-sensitively*: a reordered or
/// doubled application changes the particle bytes.
struct Fold;

impl Visitor for Fold {
    type Data = CountData;
    type State = u64;
    type Prepared = ();
    type PerTarget = ();
    fn prepare(&self, _: &SpatialNodeView<'_, CountData>) {}
    fn open(&self, s: &SpatialNodeView<'_, CountData>, _: &(), t: &TargetBucket<u64>) -> bool {
        s.bbox.dist_sq_to_box(&t.bbox) < 1.5 * s.bbox.radius_sq()
    }
    fn node(&self, s: &SpatialNodeView<'_, CountData>, _: &(), t: &mut TargetSpan<'_, u64>) {
        t.buckets().for_each(|(_, b)| b.state = b.state.wrapping_mul(31) + s.data.count);
        for p in t.particles_mut() {
            p.potential = p.potential * 0.75 + s.data.count as f64;
        }
    }
    fn leaf(&self, s: &SpatialNodeView<'_, CountData>, _: &(), t: &mut TargetSpan<'_, u64>) {
        t.buckets().for_each(|(_, b)| b.state = b.state.wrapping_mul(37) + s.key.raw());
        for p in t.particles_mut() {
            for q in s.particles {
                p.acc = p.acc * 0.75 + (q.pos - p.pos);
            }
        }
    }
}

const RANKS: usize = 4;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One scenario: the engine knobs that differ between them.
#[derive(Clone, Copy)]
struct Scenario {
    kind: TraversalKind,
    cache: CacheModel,
    faults: Option<FaultConfig>,
}

const CLEAN: Scenario =
    Scenario { kind: TraversalKind::TopDown, cache: CacheModel::WaitFree, faults: None };

fn lossy() -> FaultConfig {
    FaultConfig { drop_p: 0.1, duplicate_p: 0.1, delay_p: 0.1, ..Default::default() }
}

fn crash(trigger: CrashTrigger, restart: bool) -> FaultConfig {
    let crash = CrashConfig { rank: 1, trigger, restart, ..Default::default() };
    FaultConfig { crash: Some(crash), ..Default::default() }
}

fn particles() -> Vec<paratreet_particles::Particle> {
    gen::clustered(1500, 3, 7, 1.0, 1.0)
}

/// The scenario's engine on the 4 × 2 test machine.
fn engine(s: Scenario) -> DistributedEngine<'static, Fold> {
    let config = Configuration { bucket_size: 8, ..Default::default() };
    let mut engine =
        DistributedEngine::new(MachineSpec::test(RANKS, 2), config, s.cache, s.kind, &Fold);
    engine.faults = s.faults;
    engine
}

/// Keys this refactor's satellite removes (aliases of `fault.*`); they
/// are left out so the recorded hashes hold on both sides of it.
fn is_alias(key: &str) -> bool {
    key.starts_with("faults.") || key == "des.fetch_retries" || key == "des.fill_errors"
}

/// Runs the scenario (`rebalance` re-runs once under the measured-load
/// assignment) and hashes everything it produced.
fn run(s: Scenario, rebalance: bool) -> u64 {
    let telemetry = Telemetry::virtual_time(1);
    let flight = FlightRecorder::virtual_time(DES_FLIGHT_SERIES, 64);
    let engine = engine(s).with_telemetry(telemetry.clone()).with_flight_recorder(flight.clone());

    let mut hash = Fnv::new();
    let mut digest = |rep: &IterationReport, states: &[(NodeKey, u64)]| {
        hash.bytes(&io::to_bytes(&rep.particles));
        for (key, state) in states {
            hash.bytes(&key.raw().to_le_bytes());
            hash.bytes(&state.to_le_bytes());
        }
        for (key, value) in rep.metrics.iter().filter(|(k, _)| !is_alias(k)) {
            hash.bytes(format!("{key}={value:?};").as_bytes());
        }
    };
    let particles = particles();
    if rebalance {
        let first = engine.run_iteration(particles.clone());
        let assignment = sfc_balanced_assignment(&first.partition_costs, RANKS);
        let rep = engine.run_iteration_with_assignment(particles, Some(&assignment));
        digest(&rep, &[]);
    } else {
        let (rep, states) = engine.run_iteration_states(particles);
        digest(&rep, &states);
    }
    hash.bytes(chrome_trace_json(&telemetry.drain()).as_bytes());
    hash.bytes(flight.snapshot().to_json().to_string().as_bytes());
    hash.0
}

fn scenarios() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let mut add = |name: &str, s: Scenario, rebalance: bool| {
        out.push((name.to_owned(), run(s, rebalance)));
    };
    add("clean", CLEAN, false);
    add("drop/dup/delay", Scenario { faults: Some(lossy()), ..CLEAN }, false);
    for (phase, label) in [
        (CrashPhase::Decomposition, "decomposition"),
        (CrashPhase::TreeBuild, "tree-build"),
        (CrashPhase::LeafSharing, "leaf-sharing"),
        (CrashPhase::Traversal, "traversal"),
    ] {
        for restart in [true, false] {
            let mode = if restart { "restart" } else { "re-shard" };
            let faults = Some(crash(CrashTrigger::AtPhase(phase), restart));
            add(&format!("crash {label} {mode}"), Scenario { faults, ..CLEAN }, false);
        }
    }
    // A fraction of the clean makespan lands mid-pipeline (the engine is
    // deterministic, so the instant is too).
    let makespan = engine(CLEAN).run_iteration(particles()).makespan;
    for (fraction, restart) in [(0.25, true), (0.25, false), (0.6, true), (0.6, false)] {
        let faults = Some(crash(CrashTrigger::AtTime(makespan * fraction), restart));
        let mode = if restart { "restart" } else { "re-shard" };
        add(
            &format!("crash at {fraction} of the makespan {mode}"),
            Scenario { faults, ..CLEAN },
            false,
        );
    }
    let lossy_crash = FaultConfig {
        crash: crash(CrashTrigger::AtPhase(CrashPhase::Traversal), false).crash,
        ..lossy()
    };
    add("lossy crash re-shard", Scenario { faults: Some(lossy_crash), ..CLEAN }, false);
    add("per-thread caches", Scenario { cache: CacheModel::PerThread, ..CLEAN }, false);
    let per_thread_crash = Scenario {
        cache: CacheModel::PerThread,
        faults: Some(crash(CrashTrigger::AtPhase(CrashPhase::Traversal), true)),
        ..CLEAN
    };
    add("per-thread crash restart", per_thread_crash, false);
    add(
        "x-write cache",
        Scenario { cache: CacheModel::XWrite, faults: Some(lossy()), ..CLEAN },
        false,
    );
    add("basic-dfs", Scenario { kind: TraversalKind::BasicDfs, ..CLEAN }, false);
    let up = Scenario { kind: TraversalKind::UpAndDown, ..CLEAN };
    add("up-and-down", up, false);
    for restart in [true, false] {
        let faults = Some(crash(CrashTrigger::AtPhase(CrashPhase::Traversal), restart));
        add(&format!("up-and-down crash restart={restart}"), Scenario { faults, ..up }, false);
    }
    add("measured-load assignment", CLEAN, true);
    out
}

/// Recorded at the parent of the DES module split (commit 9370f54). The
/// three up-and-down rows were re-recorded when up-and-down seeding went
/// from one item per bucket to one per sibling group: the DES charges
/// each visited item, so their timelines moved; their particle bytes and
/// per-bucket states did not. Every row was re-recorded when a
/// placeholder came to be counted once (the DES charges by these
/// counts), the always-zero `phase_busy_s.incremental_update` key and
/// `update_migrated` flight column went, and a fill came to resume a cut
/// up-and-down seed walk (the up-and-down rows' particle bytes moved too).
#[rustfmt::skip]
const PINNED: &[(&str, u64)] = &[
    ("clean", 0x5ace17d973f3e0c4),
    ("drop/dup/delay", 0x3f7a4b7d54dcf386),
    ("crash decomposition restart", 0x63177c3c253bc013),
    ("crash decomposition re-shard", 0x4c6e6010e087e55e),
    ("crash tree-build restart", 0xf1dda63f4c87025c),
    ("crash tree-build re-shard", 0xff1db70e1f12c6f7),
    ("crash leaf-sharing restart", 0x0e5eb89f338a5bd2),
    ("crash leaf-sharing re-shard", 0xc0884fbce4c02c2e),
    ("crash traversal restart", 0x12c155e78be245fc),
    ("crash traversal re-shard", 0xa323f5ef1f4a60ee),
    ("crash at 0.25 of the makespan restart", 0x15474ca97ec8c09a),
    ("crash at 0.25 of the makespan re-shard", 0x41b4908b5500ca2b),
    ("crash at 0.6 of the makespan restart", 0x3a10fc6e3dddbd6f),
    ("crash at 0.6 of the makespan re-shard", 0x233adc69c0409613),
    ("lossy crash re-shard", 0x08436e5953bafdd5),
    ("per-thread caches", 0xfcfc83499324ca43),
    ("per-thread crash restart", 0xd4d27aa1813b01b0),
    ("x-write cache", 0xc53344420d8cf52f),
    ("basic-dfs", 0x533c6361dc8ef052),
    ("up-and-down", 0x644de7132faa7399),
    ("up-and-down crash restart=true", 0x5826d1391290b38f),
    ("up-and-down crash restart=false", 0x07b1a6fb8db66e89),
    ("measured-load assignment", 0xe7232bfe6fdf49a9),
];

#[test]
fn every_scenario_matches_its_recorded_hash() {
    let have = scenarios();
    let table: String =
        have.iter().map(|(name, hash)| format!("    ({name:?}, {hash:#018x}),\n")).collect();
    assert_eq!(have.len(), PINNED.len(), "scenario list changed; this build gives:\n{table}");
    for ((name, hash), (pinned_name, pinned)) in have.iter().zip(PINNED) {
        assert_eq!(name, pinned_name, "scenario order changed; this build gives:\n{table}");
        assert_eq!(hash, pinned, "{name}: output moved; this build gives:\n{table}");
    }
}

/// A crash at an arbitrary instant of set-up, restart or re-shard: the
/// physics is the clean run's, whatever the barriers were or were not
/// owed when the rank died.
#[test]
fn a_crash_anywhere_in_set_up_recovers_the_clean_physics() {
    let run = |faults| engine(Scenario { faults, ..CLEAN }).run_iteration(particles());
    let clean = run(None);
    for tenth in 1..=12 {
        for restart in [true, false] {
            let t = clean.traversal_start * tenth as f64 / 10.0;
            let rep = run(Some(crash(CrashTrigger::AtTime(t), restart)));
            assert_eq!(rep.recovery.count, 1, "t = {t}, restart {restart}");
            let interactions =
                |r: &IterationReport| (r.counts.node_interactions, r.counts.leaf_interactions);
            assert_eq!(interactions(&rep), interactions(&clean), "t = {t}, restart {restart}");
            assert!(rep.particles == clean.particles, "t = {t}, restart {restart}");
        }
    }
}
