//! The `paratreet` command-line driver — the paper's "coding,
//! configuring and running the application" workflow (§II-D-2): pick an
//! application, a workload (generator or snapshot file), a tree type, a
//! decomposition type, a traversal, an engine, and iterate.
//!
//! ```text
//! paratreet gravity --particles 20000 --iterations 5 --tree oct --decomp sfc
//! paratreet sph     --particles 8000  --k 32
//! paratreet disk    --particles 3000  --iterations 100
//! paratreet gravity --input snap.ptrt --output out.ptrt --csv out.csv
//! paratreet gravity --engine threaded --ranks 4 --workers 2
//! ```

use paratreet::core_api::{
    CacheModel, Configuration, DecompType, DistributedEngine, Framework, ThreadedEngine,
    TraversalKind,
};
use paratreet_apps::collision::{orbital_period, DiskSimulation};
use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_apps::sph::{sph_framework, SphSimulation};
use paratreet_geometry::Vec3;
use paratreet_particles::gen::{self, DiskParams};
use paratreet_particles::{io, Particle};
use paratreet_runtime::{
    CrashConfig, CrashPhase, CrashTrigger, FaultConfig, FaultInjector, FaultStats, MachineSpec,
};
use paratreet_telemetry::{export, FlightRecorder, MetricsRegistry, Telemetry};
use std::collections::HashMap;
use std::process::exit;

const USAGE: &str = "\
paratreet — spatial tree traversal framework (ParaTreeT reproduction)

USAGE: paratreet <APP> [OPTIONS]

APPS:
  gravity     Barnes-Hut N-body (leapfrog integration)
  sph         smoothed-particle hydrodynamics (kNN density + pressure)
  disk        planetesimal disk with collision detection (case study)
  serve-bench concurrent query service over a live maintained tree:
              a writer thread advances the forest while a reader pool
              answers a mixed kNN/ball/range/raycast stream from
              simulated clients against pinned snapshots
  fof         friends-of-friends halo finding over a forest of boxes:
              per-box trees, 2:1 seam balance, ghost-layer exchange,
              dual-tree linking, cross-box union-find merge

WORKLOAD (default: generator):
  --particles N        particle count                      [10000]
  --dist KIND          uniform | plummer | clustered | disk | lattice
                       | tiled (one Plummer blob per grid tile)
  --seed S             generator seed                      [1]
  --input FILE         read a .ptrt snapshot instead of generating
  --radius-scale F     body-radius multiplier (dist disk)  [3e4]

FOREST / FOF (fof only):
  --tiles AxBxC        domain grid, tiles per axis         [2x2x1]
  --tile L             side length of one cubical tile     [1.0]
  --periodic B         identify opposite outer faces       [true]
  --link B             FoF linking length (0 = 0.2 × mean
                       interparticle separation)           [0]
  --min-members N      smallest component kept as a halo   [8]

CONFIGURATION:
  --tree KIND          oct | kd | longest-dim              [oct]
  --decomp KIND        sfc | oct | kd | longest-dim        [sfc]
  --traversal KIND     top-down | basic-dfs | up-and-down | dual-tree
  --bucket N           max bucket size                     [16]
  --subtrees N         minimum Subtrees                    [8]
  --partitions N       minimum Partitions                  [16]
  --iterations N       simulation steps                    [1]
  --theta T            Barnes-Hut opening angle            [0.7]
  --k N                SPH/kNN neighbour count             [32]
  --dt T               timestep (gravity/disk)             [auto]

ENGINE:
  --engine KIND        shared | threaded | machine         [shared]
  --ranks N            ranks for threaded/machine engines  [2]
  --workers N          workers per rank                    [2]

INCREMENTAL TREE MAINTENANCE (all engines):
  --incremental B      maintain the tree across iterations instead
                       of rebuilding from scratch          [false]
  --inc-alpha F        BB[α] weight-balance factor: rebuild a
                       median-split Subtree when a child outweighs
                       α of its parent                     [0.7]
  --inc-depth-slack N  levels past the α-balance depth bound before
                       a per-Subtree rebuild               [2]
  --inc-imbalance R    partition-cost imbalance ratio that triggers
                       a whole-tree rebuild + re-decomposition [2.5]
  --inc-universe-pad F universe padding fraction kept as drift
                       headroom (0 disables padding)       [0.05]

QUERY SERVING (serve-bench only):
  --clients N          simulated clients                   [200]
  --queries N          queries per client                  [50]
  --serve-workers N    reader (worker) threads             [4]
  --threads N          client driver threads               [4]
  --batch N            queries per submitted batch         [32]
  --queue N            work queue capacity, batches        [256]
  --ring N             snapshot ring capacity              [8]
  --admission KIND     defer (backpressure) | shed (depth) |
                       cost (EWMA predicted-cost shedding) [defer]
  --writer-pace-ms T   sleep between writer advances, ms   [0]
                       (--iterations 0 = advance until the load
                       finishes; N = stop after N advances)
  --deadline-ms T      per-request completion deadline, ms
                       (0 = none; expired requests answered
                       DeadlineExceeded, not executed)      [0]
  --max-backlog-ms T   cost-admission backlog bound for
                       deadline-free requests, ms (0 = none) [0]
  --retries N          load-generator retry attempts after a
                       retryable submit failure (seeded
                       jittered exponential backoff)        [3]
  --pace-us T          inter-batch gap per driver thread, us
                       (0 = submit as fast as possible)     [0]
  --degrade B          1 = enable the degradation ladder
                       (clamped k, shrunk radii, truncated
                       range answers with resume cursors)   [0]
  --respawn-limit N    worker respawns before quarantine    [8]
  --inject-worker-panic N  chaos: panic the worker popping
                       batch N (0 = off)                    [0]
  --inject-writer-panic N  chaos: panic the writer before
                       publishing epoch N (0 = off); the
                       service enters stale-serving mode    [0]

FAULT INJECTION (machine engine only; seeded, deterministic):
  --fault-drop P       drop probability per message        [0]
  --fault-dup P        duplicate probability per message   [0]
  --fault-delay P      extra-delay probability per message [0]
  --fault-delay-s T    extra delay magnitude, seconds      [2e-3]
  --fault-seed S       fault stream seed                   [0x5EEDCAFE]
  --fault-timeout T    fetch retry timeout, seconds        [5e-3]

CRASH-STOP FAULTS (machine engine only; deterministic):
  --crash-rank R       rank R crash-stops (requires --ranks >= 2)
  --crash-phase P      decomposition | tree-build | leaf-sharing |
                       traversal — crash at that phase start [traversal]
  --crash-time T       crash at virtual time T seconds (overrides
                       --crash-phase)
  --crash-restart B    true: restart from checkpoint; false: stay dead
                       and re-shard onto survivors          [true]
  --crash-restart-delay T  reboot delay after detection, s  [5e-3]

OUTPUT:
  --output FILE        write final .ptrt snapshot
  --csv FILE           write final state as CSV
  --trace-out FILE     write a Chrome trace of the run (open at
                       ui.perfetto.dev; one track per rank/worker)
  --metrics-out FILE   dump the metrics registry (.csv extension
                       selects CSV, anything else JSON)
  --timeseries-out FILE  write the flight-recorder time series
                       (.csv extension selects CSV, else JSON);
                       feed all three files to paratreet-analyze
  --sample-ms T        serve-bench flight sampling interval, ms [5]
";

/// Every option the binary reads, grouped as `USAGE`'s sections.
/// `parse_args` rejects any other name; a test below holds this list and
/// `USAGE` to each other.
#[rustfmt::skip]
const OPTIONS: &[&str] = &[
    "particles", "dist", "seed", "input", "radius-scale",
    "tiles", "tile", "periodic", "link", "min-members",
    "tree", "decomp", "traversal", "bucket", "subtrees", "partitions", "iterations", "theta", "k",
    "dt",
    "engine", "ranks", "workers",
    "incremental", "inc-alpha", "inc-depth-slack", "inc-imbalance", "inc-universe-pad",
    "clients", "queries", "serve-workers", "threads", "batch", "queue", "ring", "admission",
    "writer-pace-ms", "deadline-ms", "max-backlog-ms", "retries", "pace-us", "degrade",
    "respawn-limit", "inject-worker-panic", "inject-writer-panic",
    "fault-drop", "fault-dup", "fault-delay", "fault-delay-s", "fault-seed", "fault-timeout",
    "crash-rank", "crash-phase", "crash-time", "crash-restart", "crash-restart-delay",
    "output", "csv", "trace-out", "metrics-out", "timeseries-out", "sample-ms",
];

fn parse_args() -> (String, HashMap<String, String>) {
    let mut args = std::env::args().skip(1);
    let app = match args.next() {
        Some(a) if !a.starts_with("--") => a,
        _ => {
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let mut opts = HashMap::new();
    while let Some(k) = args.next() {
        if let Some(name) = k.strip_prefix("--") {
            if !OPTIONS.contains(&name) {
                eprintln!("unknown option --{name}\n{USAGE}");
                exit(2);
            }
            match args.next() {
                Some(v) => {
                    opts.insert(name.to_string(), v);
                }
                None => {
                    eprintln!("missing value for --{name}\n{USAGE}");
                    exit(2);
                }
            }
        } else {
            eprintln!("unexpected argument {k}\n{USAGE}");
            exit(2);
        }
    }
    (app, opts)
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            exit(2);
        }),
        None => default,
    }
}

fn tree_type(s: &str) -> paratreet_tree::TreeType {
    match s {
        "oct" => paratreet_tree::TreeType::Octree,
        "kd" => paratreet_tree::TreeType::KdTree,
        "longest-dim" => paratreet_tree::TreeType::LongestDim,
        _ => {
            eprintln!("unknown tree type {s}");
            exit(2);
        }
    }
}

fn decomp_type(s: &str) -> DecompType {
    match s {
        "sfc" => DecompType::Sfc,
        "oct" => DecompType::Oct,
        "kd" => DecompType::Kd,
        "longest-dim" => DecompType::LongestDim,
        _ => {
            eprintln!("unknown decomposition type {s}");
            exit(2);
        }
    }
}

fn traversal_kind(s: &str) -> TraversalKind {
    match s {
        "top-down" => TraversalKind::TopDown,
        "basic-dfs" => TraversalKind::BasicDfs,
        "up-and-down" => TraversalKind::UpAndDown,
        "dual-tree" => TraversalKind::DualTree,
        _ => {
            eprintln!("unknown traversal {s}");
            exit(2);
        }
    }
}

/// Parses `--tiles AxBxC` (e.g. `2x2x1`).
fn parse_tiles(opts: &HashMap<String, String>) -> [usize; 3] {
    let s = get(opts, "tiles", "2x2x1".to_string());
    let parts: Vec<usize> = s.split('x').filter_map(|t| t.parse().ok()).collect();
    if parts.len() != 3 || parts.contains(&0) {
        eprintln!("bad value for --tiles: {s} (expected AxBxC, e.g. 2x2x1)");
        exit(2);
    }
    [parts[0], parts[1], parts[2]]
}

fn load_particles(app: &str, opts: &HashMap<String, String>) -> Vec<Particle> {
    if let Some(path) = opts.get("input") {
        match io::read_snapshot(path) {
            Ok(ps) => {
                println!("loaded {} particles from {path}", ps.len());
                return ps;
            }
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            }
        }
    }
    let n = get(opts, "particles", 10_000usize);
    let seed = get(opts, "seed", 1u64);
    let default_dist = match app {
        "sph" => "lattice",
        "disk" => "disk",
        "fof" => "tiled",
        _ => "plummer",
    };
    let binding = default_dist.to_string();
    let dist = opts.get("dist").unwrap_or(&binding);
    match dist.as_str() {
        "uniform" => gen::uniform_cube(n, seed, 1.0, 1.0),
        "plummer" => gen::plummer(n, seed, 1.0, 1.0),
        "clustered" => gen::clustered(n, 4, seed, 1.0, 1.0),
        "lattice" => gen::perturbed_lattice(n, seed, 0.5, 0.02),
        "tiled" => gen::tiled_plummer(n, parse_tiles(opts), seed, get(opts, "tile", 1.0), 1.0),
        "disk" => {
            let mut params = DiskParams::default();
            params.body_radius *= get(opts, "radius-scale", 3e4);
            gen::keplerian_disk(n, seed, params)
        }
        other => {
            eprintln!("unknown distribution {other}");
            exit(2);
        }
    }
}

fn write_outputs(opts: &HashMap<String, String>, particles: &[Particle]) {
    if let Some(path) = opts.get("output") {
        if let Err(e) = io::write_snapshot(path, particles) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        println!("wrote snapshot to {path}");
    }
    if let Some(path) = opts.get("csv") {
        match std::fs::File::create(path) {
            Ok(mut f) => {
                io::write_csv(&mut f, particles).expect("csv write");
                println!("wrote CSV to {path}");
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                exit(1);
            }
        }
    }
}

fn configuration(opts: &HashMap<String, String>) -> Configuration {
    let mut config = Configuration {
        tree_type: tree_type(&get(opts, "tree", "oct".to_string())),
        decomp_type: decomp_type(&get(opts, "decomp", "sfc".to_string())),
        bucket_size: get(opts, "bucket", 16usize),
        n_subtrees: get(opts, "subtrees", 8usize),
        n_partitions: get(opts, "partitions", 16usize),
        iterations: get(opts, "iterations", 1usize),
        ..Default::default()
    };
    let inc = &mut config.incremental;
    inc.enabled = get(opts, "incremental", inc.enabled);
    inc.balance_alpha = get(opts, "inc-alpha", inc.balance_alpha);
    inc.balance_depth_slack = get(opts, "inc-depth-slack", inc.balance_depth_slack);
    inc.imbalance_rebuild = get(opts, "inc-imbalance", inc.imbalance_rebuild);
    inc.universe_pad = get(opts, "inc-universe-pad", inc.universe_pad);
    config
}

/// Scheduled crash-stop knobs; `None` unless `--crash-rank` was given.
fn crash_config(opts: &HashMap<String, String>) -> Option<CrashConfig> {
    let rank = opts.get("crash-rank")?;
    let rank: u32 = rank.parse().unwrap_or_else(|_| {
        eprintln!("bad value for --crash-rank: {rank}");
        exit(2);
    });
    let trigger = if opts.contains_key("crash-time") {
        CrashTrigger::AtTime(get(opts, "crash-time", 0.0f64))
    } else {
        let phase = match get(opts, "crash-phase", "traversal".to_string()).as_str() {
            "decomposition" => CrashPhase::Decomposition,
            "tree-build" => CrashPhase::TreeBuild,
            "leaf-sharing" => CrashPhase::LeafSharing,
            "traversal" => CrashPhase::Traversal,
            other => {
                eprintln!("unknown crash phase {other}");
                exit(2);
            }
        };
        CrashTrigger::AtPhase(phase)
    };
    Some(CrashConfig {
        rank,
        trigger,
        restart: get(opts, "crash-restart", true),
        restart_delay_s: get(opts, "crash-restart-delay", 5e-3),
    })
}

/// Fault-injection knobs for the machine engine; `None` when every
/// probability is zero and no crash is scheduled (a perfect network
/// needs no retry machinery). Every rejected configuration is reported
/// through [`FaultConfigError`]'s rendering, not a panic.
fn fault_config(opts: &HashMap<String, String>) -> Option<FaultConfig> {
    let drop_p = get(opts, "fault-drop", 0.0f64);
    let duplicate_p = get(opts, "fault-dup", 0.0f64);
    let delay_p = get(opts, "fault-delay", 0.0f64);
    let crash = crash_config(opts);
    if drop_p == 0.0 && duplicate_p == 0.0 && delay_p == 0.0 && crash.is_none() {
        return None;
    }
    let config = FaultConfig {
        seed: get(opts, "fault-seed", 0x5EED_CAFEu64),
        drop_p,
        duplicate_p,
        delay_p,
        delay_s: get(opts, "fault-delay-s", 2e-3),
        retry_timeout_s: get(opts, "fault-timeout", 5e-3),
        crash,
    };
    if let Err(e) = FaultInjector::new(config) {
        eprintln!("invalid fault configuration: {e}");
        exit(2);
    }
    Some(config)
}

/// The telemetry handle for a run: enabled when `--trace-out` was
/// given (virtual clock for the machine engine, wall clock otherwise),
/// disabled — and therefore free — when it wasn't.
fn telemetry_for(opts: &HashMap<String, String>, virtual_clock: bool, shards: usize) -> Telemetry {
    if !opts.contains_key("trace-out") {
        return Telemetry::disabled();
    }
    if virtual_clock {
        Telemetry::virtual_time(shards)
    } else {
        Telemetry::wall(shards)
    }
}

/// Drains `telemetry` into `--trace-out` and dumps `metrics` to
/// `--metrics-out`, when the respective flag was given.
fn write_telemetry(
    opts: &HashMap<String, String>,
    telemetry: &Telemetry,
    metrics: Option<&MetricsRegistry>,
) {
    if let Some(path) = opts.get("trace-out") {
        match export::write_chrome_trace(path, &telemetry.drain()) {
            Ok(()) => println!("wrote Chrome trace to {path} (load at ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }
    if let Some(path) = opts.get("metrics-out") {
        let Some(metrics) = metrics else {
            eprintln!("--metrics-out is not supported for this app/engine combination");
            exit(2);
        };
        match export::write_metrics(path, metrics) {
            Ok(()) => println!("wrote metrics to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }
}

/// Wall-clock shard count for engines running on OS threads.
fn wall_shards(extra_threads: usize) -> usize {
    extra_threads + std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8) + 1
}

/// The flight-recorder handle for a run: enabled when
/// `--timeseries-out` was given (virtual clock for the machine engine,
/// wall clock otherwise), disabled — and therefore free — otherwise.
fn flight_for(
    opts: &HashMap<String, String>,
    virtual_clock: bool,
    series: &[&'static str],
    capacity: usize,
) -> FlightRecorder {
    if !opts.contains_key("timeseries-out") {
        return FlightRecorder::disabled();
    }
    if virtual_clock {
        FlightRecorder::virtual_time(series, capacity)
    } else {
        FlightRecorder::wall(series, capacity)
    }
}

/// Writes the flight-recorder window to `--timeseries-out`, when given.
fn write_flight(opts: &HashMap<String, String>, flight: &FlightRecorder) {
    if let Some(path) = opts.get("timeseries-out") {
        match export::write_timeseries(path, &flight.snapshot()) {
            Ok(()) => println!("wrote flight-recorder series to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }
}

fn run_gravity(opts: &HashMap<String, String>) {
    let mut particles = load_particles("gravity", opts);
    for p in &mut particles {
        if p.softening == 0.0 {
            p.softening = 0.01;
        }
    }
    let config = configuration(opts);
    let kind = traversal_kind(&get(opts, "traversal", "top-down".to_string()));
    let visitor = GravityVisitor { theta: get(opts, "theta", 0.7), g: 1.0 };
    let iterations = config.iterations;
    let dt = get(opts, "dt", 1.0 / 64.0);
    let engine = get(opts, "engine", "shared".to_string());

    match engine.as_str() {
        "shared" => {
            let telemetry = telemetry_for(opts, false, wall_shards(0));
            let flight = flight_for(
                opts,
                false,
                paratreet::core_api::framework::FLIGHT_SERIES,
                (iterations + 1) * 2 + 8,
            );
            let mut fw: Framework<CentroidData> = Framework::new(config, particles)
                .with_telemetry(telemetry.clone())
                .with_flight_recorder(flight.clone());
            fw.step(|s| {
                s.traverse(&visitor, kind);
            });
            let mut last_metrics = MetricsRegistry::new();
            for step in 0..iterations {
                for p in fw.particles_mut().iter_mut() {
                    p.vel += p.acc * (0.5 * dt);
                    p.pos += p.vel * dt;
                    p.acc = Vec3::ZERO;
                    p.potential = 0.0;
                }
                let (_, report) = fw.step(|s| {
                    s.traverse(&visitor, kind);
                });
                for p in fw.particles_mut().iter_mut() {
                    p.vel += p.acc * (0.5 * dt);
                }
                println!(
                    "step {step}: {} pp + {} pn interactions, traverse {:.1} ms",
                    report.counts.leaf_interactions,
                    report.counts.node_interactions,
                    report.seconds_traverse * 1e3
                );
                last_metrics = report.metrics();
            }
            write_telemetry(opts, &telemetry, Some(&last_metrics));
            write_flight(opts, &flight);
            write_outputs(opts, fw.particles());
        }
        "threaded" => {
            let ranks = get(opts, "ranks", 2usize);
            let workers = get(opts, "workers", 2usize);
            let incremental = config.incremental.enabled;
            let telemetry = telemetry_for(opts, false, wall_shards(ranks * workers + ranks));
            let flight = flight_for(
                opts,
                false,
                paratreet::core_api::framework::FLIGHT_SERIES,
                (iterations + 1) * 2 + 8,
            );
            let eng = ThreadedEngine::new(config, ranks, workers, &visitor)
                .with_telemetry(telemetry.clone())
                .with_flight_recorder(flight.clone());
            let rep = if incremental {
                // Maintained mode: the tree persists across iterations
                // inside `slot`; each step drifts the particles and
                // patches the tree instead of rebuilding it.
                let mut slot = None;
                let mut rep = eng.run_maintained(&mut slot, particles, kind);
                for step in 1..iterations.max(1) {
                    let mut ps = rep.particles;
                    for p in ps.iter_mut() {
                        p.vel += p.acc * dt;
                        p.pos += p.vel * dt;
                        p.acc = Vec3::ZERO;
                        p.potential = 0.0;
                    }
                    rep = eng.run_maintained(&mut slot, ps, kind);
                    println!(
                        "step {step}: {} pp interactions, update {:.1} ms",
                        rep.counts.leaf_interactions,
                        rep.metrics.get_f64("time.update_s") * 1e3
                    );
                }
                rep
            } else {
                eng.run_iteration(particles, kind)
            };
            println!(
                "threaded ({ranks}x{workers}): {} pp interactions, {} remote fills, {} fetches",
                rep.counts.leaf_interactions, rep.remote_fills, rep.cache.requests_sent
            );
            write_telemetry(opts, &telemetry, Some(&rep.metrics));
            write_flight(opts, &flight);
            write_outputs(opts, &rep.particles);
        }
        "machine" => {
            let ranks = get(opts, "ranks", 2usize);
            let incremental = config.incremental.enabled;
            let telemetry = telemetry_for(opts, true, 1);
            let flight = flight_for(
                opts,
                true,
                paratreet::core_api::DES_FLIGHT_SERIES,
                (iterations + 1) * 2 + 8,
            );
            let mut eng = DistributedEngine::new(
                MachineSpec::stampede2(ranks),
                config,
                CacheModel::WaitFree,
                kind,
                &visitor,
            )
            .with_telemetry(telemetry.clone())
            .with_flight_recorder(flight.clone());
            if let Some(f) = fault_config(opts) {
                if let Some(c) = f.crash {
                    if ranks < 2 || c.rank as usize >= ranks {
                        eprintln!(
                            "--crash-rank {} needs a machine of at least 2 ranks \
                             with the crashed rank on it (got --ranks {ranks})",
                            c.rank
                        );
                        exit(2);
                    }
                }
                eng = eng.with_faults(f);
            }
            let rep = if incremental {
                // Maintained mode on the simulated machine: later
                // iterations charge Phase::TreeUpdate instead of full
                // decomposition + build time.
                let mut slot = None;
                let mut rep = eng.run_maintained(&mut slot, particles);
                for step in 1..iterations.max(1) {
                    let mut ps = rep.particles;
                    for p in ps.iter_mut() {
                        p.vel += p.acc * dt;
                        p.pos += p.vel * dt;
                        p.acc = Vec3::ZERO;
                        p.potential = 0.0;
                    }
                    rep = eng.run_maintained(&mut slot, ps);
                    println!(
                        "step {step}: makespan {:.3} ms, {} buckets patched, {} migrated",
                        rep.makespan * 1e3,
                        rep.metrics.get_u64("tree.update.patched"),
                        rep.metrics.get_u64("tree.update.round_migrated")
                    );
                }
                rep
            } else {
                eng.run_iteration(particles)
            };
            println!(
                "machine model ({ranks} nodes): makespan {:.3} ms, utilization {:.1}%, {} bytes on the wire",
                rep.makespan * 1e3,
                rep.utilization * 100.0,
                rep.comm.bytes
            );
            if rep.faults != FaultStats::default() || rep.fetch_retries > 0 {
                println!(
                    "faults injected: {} dropped, {} duplicated, {} delayed; {} fetch retries, {} fill errors",
                    rep.faults.dropped,
                    rep.faults.duplicated,
                    rep.faults.delayed,
                    rep.fetch_retries,
                    rep.fill_errors
                );
            }
            if rep.recovery.count > 0 {
                let r = &rep.recovery;
                println!(
                    "crash recovered: detected at {:.3} ms, done at {:.3} ms ({}); \
                     {} stale fills rejected, {} checkpoint bytes read",
                    r.detected_s * 1e3,
                    r.completed_s * 1e3,
                    if r.restarted > 0 {
                        "rank restarted from checkpoint".to_string()
                    } else {
                        format!(
                            "{} subtrees re-sharded, {} partitions moved",
                            r.resharded_subtrees, r.moved_partitions
                        )
                    },
                    r.stale_fills,
                    r.restored_bytes
                );
            }
            write_telemetry(opts, &telemetry, Some(&rep.metrics));
            write_flight(opts, &flight);
            write_outputs(opts, &rep.particles);
        }
        other => {
            eprintln!("unknown engine {other}");
            exit(2);
        }
    }
}

fn run_sph(opts: &HashMap<String, String>) {
    let particles = load_particles("sph", opts);
    let config = configuration(opts);
    let iterations = config.iterations;
    let telemetry = telemetry_for(opts, false, wall_shards(0));
    let flight = flight_for(
        opts,
        false,
        paratreet::core_api::framework::FLIGHT_SERIES,
        (iterations + 1) * 2 + 8,
    );
    let mut fw = sph_framework(config, particles);
    fw.telemetry = telemetry.clone();
    fw.flight = flight.clone();
    let sph = SphSimulation { k: get(opts, "k", 32usize), ..Default::default() };
    let dt = get(opts, "dt", 1e-3);
    let mut metrics = MetricsRegistry::new();
    for step in 0..iterations {
        for p in fw.particles_mut().iter_mut() {
            p.acc = Vec3::ZERO;
        }
        let stats = sph.step(&mut fw);
        for p in fw.particles_mut().iter_mut() {
            p.vel += p.acc * dt;
            p.pos += p.vel * dt;
        }
        println!(
            "step {step}: mean density {:.4}, {} neighbour entries",
            stats.mean_density, stats.neighbor_entries
        );
        metrics.set_f64("sph.mean_density", stats.mean_density);
        metrics.set_u64("sph.neighbor_entries", stats.neighbor_entries as u64);
        metrics.set_u64("sph.steps", (step + 1) as u64);
    }
    write_telemetry(opts, &telemetry, Some(&metrics));
    write_flight(opts, &flight);
    write_outputs(opts, fw.particles());
}

fn run_disk(opts: &HashMap<String, String>) {
    let particles = load_particles("disk", opts);
    let mut config = configuration(opts);
    if !opts.contains_key("tree") {
        config.tree_type = paratreet_tree::TreeType::LongestDim;
    }
    if !opts.contains_key("decomp") {
        config.decomp_type = DecompType::LongestDim;
    }
    let iterations = config.iterations;
    let star_mass = particles.first().map(|p| p.mass).unwrap_or(1.0);
    let dt = get(opts, "dt", orbital_period(2.0, star_mass) / 50.0);
    let telemetry = telemetry_for(opts, false, wall_shards(0));
    let flight = flight_for(
        opts,
        false,
        paratreet::core_api::framework::FLIGHT_SERIES,
        (iterations + 1) * 2 + 8,
    );
    let mut sim = DiskSimulation::new(config, particles, dt);
    sim.framework.telemetry = telemetry.clone();
    sim.framework.flight = flight.clone();
    for step in 0..iterations {
        let events = sim.step();
        if !events.is_empty() {
            println!("step {step}: {} collisions (total {})", events.len(), sim.events.len());
        }
    }
    println!(
        "{} collisions over {iterations} steps; {} bodies remain",
        sim.events.len(),
        sim.framework.particles().len()
    );
    let mut metrics = MetricsRegistry::new();
    metrics.set_u64("disk.collisions", sim.events.len() as u64);
    metrics.set_u64("disk.steps", iterations as u64);
    metrics.set_u64("disk.bodies_remaining", sim.framework.particles().len() as u64);
    write_telemetry(opts, &telemetry, Some(&metrics));
    write_flight(opts, &flight);
    write_outputs(opts, sim.framework.particles());
}

fn run_serve_bench(opts: &HashMap<String, String>) {
    use paratreet_serve::{
        run_load, AdmissionPolicy, DegradeConfig, FailPoints, LoadConfig, QueryClass, QueryService,
        ServeConfig, WriterConfig,
    };
    use paratreet_tree::CountData;

    let particles = load_particles("serve-bench", opts);
    let mut config = configuration(opts);
    config.incremental.enabled = true;
    let admission = match get(opts, "admission", "defer".to_string()).as_str() {
        "defer" => AdmissionPolicy::Defer,
        "shed" => AdmissionPolicy::Shed,
        "cost" => AdmissionPolicy::CostAware,
        other => {
            eprintln!("unknown admission policy {other} (defer | shed | cost)");
            exit(2);
        }
    };
    let iterations = get(opts, "iterations", 0u64);
    let pace_ms = get(opts, "writer-pace-ms", 0u64);
    let deadline_ms = get(opts, "deadline-ms", 0u64);
    let max_backlog_ms = get(opts, "max-backlog-ms", 0u64);
    let degrade_on = get(opts, "degrade", 0u64) != 0;
    let fail = FailPoints {
        worker_panic_at_batch: match get(opts, "inject-worker-panic", 0u64) {
            0 => None,
            n => Some(n),
        },
        writer_panic_at_epoch: match get(opts, "inject-writer-panic", 0u64) {
            0 => None,
            n => Some(n),
        },
    };

    let (maintainer, seed_trees) =
        paratreet::core_api::TreeMaintainer::<CountData>::seed(&config, particles, true);
    let universe = maintainer.universe();

    // Attach observability *before* the service spawns: workers trace
    // each request's span chain into `telemetry` as it runs, and the
    // sampler thread records FLIGHT_SERIES rows while the load is live.
    let serve_workers = get(opts, "serve-workers", 4usize);
    let client_threads = get(opts, "threads", 4usize);
    let telemetry = telemetry_for(opts, false, wall_shards(serve_workers + client_threads + 2));
    let flight = flight_for(opts, false, paratreet_serve::service::FLIGHT_SERIES, 65_536);
    let mut service: QueryService<CountData> = QueryService::with_telemetry(
        ServeConfig {
            workers: serve_workers,
            queue_capacity: get(opts, "queue", 256usize),
            ring_capacity: get(opts, "ring", 8usize),
            admission,
            max_backlog: (max_backlog_ms > 0)
                .then(|| std::time::Duration::from_millis(max_backlog_ms)),
            degrade: if degrade_on { DegradeConfig::default() } else { DegradeConfig::disabled() },
            respawn_limit: get(opts, "respawn-limit", 8u32),
            fail,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    if flight.is_enabled() {
        let interval = std::time::Duration::from_millis(get(opts, "sample-ms", 5u64));
        service.spawn_flight_sampler(flight.clone(), interval);
    }
    service.spawn_writer(
        maintainer,
        seed_trees,
        Box::new(|particles: &mut [Particle], iteration: u64| {
            for p in particles.iter_mut() {
                let h = p.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ iteration;
                p.pos.x += ((h & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
                p.pos.y += ((h >> 8 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
                p.pos.z += ((h >> 16 & 0xFF) as f64 / 255.0 - 0.5) * 2e-3;
            }
        }),
        WriterConfig {
            iterations: if iterations == 0 { u64::MAX } else { iterations },
            pace: (pace_ms > 0).then(|| std::time::Duration::from_millis(pace_ms)),
        },
    );

    let load = LoadConfig {
        clients: get(opts, "clients", 200usize),
        queries_per_client: get(opts, "queries", 50usize),
        threads: client_threads,
        batch: get(opts, "batch", 32usize),
        k: get(opts, "k", 8usize),
        seed: get(opts, "seed", 1u64),
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        max_retries: get(opts, "retries", 3u32),
        pace: match get(opts, "pace-us", 0u64) {
            0 => None,
            us => Some(std::time::Duration::from_micros(us)),
        },
        ..LoadConfig::default()
    };
    let report = run_load(&service, universe, &load);
    let health = service.health();
    let shutdown = service.shutdown();
    let last_epoch = shutdown.last_epoch.unwrap_or(0);
    let metrics = service.metrics();

    println!(
        "{} completed / {} submitted / {} shed in {:.2}s — {:.0} queries/s; \
         epochs {}..{} answered, writer published {} (last epoch {last_epoch})",
        report.completed,
        report.submitted,
        report.shed,
        report.elapsed_s,
        report.throughput,
        report.min_epoch,
        report.max_epoch,
        metrics.get_u64("serve.snapshots.published"),
    );
    println!(
        "  overload: {} deadline-exceeded, {} retries, {} abandoned, {} degraded, {} partial",
        report.deadline_exceeded, report.retries, report.abandoned, report.degraded, report.partial,
    );
    let issued: u64 = report.per_class.iter().sum();
    if load.deadline.is_some() && issued > 0 {
        println!(
            "  in-deadline completion: {}/{} = {:.1}%",
            metrics.get_u64("serve.queries.completed_in_deadline"),
            issued,
            100.0 * metrics.get_u64("serve.queries.completed_in_deadline") as f64 / issued as f64,
        );
    }
    println!(
        "  health: {} writer, {}/{} workers alive, {} panics, {} respawns{}{}",
        health.writer.label(),
        health.workers_alive,
        health.workers_configured,
        health.worker_panics,
        health.worker_respawns,
        if health.stale_serving {
            format!(", STALE-SERVING ({} epochs behind)", health.staleness_epochs)
        } else {
            String::new()
        },
        if shutdown.is_clean() { String::new() } else { " [unclean shutdown]".to_string() },
    );
    for class in QueryClass::ALL {
        let key = |stat: &str| format!("serve.latency.{}.{stat}", class.label());
        println!(
            "  {:>5}: {} queries, p50 {:.1}us p99 {:.1}us p999 {:.1}us",
            class.label(),
            metrics.get_u64(&key("count")),
            metrics.get_u64(&key("p50")) as f64 * 1e-3,
            metrics.get_u64(&key("p99")) as f64 * 1e-3,
            metrics.get_u64(&key("p999")) as f64 * 1e-3,
        );
    }

    write_telemetry(opts, &telemetry, Some(&metrics));
    write_flight(opts, &flight);
}

/// Friends-of-friends halo finding over a tiled forest: decompose per
/// box, balance the seams, exchange ghost layers at the linking length,
/// link with the dual-tree pass, and merge halos across boxes. The
/// machine engine additionally prices the exchange through the DES comm
/// model (`ghost.des.*` metrics, virtual-time spans).
fn run_fof(opts: &HashMap<String, String>) {
    use paratreet::core_api::{
        decompose_forest, des_ghost_exchange, enforce_seam_balance, exchange_ghosts, DomainSpec,
    };
    use paratreet_apps::fof::{link_forest, FofParams};
    use paratreet_tree::CountData;

    let config = configuration(opts);
    let particles = load_particles("fof", opts);
    let tiles = parse_tiles(opts);
    let tile = get(opts, "tile", 1.0f64);
    let periodic = get(opts, "periodic", true);
    let spec = DomainSpec::tiled(tiles, tile, periodic);
    let n = particles.len();
    let volume = (tiles[0] * tiles[1] * tiles[2]) as f64 * tile * tile * tile;
    let mut link = get(opts, "link", 0.0f64);
    if link <= 0.0 {
        link = 0.2 * (volume / n.max(1) as f64).cbrt();
    }
    let params = FofParams { link, min_members: get(opts, "min-members", 8usize) };
    let engine = get(opts, "engine", "shared".to_string());
    let machine_engine = match engine.as_str() {
        "machine" => true,
        "shared" => false,
        other => {
            eprintln!("unknown engine {other} for fof (shared | machine)");
            exit(2);
        }
    };
    let telemetry = telemetry_for(opts, machine_engine, wall_shards(0));

    let t0 = std::time::Instant::now();
    let forest = decompose_forest(particles, &config, &spec);
    let mut trees = forest.build_trees::<CountData>(&config, !machine_engine);
    let seam_splits = enforce_seam_balance(
        &mut trees,
        &forest.boxes,
        &forest.routes,
        config.tree_type,
        config.bucket_size,
    );
    let layer = exchange_ghosts(&forest, &trees, link, &telemetry);
    let catalog =
        link_forest(&forest, &trees, &layer, &params, config.tree_type, config.bucket_size);
    let elapsed = t0.elapsed().as_secs_f64();

    let mut metrics = MetricsRegistry::new();
    let mut fstats = forest.stats();
    fstats.seam_splits = seam_splits;
    metrics.absorb("forest", &fstats);
    metrics.absorb("ghost", &layer.stats);
    metrics.absorb("fof", &catalog);
    metrics.set_f64("fof.link", link);
    metrics.set_f64("fof.elapsed_s", elapsed);
    if machine_engine {
        let ranks = get(opts, "ranks", 2usize);
        let workers = get(opts, "workers", 2usize);
        let report =
            des_ghost_exchange(&layer, MachineSpec::test(ranks, workers), telemetry.clone());
        metrics.absorb("ghost.des", &report);
        println!(
            "ghost DES: {} messages, {} bytes, makespan {:.3} ms, utilization {:.0}%",
            report.comm.messages,
            report.comm.bytes,
            report.makespan * 1e3,
            report.utilization * 100.0
        );
    }
    println!(
        "fof: {} boxes, {} routes, {} seam splits; {} ghosts ({} bytes); \
         {} halos (largest {}, grouped {}/{}) with link {:.4} in {:.3} s",
        forest.boxes.len(),
        forest.routes.len(),
        seam_splits,
        layer.stats.particles,
        layer.stats.bytes,
        catalog.halos.len(),
        catalog.halos.first().map(|h| h.members.len()).unwrap_or(0),
        catalog.n_grouped,
        catalog.n_particles,
        link,
        elapsed,
    );
    for h in catalog.halos.iter().take(5) {
        println!(
            "  halo {:>6}: {:>6} members, mass {:.4}, center ({:.3}, {:.3}, {:.3})",
            h.id,
            h.members.len(),
            h.mass,
            h.center.x,
            h.center.y,
            h.center.z
        );
    }
    write_telemetry(opts, &telemetry, Some(&metrics));
}

fn main() {
    let (app, opts) = parse_args();
    match app.as_str() {
        "gravity" => run_gravity(&opts),
        "sph" => run_sph(&opts),
        "disk" => run_disk(&opts),
        "serve-bench" => run_serve_bench(&opts),
        "fof" => run_fof(&opts),
        "help" | "-h" | "--help" => println!("{USAGE}"),
        other => {
            eprintln!("unknown app {other}\n{USAGE}");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The list `parse_args` checks against is the list of option lines
    /// a user reads; `tests/cli.rs` feeds every `--name` the text
    /// mentions, prose included, through the parser.
    #[test]
    fn options_and_usage_name_the_same_flags() {
        let listed: BTreeSet<&str> = OPTIONS.iter().copied().collect();
        assert_eq!(listed.len(), OPTIONS.len(), "duplicate entry in OPTIONS");
        let documented: BTreeSet<&str> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(documented, listed);
    }
}
