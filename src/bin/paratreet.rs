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
//!
//! The binary is a table ([`APPS`]): each app names the options it reads
//! and the engines it runs on, and the parser holds every invocation to
//! it.

#![warn(clippy::too_many_lines)]

use paratreet::core_api::framework::FLIGHT_SERIES;
use paratreet::core_api::{
    CacheModel, Configuration, DecompType, DistributedEngine, Framework, ThreadedEngine,
    TraversalKind, TreeMaintainer, DES_FLIGHT_SERIES,
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
use paratreet_tree::CountData;
use std::collections::HashMap;
use std::process::exit;

const USAGE: &str = "\
paratreet — spatial tree traversal framework (ParaTreeT reproduction)

USAGE: paratreet <APP> [OPTIONS]

Options are per app: one the chosen app (or engine) does not read stops
the run, naming it. Every simulation app takes WORKLOAD, CONFIGURATION
and OUTPUT options; the sections below say who reads the rest.

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
  --traversal KIND     top-down | basic-dfs | up-and-down
                       (gravity)                           [top-down]
  --bucket N           max bucket size                     [16]
  --subtrees N         minimum Subtrees                    [8]
  --partitions N       minimum Partitions                  [16]
  --iterations N       simulation steps, on every engine   [1]
  --theta T            Barnes-Hut opening angle (gravity)  [0.7]
  --k N                SPH/kNN neighbour count (sph,
                       serve-bench)                        [32]
  --dt T               timestep (gravity/sph/disk)         [auto]

ENGINE (gravity: all three; others: shared):
  --engine KIND        shared | threaded | machine         [shared]
  --ranks N            ranks for threaded/machine engines  [2]
  --workers N          workers per rank (gravity threaded) [2]

INCREMENTAL TREE MAINTENANCE (gravity/sph/disk on the shared engine;
serve-bench always maintains and reads the tuning below):
  --incremental B      maintain the tree across iterations instead
                       of rebuilding from scratch          [false]
                       (a Subtree whose leaf escapees pass 10 % of
                       its bodies is rebuilt, the others patched)
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
  --admission KIND     defer (backpressure) | shed (refuse
                       when the queue is full)             [defer]
  --writer-pace-ms T   sleep between writer advances, ms   [0]
                       (--iterations 0 = advance until the load
                       finishes; N = stop after N advances)
  --deadline-ms T      per-request completion deadline, ms
                       (0 = none; expired requests answered
                       DeadlineExceeded, not executed)      [0]

FAULT INJECTION (gravity, machine engine only; seeded, deterministic):
  --fault-drop P       drop probability per message        [0]
  --fault-dup P        duplicate probability per message   [0]
  --fault-delay P      extra-delay probability per message [0]
  --fault-delay-s T    extra delay magnitude, seconds      [2e-3]
  --fault-seed S       fault stream seed                   [0x5EEDCAFE]
  --fault-timeout T    fetch retry timeout, seconds        [5e-3]

CRASH-STOP FAULTS (gravity, machine engine only; deterministic):
  --crash-rank R       rank R crash-stops (requires --ranks >= 2)
  --crash-phase P      decomposition | tree-build | leaf-sharing |
                       traversal — crash at that phase start [traversal]
  --crash-time T       crash at virtual time T seconds (overrides
                       --crash-phase)
  --crash-restart B    true: restart from checkpoint; false: stay dead
                       and re-shard onto survivors          [true]
  --crash-restart-delay T  reboot delay after detection, s  [5e-3]

OUTPUT (snapshot, CSV: gravity/sph/disk; time series: all but fof):
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

/// One application: what it runs on and which options it reads. An
/// option outside its table stops the run.
struct App {
    name: &'static str,
    /// Groups of options it reads on every engine.
    options: &'static [&'static [&'static str]],
    /// `(engine, groups of options read on that engine only)`; the
    /// first engine is the default.
    engines: &'static [(&'static str, &'static [&'static [&'static str]])],
    run: fn(&Opts),
}

const WORKLOAD: &[&str] = &["particles", "dist", "seed", "input", "radius-scale", "tiles", "tile"];
const TREE: &[&str] = &["tree", "decomp", "bucket", "subtrees", "partitions"];
const MAINTAIN: &[&str] = &["inc-alpha", "inc-depth-slack", "inc-imbalance", "inc-universe-pad"];
const STEPS: &[&str] = &["iterations", "dt"];
const OBSERVE: &[&str] = &["trace-out", "metrics-out"];
const STATE_OUT: &[&str] = &["output", "csv", "timeseries-out"];
#[rustfmt::skip]
const FAULTS: &[&str] = &[
    "ranks",
    "fault-drop", "fault-dup", "fault-delay", "fault-delay-s", "fault-seed", "fault-timeout",
    "crash-rank", "crash-phase", "crash-time", "crash-restart", "crash-restart-delay",
];
#[rustfmt::skip]
const SERVE: &[&str] = &[
    "iterations", "k", "timeseries-out", "sample-ms",
    "clients", "queries", "serve-workers", "threads", "batch", "queue", "ring", "admission",
    "writer-pace-ms", "deadline-ms",
];
const SHARED_ONLY: &[(&str, &[&[&str]])] = &[("shared", &[])];

const APPS: &[App] = &[
    App {
        name: "gravity",
        options: &[WORKLOAD, TREE, STEPS, &["traversal", "theta"], OBSERVE, STATE_OUT],
        engines: &[
            ("shared", &[&["incremental"], MAINTAIN]),
            ("threaded", &[&["ranks", "workers"]]),
            ("machine", &[FAULTS]),
        ],
        run: run_gravity,
    },
    App {
        name: "sph",
        options: &[WORKLOAD, TREE, &["incremental"], MAINTAIN, STEPS, &["k"], OBSERVE, STATE_OUT],
        engines: SHARED_ONLY,
        run: run_sph,
    },
    App {
        name: "disk",
        options: &[WORKLOAD, TREE, &["incremental"], MAINTAIN, STEPS, OBSERVE, STATE_OUT],
        engines: SHARED_ONLY,
        run: run_disk,
    },
    App {
        name: "serve-bench",
        options: &[WORKLOAD, TREE, MAINTAIN, SERVE, OBSERVE],
        engines: SHARED_ONLY,
        run: run_serve_bench,
    },
    App {
        name: "fof",
        options: &[WORKLOAD, TREE, &["periodic", "link", "min-members"], OBSERVE],
        engines: SHARED_ONLY,
        run: run_fof,
    },
];

impl App {
    /// Every option the app reads on some engine.
    fn all_options(&self) -> impl Iterator<Item = &'static str> {
        let per_engine = self.engines.iter().flat_map(|(_, own)| *own);
        self.options
            .iter()
            .chain(per_engine)
            .flat_map(|group| group.iter().copied())
            .chain(["engine"])
    }
}

/// The parsed `--name value` pairs of one invocation.
struct Opts(HashMap<String, String>);

impl Opts {
    fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.0.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: {v}");
                exit(2);
            }),
            None => default,
        }
    }

    /// `--key`'s value looked up among `choices` — `default` names the
    /// one an absent option means; any other value exits 2 listing them.
    fn choice<T: Copy>(&self, key: &str, default: &str, choices: &[(&str, T)]) -> T {
        let given = self.str(key).unwrap_or(default);
        match choices.iter().find(|(name, _)| *name == given) {
            Some(&(_, value)) => value,
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                eprintln!("bad value for --{key}: {given} (expected {})", names.join(" | "));
                exit(2);
            }
        }
    }

    /// Parses `--tiles AxBxC` (e.g. `2x2x1`).
    fn tiles(&self) -> [usize; 3] {
        let s = self.get("tiles", "2x2x1".to_string());
        let parts: Vec<usize> = s.split('x').filter_map(|t| t.parse().ok()).collect();
        if parts.len() != 3 || parts.contains(&0) {
            eprintln!("bad value for --tiles: {s} (expected AxBxC, e.g. 2x2x1)");
            exit(2);
        }
        [parts[0], parts[1], parts[2]]
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    exit(2);
}

/// Splits the command line into the app and its options. A name no app
/// reads, or one the chosen app does not read on the chosen engine,
/// stops the run; `help` takes any documented option and prints the
/// usage text. The engine the run is on is left under `engine`.
fn parse_args() -> (Option<&'static App>, Opts) {
    let mut args = std::env::args().skip(1);
    let name = match args.next() {
        Some(a) if !a.starts_with("--") => a,
        _ => usage_error("no application given"),
    };
    let app = APPS.iter().find(|a| a.name == name);
    if app.is_none() && !matches!(name.as_str(), "help" | "-h") {
        usage_error(&format!("unknown app {name}"));
    }
    let mut opts = Opts(HashMap::new());
    while let Some(k) = args.next() {
        let Some(name) = k.strip_prefix("--") else {
            usage_error(&format!("unexpected argument {k}"));
        };
        if !APPS.iter().any(|a| a.all_options().any(|o| o == name)) {
            usage_error(&format!("unknown option --{name}"));
        }
        match args.next() {
            Some(v) => opts.0.insert(name.to_string(), v),
            None => usage_error(&format!("missing value for --{name}")),
        };
    }
    if let Some(app) = app {
        let engine = opts.str("engine").unwrap_or(app.engines[0].0);
        let Some((_, on_engine)) = app.engines.iter().find(|(e, _)| *e == engine) else {
            let engines: Vec<&str> = app.engines.iter().map(|(e, _)| *e).collect();
            eprintln!(
                "{} does not run on engine {engine} (only {})",
                app.name,
                engines.join(" | ")
            );
            exit(2);
        };
        let read = [&["engine"][..], &on_engine.concat(), &app.options.concat()].concat();
        if let Some(name) = opts.0.keys().find(|name| !read.contains(&name.as_str())) {
            eprintln!("option --{name} is not read by {} on the {engine} engine", app.name);
            exit(2);
        }
        let engine = engine.to_string();
        opts.0.insert("engine".to_string(), engine);
    }
    (app, opts)
}

fn load_particles(app: &str, opts: &Opts) -> Vec<Particle> {
    if let Some(path) = opts.str("input") {
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
    let n = opts.get("particles", 10_000usize);
    let seed = opts.get("seed", 1u64);
    let default_dist = match app {
        "sph" => "lattice",
        "disk" => "disk",
        "fof" => "tiled",
        _ => "plummer",
    };
    let generators: [(&str, &dyn Fn() -> Vec<Particle>); 6] = [
        ("uniform", &|| gen::uniform_cube(n, seed, 1.0, 1.0)),
        ("plummer", &|| gen::plummer(n, seed, 1.0, 1.0)),
        ("clustered", &|| gen::clustered(n, 4, seed, 1.0, 1.0)),
        ("lattice", &|| gen::perturbed_lattice(n, seed, 0.5, 0.02)),
        ("tiled", &|| gen::tiled_plummer(n, opts.tiles(), seed, opts.get("tile", 1.0), 1.0)),
        ("disk", &|| {
            let mut params = DiskParams::default();
            params.body_radius *= opts.get("radius-scale", 3e4);
            gen::keplerian_disk(n, seed, params)
        }),
    ];
    opts.choice("dist", default_dist, &generators)()
}

fn configuration(opts: &Opts, default_tree: &str, default_decomp: &str) -> Configuration {
    use paratreet_tree::TreeType;
    let trees = [
        ("oct", TreeType::Octree),
        ("kd", TreeType::KdTree),
        ("longest-dim", TreeType::LongestDim),
    ];
    let decomps = [
        ("sfc", DecompType::Sfc),
        ("oct", DecompType::Oct),
        ("kd", DecompType::Kd),
        ("longest-dim", DecompType::LongestDim),
    ];
    let mut config = Configuration {
        tree_type: opts.choice("tree", default_tree, &trees),
        decomp_type: opts.choice("decomp", default_decomp, &decomps),
        bucket_size: opts.get("bucket", 16usize),
        n_subtrees: opts.get("subtrees", 8usize),
        n_partitions: opts.get("partitions", 16usize),
        ..Default::default()
    };
    let inc = &mut config.incremental;
    inc.enabled = opts.get("incremental", inc.enabled);
    inc.balance_alpha = opts.get("inc-alpha", inc.balance_alpha);
    inc.balance_depth_slack = opts.get("inc-depth-slack", inc.balance_depth_slack);
    inc.imbalance_rebuild = opts.get("inc-imbalance", inc.imbalance_rebuild);
    inc.universe_pad = opts.get("inc-universe-pad", inc.universe_pad);
    config
}

/// Scheduled crash-stop knobs; `None` unless `--crash-rank` was given.
fn crash_config(opts: &Opts) -> Option<CrashConfig> {
    opts.str("crash-rank")?;
    let phases = [
        ("decomposition", CrashPhase::Decomposition),
        ("tree-build", CrashPhase::TreeBuild),
        ("leaf-sharing", CrashPhase::LeafSharing),
        ("traversal", CrashPhase::Traversal),
    ];
    let trigger = if opts.str("crash-time").is_some() {
        CrashTrigger::AtTime(opts.get("crash-time", 0.0f64))
    } else {
        CrashTrigger::AtPhase(opts.choice("crash-phase", "traversal", &phases))
    };
    Some(CrashConfig {
        rank: opts.get("crash-rank", 0u32),
        trigger,
        restart: opts.get("crash-restart", true),
        restart_delay_s: opts.get("crash-restart-delay", 5e-3),
    })
}

/// Fault-injection knobs for the machine engine; `None` when every
/// probability is zero and no crash is scheduled (a perfect network
/// needs no retry machinery). Every rejected configuration is reported
/// through [`FaultConfigError`]'s rendering, not a panic.
fn fault_config(opts: &Opts, ranks: usize) -> Option<FaultConfig> {
    let drop_p = opts.get("fault-drop", 0.0f64);
    let duplicate_p = opts.get("fault-dup", 0.0f64);
    let delay_p = opts.get("fault-delay", 0.0f64);
    let crash = crash_config(opts);
    if drop_p == 0.0 && duplicate_p == 0.0 && delay_p == 0.0 && crash.is_none() {
        return None;
    }
    let config = FaultConfig {
        seed: opts.get("fault-seed", 0x5EED_CAFEu64),
        drop_p,
        duplicate_p,
        delay_p,
        delay_s: opts.get("fault-delay-s", 2e-3),
        retry_timeout_s: opts.get("fault-timeout", 5e-3),
        crash,
    };
    if let Err(e) = FaultInjector::new(config) {
        eprintln!("invalid fault configuration: {e}");
        exit(2);
    }
    if let Some(c) = crash.filter(|c| ranks < 2 || c.rank as usize >= ranks) {
        eprintln!(
            "--crash-rank {} needs a machine of at least 2 ranks \
             with the crashed rank on it (got --ranks {ranks})",
            c.rank
        );
        exit(2);
    }
    Some(config)
}

/// Where a run's observations go: the telemetry handle behind
/// `--trace-out` and the flight recorder behind `--timeseries-out`
/// (virtual clock for the machine engine, wall clock otherwise) — each
/// disabled, and therefore free, when its flag was not given — and,
/// once the run is over, every file an output flag names.
struct Outputs<'a> {
    opts: &'a Opts,
    telemetry: Telemetry,
    flight: FlightRecorder,
}

/// Flight rows a simulation of `iterations` steps can write.
fn step_rows(iterations: usize) -> usize {
    (iterations + 1) * 2 + 8
}

impl<'a> Outputs<'a> {
    /// `extra_threads` are the OS threads the engine adds to the pool's;
    /// `series` and `capacity` shape the flight recorder.
    fn new(
        opts: &'a Opts,
        virtual_clock: bool,
        extra_threads: usize,
        series: &[&'static str],
        capacity: usize,
    ) -> Outputs<'a> {
        let shards =
            extra_threads + std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8) + 1;
        let telemetry = match (opts.str("trace-out").is_some(), virtual_clock) {
            (false, _) => Telemetry::disabled(),
            (true, true) => Telemetry::virtual_time(1),
            (true, false) => Telemetry::wall(shards),
        };
        let flight = match (opts.str("timeseries-out").is_some(), virtual_clock) {
            (false, _) => FlightRecorder::disabled(),
            (true, true) => FlightRecorder::virtual_time(series, capacity),
            (true, false) => FlightRecorder::wall(series, capacity),
        };
        Outputs { opts, telemetry, flight }
    }

    /// Writes the file behind `flag`, if it was given; a failure ends
    /// the run with exit 1.
    fn file(&self, flag: &str, what: &str, write: impl FnOnce(&str) -> std::io::Result<()>) {
        let Some(path) = self.opts.str(flag) else { return };
        match write(path) {
            Ok(()) => println!("wrote {what} to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(1);
            }
        }
    }

    /// Drains the trace, dumps `metrics` and the flight window, and
    /// writes the final `particles` — each where its flag points.
    fn write(&self, metrics: &MetricsRegistry, particles: &[Particle]) {
        self.file("trace-out", "Chrome trace", |path| {
            export::write_chrome_trace(path, &self.telemetry.drain())
        });
        self.file("metrics-out", "metrics", |path| export::write_metrics(path, metrics));
        self.file("timeseries-out", "flight-recorder series", |path| {
            export::write_timeseries(path, &self.flight.snapshot())
        });
        self.file("output", "snapshot", |path| io::write_snapshot(path, particles));
        self.file("csv", "CSV", |path| {
            std::fs::File::create(path).and_then(|mut f| io::write_csv(&mut f, particles))
        });
    }
}

/// `iterations` leapfrog (kick-drift-kick) steps, on any engine:
/// `forces` computes the accelerations of the particles it is handed and
/// hands them back with its report — once for the initial forces, then
/// once per step, which `step_line` then reports. Returns the last
/// report and the final particles.
fn leapfrog<R>(
    (iterations, dt): (usize, f64),
    particles: Vec<Particle>,
    mut forces: impl FnMut(Vec<Particle>) -> (R, Vec<Particle>),
    step_line: impl Fn(usize, &R),
) -> (R, Vec<Particle>) {
    let kick = |ps: &mut [Particle]| ps.iter_mut().for_each(|p| p.vel += p.acc * (0.5 * dt));
    let (mut rep, mut ps) = forces(particles);
    for step in 0..iterations {
        kick(&mut ps);
        for p in ps.iter_mut() {
            p.pos += p.vel * dt;
            p.acc = Vec3::ZERO;
            p.potential = 0.0;
        }
        (rep, ps) = forces(ps);
        kick(&mut ps);
        step_line(step, &rep);
    }
    (rep, ps)
}

fn run_gravity(opts: &Opts) {
    let traversals = [
        ("top-down", TraversalKind::TopDown),
        ("basic-dfs", TraversalKind::BasicDfs),
        ("up-and-down", TraversalKind::UpAndDown),
    ];
    let kind = opts.choice("traversal", "top-down", &traversals);
    let mut particles = load_particles("gravity", opts);
    for p in &mut particles {
        if p.softening == 0.0 {
            p.softening = 0.01;
        }
    }
    let config = configuration(opts, "oct", "sfc");
    let visitor = GravityVisitor { theta: opts.get("theta", 0.7), g: 1.0 };
    let steps @ (iterations, _) = (opts.get("iterations", 1usize), opts.get("dt", 1.0 / 64.0));
    let (ranks, workers) = (opts.get("ranks", 2usize), opts.get("workers", 2usize));
    match opts.str("engine") {
        Some("shared") => {
            let out = Outputs::new(opts, false, 0, FLIGHT_SERIES, step_rows(iterations));
            let mut fw: Framework<CentroidData> = Framework::new(config, Vec::new())
                .with_telemetry(out.telemetry.clone())
                .with_flight_recorder(out.flight.clone());
            let forces = |ps| {
                *fw.particles_mut() = ps;
                let (_, report) = fw.step(|s| {
                    s.traverse(&visitor, kind);
                });
                (report, std::mem::take(fw.particles_mut()))
            };
            let (report, particles) = leapfrog(steps, particles, forces, |step, report| {
                println!(
                    "step {step}: {} pp + {} pn interactions, traverse {:.1} ms",
                    report.counts.leaf_interactions,
                    report.counts.node_interactions,
                    report.seconds_traverse * 1e3
                );
            });
            out.write(&report.metrics(), &particles);
        }
        Some("threaded") => {
            let threads = ranks * workers + ranks;
            let out = Outputs::new(opts, false, threads, FLIGHT_SERIES, step_rows(iterations));
            let eng = ThreadedEngine::new(config, ranks, workers, &visitor)
                .with_telemetry(out.telemetry.clone())
                .with_flight_recorder(out.flight.clone());
            let forces = |ps| {
                let mut rep = eng.run_iteration(ps, kind);
                let ps = std::mem::take(&mut rep.particles);
                (rep, ps)
            };
            let (rep, particles) = leapfrog(steps, particles, forces, |step, r| {
                println!("step {step}: {} pp interactions", r.counts.leaf_interactions);
            });
            println!(
                "threaded ({ranks}x{workers}): {} pp interactions, {} remote fills, {} fetches",
                rep.counts.leaf_interactions, rep.remote_fills, rep.cache.requests_sent
            );
            out.write(&rep.metrics, &particles);
        }
        _ => {
            let out = Outputs::new(opts, true, 0, DES_FLIGHT_SERIES, step_rows(iterations));
            let machine = MachineSpec::stampede2(ranks);
            let mut eng =
                DistributedEngine::new(machine, config, CacheModel::WaitFree, kind, &visitor)
                    .with_telemetry(out.telemetry.clone())
                    .with_flight_recorder(out.flight.clone());
            if let Some(f) = fault_config(opts, ranks) {
                eng = eng.with_faults(f);
            }
            let forces = |ps| {
                let mut rep = eng.run_iteration(ps);
                let ps = std::mem::take(&mut rep.particles);
                (rep, ps)
            };
            let (rep, particles) = leapfrog(steps, particles, forces, |step, r| {
                println!("step {step}: makespan {:.3} ms", r.makespan * 1e3);
            });
            print_machine_summary(&rep, ranks);
            out.write(&rep.metrics, &particles);
        }
    }
}

fn print_machine_summary(rep: &paratreet::core_api::IterationReport, ranks: usize) {
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
    let r = &rep.recovery;
    if r.count > 0 {
        let how = match r.restarted {
            0 => format!(
                "{} subtrees re-sharded, {} partitions moved",
                r.resharded_subtrees, r.moved_partitions
            ),
            _ => "rank restarted from checkpoint".to_string(),
        };
        println!(
            "crash recovered: detected at {:.3} ms, done at {:.3} ms ({how}); \
             {} stale fills rejected, {} checkpoint bytes read",
            r.detected_s * 1e3,
            r.completed_s * 1e3,
            r.stale_fills,
            r.restored_bytes
        );
    }
}

fn run_sph(opts: &Opts) {
    let particles = load_particles("sph", opts);
    let iterations = opts.get("iterations", 1usize);
    let out = Outputs::new(opts, false, 0, FLIGHT_SERIES, step_rows(iterations));
    let mut fw = sph_framework(configuration(opts, "oct", "sfc"), particles);
    fw.telemetry = out.telemetry.clone();
    fw.flight = out.flight.clone();
    let sph = SphSimulation { k: opts.get("k", 32usize), ..Default::default() };
    let dt = opts.get("dt", 1e-3);
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
    out.write(&metrics, fw.particles());
}

fn run_disk(opts: &Opts) {
    let particles = load_particles("disk", opts);
    let config = configuration(opts, "longest-dim", "longest-dim");
    let iterations = opts.get("iterations", 1usize);
    let star_mass = particles.first().map(|p| p.mass).unwrap_or(1.0);
    let dt = opts.get("dt", orbital_period(2.0, star_mass) / 50.0);
    let out = Outputs::new(opts, false, 0, FLIGHT_SERIES, step_rows(iterations));
    let mut sim = DiskSimulation::new(config, particles, dt);
    sim.framework.telemetry = out.telemetry.clone();
    sim.framework.flight = out.flight.clone();
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
    if let Some(totals) = sim.framework.update_totals() {
        metrics.absorb("tree.update", &totals);
    }
    out.write(&metrics, sim.framework.particles());
}

fn run_serve_bench(opts: &Opts) {
    use paratreet_serve::{
        run_load, AdmissionPolicy, LoadConfig, QueryService, ServeConfig, WriterConfig,
    };
    use std::time::Duration;

    let particles = load_particles("serve-bench", opts);
    let mut config = configuration(opts, "oct", "sfc");
    config.incremental.enabled = true;
    let admissions = [("defer", AdmissionPolicy::Defer), ("shed", AdmissionPolicy::Shed)];
    // `--name 0` switches the feature off.
    let nonzero = |name: &str| Some(opts.get(name, 0u64)).filter(|&n| n > 0);
    let (maintainer, seed_trees) = TreeMaintainer::<CountData>::seed(&config, particles, true);
    let universe = maintainer.universe();

    // Attach observability *before* the service spawns: workers trace
    // each request's span chain into `telemetry` as it runs, and the
    // sampler thread records FLIGHT_SERIES rows while the load is live.
    let serve_workers = opts.get("serve-workers", 4usize);
    let client_threads = opts.get("threads", 4usize);
    let threads = serve_workers + client_threads + 2;
    let out = Outputs::new(opts, false, threads, paratreet_serve::service::FLIGHT_SERIES, 65_536);
    let mut service: QueryService<CountData> = QueryService::with_telemetry(
        ServeConfig {
            workers: serve_workers,
            queue_capacity: opts.get("queue", 256usize),
            ring_capacity: opts.get("ring", 8usize),
            admission: opts.choice("admission", "defer", &admissions),
        },
        out.telemetry.clone(),
    );
    if out.flight.is_enabled() {
        let interval = Duration::from_millis(opts.get("sample-ms", 5u64));
        service.spawn_flight_sampler(out.flight.clone(), interval);
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
            iterations: nonzero("iterations").unwrap_or(u64::MAX),
            pace: nonzero("writer-pace-ms").map(Duration::from_millis),
        },
    );

    let load = LoadConfig {
        clients: opts.get("clients", 200usize),
        queries_per_client: opts.get("queries", 50usize),
        threads: client_threads,
        batch: opts.get("batch", 32usize),
        k: opts.get("k", 8usize),
        seed: opts.get("seed", 1u64),
        deadline: nonzero("deadline-ms").map(Duration::from_millis),
        ..LoadConfig::default()
    };
    let report = run_load(&service, universe, &load);
    let shutdown = service.shutdown();
    let metrics = service.metrics();
    println!(
        "{} completed / {} submitted / {} shed in {:.2}s — {:.0} queries/s; \
         epochs {}..{} answered, writer published {} (last epoch {})",
        report.completed,
        report.submitted,
        report.shed,
        report.elapsed_s,
        report.throughput,
        report.min_epoch,
        report.max_epoch,
        metrics.get_u64("serve.snapshots.published"),
        shutdown.last_epoch.unwrap_or(0),
    );
    let issued: u64 = report.per_class.iter().sum();
    if load.deadline.is_some() && issued > 0 {
        let in_deadline = metrics.get_u64("serve.queries.completed_in_deadline");
        let percent = 100.0 * in_deadline as f64 / issued as f64;
        println!("  in-deadline completion: {in_deadline}/{issued} = {percent:.1}%");
    }
    if !shutdown.is_clean() {
        println!("  unclean shutdown: {shutdown:?}");
    }
    for class in paratreet_serve::QueryClass::ALL {
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
    out.write(&metrics, &[]);
}

/// Friends-of-friends halo finding over a tiled forest: decompose per
/// box, balance the seams, exchange ghost layers at the linking length,
/// link with the dual-tree pass, and merge halos across boxes.
fn run_fof(opts: &Opts) {
    use paratreet::core_api::{
        decompose_forest, enforce_seam_balance, exchange_ghosts, DomainSpec,
    };
    use paratreet_apps::fof::{link_forest, FofParams};

    let config = configuration(opts, "oct", "sfc");
    let particles = load_particles("fof", opts);
    let tiles = opts.tiles();
    let tile = opts.get("tile", 1.0f64);
    let spec = DomainSpec::tiled(tiles, tile, opts.get("periodic", true));
    let n = particles.len();
    let volume = (tiles[0] * tiles[1] * tiles[2]) as f64 * tile * tile * tile;
    let mut link = opts.get("link", 0.0f64);
    if link <= 0.0 {
        link = 0.2 * (volume / n.max(1) as f64).cbrt();
    }
    let params = FofParams { link, min_members: opts.get("min-members", 8usize) };
    let out = Outputs::new(opts, false, 0, &[], 0);

    let t0 = std::time::Instant::now();
    let forest = decompose_forest(particles, &config, &spec);
    let mut trees = forest.build_trees::<CountData>(&config, true);
    let seam_splits = enforce_seam_balance(
        &mut trees,
        &forest.boxes,
        &forest.routes,
        config.tree_type,
        config.bucket_size,
    );
    let layer = exchange_ghosts(&forest, &trees, link, &out.telemetry);
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
    out.write(&metrics, &[]);
}

fn main() {
    match parse_args() {
        (Some(app), opts) => (app.run)(&opts),
        (None, _) => println!("{USAGE}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The options the app tables accept are the option lines a user
    /// reads; `tests/cli.rs` feeds every `--name` the text mentions,
    /// prose included, through the parser.
    #[test]
    fn options_and_usage_name_the_same_flags() {
        let listed: BTreeSet<&str> = APPS.iter().flat_map(App::all_options).collect();
        let documented: BTreeSet<&str> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(documented, listed);
        assert_eq!(listed.len(), 55);
    }
}
