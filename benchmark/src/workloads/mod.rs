//! The six workloads and the scaffolding they share.
//!
//! Every workload has the same shape: set up (several times — the
//! median is `setup_s`), run timed operations for `--seconds`, read the
//! process's peak memory, then check the outputs. The untraced pass
//! keeps one timer per operation; the traced pass alternates plain
//! operations with traced ones (harness spans around each layer call,
//! allocation counting on), so one run yields both the per-layer
//! medians and what tracing itself costs.

use crate::alloc::{counted, AllocCount};
use crate::catalog::MetricSet;
use crate::procfs;
use crate::stats::median;
use crate::trace::SpanLog;
use paratreet_core::WorkCounts;
use paratreet_geometry::Vec3;
use paratreet_particles::{gen, Particle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub mod disk;
pub mod fof;
pub mod gravity;
pub mod serve;
pub mod sph;

/// Centres of the four Plummer spheres of [`clustered`], in the cube
/// of half-width 1 `gen::clustered` draws its centres from.
const CLUSTER_CENTRES: [[f64; 3]; 4] =
    [[-0.55, -0.40, -0.30], [0.60, -0.25, 0.35], [-0.10, 0.65, -0.50], [0.25, 0.30, 0.70]];

/// The clustered particle set of the gravity, SPH and serve workloads:
/// what `gen::clustered(n, 4, seed, 1.0, 1.0)` builds — four
/// `gen::plummer` spheres of scale radius 1/8 and mass 1/4, with its
/// per-cluster sub-seeds — except that the centres are fixed instead of
/// drawn from the seed. The seed then re-samples one density field
/// rather than choosing a new one, so runs on different seeds do the
/// same amount of work to within sampling noise.
pub fn clustered(n: usize, seed: u64) -> Vec<Particle> {
    let clusters = CLUSTER_CENTRES.len();
    let mut out = Vec::with_capacity(n);
    for (c, centre) in CLUSTER_CENTRES.iter().enumerate() {
        let n_c = n / clusters + usize::from(c < n % clusters);
        let sub_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c as u64);
        let shift = Vec3::new(centre[0], centre[1], centre[2]);
        for mut p in gen::plummer(n_c, sub_seed, 0.125, 0.25) {
            p.pos += shift;
            p.id = out.len() as u64;
            out.push(p);
        }
    }
    out
}

/// What the child process was asked to run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed operations run, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub traced: bool,
    /// ~1/20 size: checks the plumbing, not the performance.
    pub smoke: bool,
    /// Failure injection: hang where the timed loop would start.
    pub hang: bool,
}

impl Opts {
    /// `full` particles, or a twentieth of it for `--smoke`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            full / 20
        } else {
            full
        }
    }

    /// Fewest timed operations a run may report on (`full` at full
    /// size), however short `--seconds` is.
    pub fn min_ops(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }

    /// How many times set-up is repeated for the `setup_s` median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Direct calls a layer probe takes its median over.
    pub fn probe_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }
}

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GravityShared,
    GravityThreaded,
    SphKnn,
    DiskMaintained,
    FofTiled,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::GravityShared,
        Workload::GravityThreaded,
        Workload::SphKnn,
        Workload::DiskMaintained,
        Workload::FofTiled,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GravityShared => "gravity_shared",
            Workload::GravityThreaded => "gravity_threaded",
            Workload::SphKnn => "sph_knn",
            Workload::DiskMaintained => "disk_maintained",
            Workload::FofTiled => "fof_tiled",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload in this process.
    pub fn run(self, opts: &Opts, log: &mut SpanLog) -> Outcome {
        match self {
            Workload::GravityShared => gravity::run_shared(opts, log),
            Workload::GravityThreaded => gravity::run_threaded(opts, log),
            Workload::SphKnn => sph::run(opts, log),
            Workload::DiskMaintained => disk::run(opts, log),
            Workload::FofTiled => fof::run(opts, log),
            Workload::ServeMixed => serve::run(opts, log),
        }
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// This pass's metrics.
    pub metrics: MetricSet,
    /// Operations attempted: timed operations plus output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why: one line per kind of failure.
    pub failures: Vec<String>,
    /// Sizes and sample counts, for the human-readable report.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn new(opts: &Opts) -> Outcome {
        Outcome {
            metrics: MetricSet::for_pass(opts.traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one output check; records `what` when it did not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(1, what());
        }
    }

    /// Marks `count` already-attempted operations as failed (no-op for 0).
    pub fn fail(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed += count;
            self.failures.push(if count == 1 { what } else { format!("{what} (x{count})") });
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.set(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: f64) {
        self.notes.push((key, value));
    }
}

/// Runs `build` `opts.setup_reps()` times, dropping all but the last
/// result; returns it with the median seconds one set-up took.
pub fn measure_setup<S>(opts: &Opts, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..opts.setup_reps() {
        drop(last.take()); // one live copy at a time, so peak memory is one set-up's
        let t0 = Instant::now();
        last = Some(build());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// The timed operations of one run.
pub struct Timed {
    /// Seconds each operation took, and whether it was a traced one.
    pub ops: Vec<(bool, f64)>,
    /// Wall seconds from the first operation's start to the last's end,
    /// input preparation between operations included.
    pub wall_s: f64,
    /// Process CPU seconds over the same window.
    pub cpu_s: f64,
    /// Allocation totals of each traced operation.
    pub allocs: Vec<AllocCount>,
}

impl Timed {
    fn seconds_where(&self, traced: bool) -> Vec<f64> {
        self.ops.iter().filter(|(t, _)| *t == traced).map(|(_, s)| *s).collect()
    }

    /// Seconds of the plain (untraced-style) operations.
    pub fn plain(&self) -> Vec<f64> {
        self.seconds_where(false)
    }

    /// Seconds of the traced operations.
    pub fn traced(&self) -> Vec<f64> {
        self.seconds_where(true)
    }
}

/// Runs `op(index, traced)` back to back for `opts.seconds` (and at
/// least `min_ops` times). In the traced pass every other operation is
/// a traced one, with allocation counting on while it runs.
pub fn timed_loop(opts: &Opts, min_ops: usize, mut op: impl FnMut(usize, bool)) -> Timed {
    timed_loop_with(opts, min_ops, || (), |i, traced, ()| op(i, traced))
}

/// [`timed_loop`] for operations that consume an input: `prepare` makes
/// the next one between operations, outside their timers.
pub fn timed_loop_with<I>(
    opts: &Opts,
    min_ops: usize,
    mut prepare: impl FnMut() -> I,
    mut op: impl FnMut(usize, bool, I),
) -> Timed {
    if opts.hang {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
        }
    }
    let mut timed = Timed { ops: Vec::new(), wall_s: 0.0, cpu_s: 0.0, allocs: Vec::new() };
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.traced && i % 2 == 0;
        let input = prepare();
        let t0 = Instant::now();
        let ((), allocs) = counted(traced, || op(i, traced, input));
        timed.ops.push((traced, t0.elapsed().as_secs_f64()));
        if traced {
            timed.allocs.push(allocs);
        }
        i += 1;
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.cpu_s = procfs::cpu_seconds() - cpu0;
    timed
}

/// Fills in the metrics of the five simulation workloads, whose timed
/// operation is one step (or catalog) over `items` particles.
pub fn report_common(out: &mut Outcome, setup_s: f64, gen_ms: f64, timed: &Timed, items: f64) {
    let n_ops = timed.ops.len() as f64;
    let all: Vec<f64> = timed.ops.iter().map(|(_, s)| *s).collect();
    out.attempted += timed.ops.len() as u64;
    out.set("step_s_p50", median(&all));
    out.set("items_per_s", items * n_ops / all.iter().sum::<f64>());
    out.set("cpu_s_per_step", timed.cpu_s / n_ops);
    report_process(out, setup_s, gen_ms, timed);
}

/// The part of [`report_common`] that holds for any timed loop: set-up,
/// memory, CPU use, allocations, and what tracing cost.
pub fn report_process(out: &mut Outcome, setup_s: f64, gen_ms: f64, timed: &Timed) {
    out.note("timed_ops", timed.ops.len() as f64);
    out.note("timed_wall_s", timed.wall_s);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", procfs::peak_rss_mb());

    out.set("particles.gen_ms", gen_ms);
    out.set("process.cpu_util", timed.cpu_s / (timed.wall_s * procfs::nproc() as f64));
    let allocs: Vec<f64> = timed.allocs.iter().map(|a| a.allocs as f64).collect();
    let bytes: Vec<f64> = timed.allocs.iter().map(|a| a.bytes as f64).collect();
    out.set("process.allocs_per_step", median(&allocs));
    out.set("process.alloc_bytes_per_step", median(&bytes));
    let plain = median(&timed.plain());
    if plain > 0.0 {
        out.set("benchmark.trace_overhead_pct", (median(&timed.traced()) - plain) / plain * 100.0);
    }
}

/// `count` particle ids of a generated set of `n` (ids are positions in
/// it), drawn from the seed: the targets of an output check. Ascending,
/// without repeats.
pub fn sample_ids(n: usize, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A17_AB1E);
    let mut ids: Vec<u64> = (0..count.min(n)).map(|_| rng.random_range(0..n as u64)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Reports one step's `WorkCounts` and the rate they were done at,
/// given the seconds its traversals took.
pub fn report_counts(out: &mut Outcome, counts: &WorkCounts, traverse_s: f64) {
    out.set("core.traversal.nodes_visited", counts.nodes_visited as f64);
    out.set("core.traversal.opens", counts.opens as f64);
    out.set("core.traversal.pn_interactions", counts.node_interactions as f64);
    out.set("core.traversal.pp_interactions", counts.leaf_interactions as f64);
    let interactions = (counts.node_interactions + counts.leaf_interactions) as f64;
    out.set("core.traversal.interactions_per_s", interactions / traverse_s);
}

/// Median seconds of `reps` calls of `f` (a direct probe of one layer).
pub fn probe_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&seconds)
}
