//! Every metric the benchmark emits, by name and unit.
//!
//! `BENCHMARK.json` lists the same names (a unit test and `run --smoke`
//! hold the two together). A run prints *every* metric of its pass —
//! end-to-end for the untraced pass, per-layer for the traced one — so a
//! layer a workload never enters reads 0: it did no work and took no
//! time there.

/// A measured value under its catalogue name.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// End-to-end metrics: what a user of the engines sees. README.md has
/// the per-workload definitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_s_p50", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s_per_step", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, layer = `crate.module`. Timings are medians over
/// the traced steps (`*_p50`) or over repeated direct calls (probes).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Input generation (all workloads).
    ("particles.gen_ms", "ms"),
    // Direct probes of the build pipeline on the step-0 particle set.
    ("core.decomp.decompose_ms", "ms"),
    ("tree.build.build_ms", "ms"),
    ("tree.build.nodes", "count"),
    ("cache.tree.init_ms", "ms"),
    // Framework::step split from outside: everything but the closure,
    // and Step::traverse inside it.
    ("core.framework.pre_traverse_ms_p50", "ms"),
    ("core.framework.traverse_ms_p50", "ms"),
    ("core.framework.traverse_share", "ratio"),
    // WorkCounts of step 0 and the rate they were done at.
    ("core.traversal.nodes_visited", "count"),
    ("core.traversal.opens", "count"),
    ("core.traversal.pn_interactions", "count"),
    ("core.traversal.pp_interactions", "count"),
    ("core.traversal.interactions_per_s", "1/s"),
    // Gravity kernels.
    ("apps.gravity.ns_per_interaction", "ns"),
    ("apps.gravity.grav_exact_ns", "ns"),
    ("apps.gravity.grav_approx_ns", "ns"),
    ("apps.gravity.rms_acc_err", "ratio"),
    // Threaded engine and its software cache.
    ("core.threaded.speedup_vs_shared", "ratio"),
    ("core.threaded.cpu_s_per_step", "s"),
    ("core.threaded.remote_fills", "count"),
    ("cache.requests_sent", "count"),
    ("cache.requests_deduped", "count"),
    ("cache.fills_inserted", "count"),
    ("cache.fills_duplicate", "count"),
    ("cache.bytes_received", "B"),
    ("cache.waiters_parked", "count"),
    // kNN / SPH.
    ("apps.knn.ns_per_neighbor", "ns"),
    ("apps.sph.glue_ms_p50", "ms"),
    ("tree.query.knn_k32_ns", "ns"),
    // Disk: the two traversals of a step, and maintenance.
    ("apps.collision.gravity_traverse_ms_p50", "ms"),
    ("apps.collision.collide_traverse_ms_p50", "ms"),
    ("apps.collision.events", "count"),
    ("core.maintain.vs_rebuild_ratio", "ratio"),
    ("core.maintain.step_vs_rebuild_ratio", "ratio"),
    ("core.maintain.advance_ms_p50", "ms"),
    ("tree.update.moved", "count"),
    ("tree.update.patched", "count"),
    ("tree.update.migrated", "count"),
    ("tree.update.batches", "count"),
    ("tree.update.subtree_rebuilds", "count"),
    ("tree.update.full_rebuilds", "count"),
    ("tree.update.update_errors", "count"),
    // Forest + friends-of-friends.
    ("core.forest.decompose_ms_p50", "ms"),
    ("core.forest.build_ms_p50", "ms"),
    ("core.forest.seam_balance_ms_p50", "ms"),
    ("core.forest.exchange_ms_p50", "ms"),
    ("core.forest.seam_splits", "count"),
    ("core.forest.ghost_particles", "count"),
    ("core.forest.ghost_bytes", "B"),
    ("apps.fof.link_ms_p50", "ms"),
    ("apps.fof.ns_per_link", "ns"),
    ("apps.fof.n_links", "count"),
    ("apps.fof.halos", "count"),
    // Query service: reader side.
    ("serve.service.batch_latency_p50_us", "us"),
    ("serve.service.batch_latency_p99_us", "us"),
    ("serve.service.batch_latency_p999_us", "us"),
    ("serve.service.dispatch_us_p50", "us"),
    ("serve.service.errors", "count"),
    ("serve.request.execute_batch_us_p50", "us"),
    ("tree.query.knn_ns", "ns"),
    ("tree.query.ball_ns", "ns"),
    ("tree.query.range_ns", "ns"),
    ("tree.query.ray_ns", "ns"),
    // Query service: writer side.
    ("serve.snapshot.publish_ms_p50", "ms"),
    ("serve.snapshot.publish_bytes", "B"),
    ("serve.snapshot.epochs_published", "count"),
    ("serve.snapshot.pin_retries", "count"),
    ("serve.snapshot.writer_stalls", "count"),
    ("serve.load.late_epochs", "count"),
    // The recorder's own cost, were it on by default.
    ("telemetry.recorder_overhead_pct", "%"),
    // The process, and the harness's own tracing.
    ("process.cpu_util", "ratio"),
    ("process.allocs_per_step", "count"),
    ("process.alloc_bytes_per_step", "B"),
    ("benchmark.trace_overhead_pct", "%"),
];

/// All metrics of one pass, in catalogue order, each starting at 0.
#[derive(Clone, Debug)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    /// The metric set of the untraced (`traced = false`) or traced pass.
    pub fn for_pass(traced: bool) -> MetricSet {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        MetricSet(catalogue.iter().map(|&(name, unit)| Metric { name, unit, value: 0.0 }).collect())
    }

    /// Sets `name`, if this pass reports it: workloads set both kinds of
    /// metric and the pass keeps its own.
    ///
    /// # Panics
    /// If `name` is in neither catalogue — a typo in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
                "metric {name} is not in the catalogue"
            ),
        }
    }

    /// The metrics, in catalogue order.
    pub fn metrics(&self) -> &[Metric] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(well_formed(name, 64, "_.-"), "name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "name {name}");
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn a_pass_keeps_only_its_own_metrics() {
        let mut set = MetricSet::for_pass(false);
        set.set("setup_s", 1.5);
        set.set("particles.gen_ms", 3.0); // per-layer: ignored by this pass
        assert_eq!(set.metrics().len(), END_TO_END.len());
        assert_eq!(set.metrics()[0], Metric { name: "setup_s", unit: "s", value: 1.5 });
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_names_are_a_bug() {
        MetricSet::for_pass(true).set("no.such.metric", 1.0);
    }
}
