//! Cross-engine property: for any workload, rank count, and cache
//! model, the distributed machine-model engine computes the same
//! physics (particle forces, bit for bit) as the shared-memory engine,
//! and its simulation is deterministic.

use paratreet_apps::gravity::{CentroidData, GravityVisitor};
use paratreet_core::{CacheModel, Configuration, DistributedEngine, Framework, TraversalKind};
use paratreet_particles::{gen, Particle};
use paratreet_runtime::MachineSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engines_agree_for_any_configuration(
        n in 50usize..400,
        seed in 0u64..100,
        ranks in 1usize..4,
        workers in 1usize..4,
        model_idx in 0usize..3,
        clustered in any::<bool>(),
    ) {
        let model = [CacheModel::WaitFree, CacheModel::XWrite, CacheModel::PerThread][model_idx];
        let particles = if clustered {
            gen::clustered(n, 3, seed, 1.0, 1.0)
        } else {
            gen::uniform_cube(n, seed, 1.0, 1.0)
        };
        // Pin counts so the engines share the exact decomposition.
        let config = Configuration {
            bucket_size: 8,
            n_subtrees: 16,
            n_partitions: 32,
            ..Default::default()
        };
        let visitor = GravityVisitor::default();

        let mut fw: Framework<CentroidData> = Framework::new(config.clone(), particles.clone());
        let (_, report) = fw.step(|s| {
            s.traverse(&visitor, TraversalKind::TopDown);
        });
        let mut reference: Vec<_> = fw.particles().to_vec();
        reference.sort_by_key(|p| p.id);

        let engine = DistributedEngine::new(
            MachineSpec::test(ranks, workers),
            config,
            model,
            TraversalKind::TopDown,
            &visitor,
        );
        let rep = engine.run_iteration(particles);
        let mut got = rep.particles.clone();
        got.sort_by_key(|p| p.id);

        prop_assert_eq!(rep.counts.leaf_interactions, report.counts.leaf_interactions);
        prop_assert_eq!(rep.counts.node_interactions, report.counts.node_interactions);
        // Bit for bit: the DES replays `traverse_local` per Partition over
        // the filled cache, which is what the shared-memory engine runs.
        let bits = |p: &Particle| [p.acc.x, p.acc.y, p.acc.z, p.potential].map(f64::to_bits);
        for (a, b) in got.iter().zip(&reference) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(
                bits(a), bits(b),
                "particle {} force differs ({:?} ranks={} model={:?})",
                a.id, a.acc, ranks, model
            );
        }
        prop_assert!(rep.makespan > 0.0);
        prop_assert!(rep.cache.waiters_parked == rep.cache.waiters_resumed);
    }

    #[test]
    fn machine_model_is_deterministic(
        n in 50usize..300,
        seed in 0u64..100,
        ranks in 1usize..4,
    ) {
        let particles = gen::clustered(n, 2, seed, 1.0, 1.0);
        let config = Configuration { bucket_size: 8, ..Default::default() };
        let visitor = GravityVisitor::default();
        let run = || {
            DistributedEngine::new(
                MachineSpec::test(ranks, 2),
                config.clone(),
                CacheModel::WaitFree,
                TraversalKind::TopDown,
                &visitor,
            )
            .run_iteration(particles.clone())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.comm.messages, b.comm.messages);
        prop_assert_eq!(a.comm.bytes, b.comm.bytes);
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.partition_costs, b.partition_costs);
    }
}
