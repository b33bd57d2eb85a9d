//! Property tests for the forest decomposition: boxes partition the
//! particle set exactly (no duplicated or lost ids, for every tree
//! type), ghost copies always identify owned originals and never enter
//! ownership, and the whole pipeline is deterministic.

use std::collections::{HashMap, HashSet};

use paratreet_core::{
    decompose_forest, exchange_ghosts, Configuration, DecompType, DomainSpec, Forest,
};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use paratreet_telemetry::Telemetry;
use paratreet_tree::{CountData, TreeType};
use proptest::prelude::*;

fn arb_particles(extent: f64) -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec((0.0..extent, 0.0..extent, 0.0..extent), 1..300).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y, z))| Particle::point_mass(i as u64, 1.0, Vec3::new(x, y, z)))
            .collect()
    })
}

fn owned_ids(f: &Forest) -> Vec<u64> {
    let mut ids: Vec<u64> = f
        .decomps
        .iter()
        .flat_map(|d| d.subtrees.iter().flat_map(|s| s.particles.iter().map(|p| p.id)))
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forest_partitions_particles_exactly(
        ps in arb_particles(2.0),
        tree_idx in 0usize..4,
        decomp_idx in 0usize..4,
        tiles_x in 1usize..4,
        tiles_y in 1usize..3,
        periodic in any::<bool>(),
    ) {
        let config = Configuration {
            tree_type: [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct][tree_idx],
            decomp_type: [DecompType::Sfc, DecompType::Oct, DecompType::Kd, DecompType::LongestDim][decomp_idx],
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        };
        let n = ps.len();
        // Tile size chosen so the 2.0-extent sample spans several tiles.
        let spec = DomainSpec::tiled([tiles_x, tiles_y, 1], 2.0 / tiles_x as f64, periodic);
        let f = decompose_forest(ps, &config, &spec);
        prop_assert_eq!(f.boxes.len(), tiles_x * tiles_y);
        prop_assert_eq!(f.n_owned.iter().sum::<usize>(), n, "ownership conserves particles");
        // No duplicate, no lost ids across boxes.
        let ids = owned_ids(&f);
        prop_assert_eq!(ids.len(), n);
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(id, i as u64, "every id owned exactly once");
        }
        // Ownership respects the assignment rule: each box's particles
        // assign back to that box.
        for (bi, d) in f.decomps.iter().enumerate() {
            for s in &d.subtrees {
                for p in &s.particles {
                    prop_assert_eq!(f.spec.assign(p.pos), bi);
                }
            }
        }
    }

    #[test]
    fn ghosts_identify_owned_originals_and_stay_out_of_ownership(
        ps in arb_particles(2.0),
        periodic in any::<bool>(),
        radius in 0.01f64..0.4,
    ) {
        let config = Configuration {
            tree_type: TreeType::Octree,
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        };
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, periodic);
        let f = decompose_forest(ps, &config, &spec);
        let trees = f.build_trees::<CountData>(&config, false);
        let owned: HashSet<u64> = owned_ids(&f).into_iter().collect();
        let owner: HashMap<u64, usize> = f
            .decomps
            .iter()
            .enumerate()
            .flat_map(|(bi, d)| {
                d.subtrees
                    .iter()
                    .flat_map(move |s| s.particles.iter().map(move |p| (p.id, bi)))
            })
            .collect();
        let layer = exchange_ghosts(&f, &trees, radius, &Telemetry::disabled());
        let r2 = radius * radius;
        let mut n_ghosts = 0u64;
        for z in &layer.zones {
            // Where the destination's particles are: its box, grown over
            // any out-of-grid stragglers an open grid clamped into it
            // (periodic domains wrap everything inside the box).
            let mut reach = f.boxes[z.dst];
            for p in f.decomps[z.dst].subtrees.iter().flat_map(|s| &s.particles) {
                reach.grow(p.pos);
            }
            for g in &z.particles {
                n_ghosts += 1;
                // A ghost is a flagged copy: its id identifies an owned
                // original in the zone's source box — it never becomes
                // a new owned particle.
                prop_assert!(owned.contains(&g.id), "ghost id {} must be owned", g.id);
                prop_assert_eq!(owner[&g.id], z.src, "ghosts come from their owner box");
                // And it lives within the ghost radius of its target.
                prop_assert!(
                    reach.dist_sq_to(g.pos) <= r2 + 1e-12,
                    "ghost outside the radius of its destination box"
                );
            }
        }
        prop_assert_eq!(n_ghosts, layer.stats.particles);
        // The exchange does not touch ownership.
        prop_assert_eq!(owned_ids(&f).len(), owned.len());
    }

    #[test]
    fn forest_decomposition_is_deterministic(
        ps in arb_particles(2.0),
        tree_idx in 0usize..4,
        periodic in any::<bool>(),
    ) {
        let config = Configuration {
            tree_type: [TreeType::Octree, TreeType::KdTree, TreeType::LongestDim, TreeType::BinaryOct][tree_idx],
            bucket_size: 8,
            n_subtrees: 8,
            n_partitions: 8,
            ..Default::default()
        };
        let spec = DomainSpec::tiled([2, 2, 1], 1.0, periodic);
        let a = decompose_forest(ps.clone(), &config, &spec);
        let b = decompose_forest(ps, &config, &spec);
        prop_assert_eq!(a.n_owned.clone(), b.n_owned.clone());
        prop_assert_eq!(a.routes.len(), b.routes.len());
        for (da, db) in a.decomps.iter().zip(&b.decomps) {
            prop_assert_eq!(da.subtrees.len(), db.subtrees.len());
            for (sa, sb) in da.subtrees.iter().zip(&db.subtrees) {
                prop_assert_eq!(sa.key, sb.key);
                let ida: Vec<u64> = sa.particles.iter().map(|p| p.id).collect();
                let idb: Vec<u64> = sb.particles.iter().map(|p| p.id).collect();
                prop_assert_eq!(ida, idb);
            }
        }
    }
}
