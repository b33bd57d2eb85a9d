//! Property tests for the friends-of-friends finder: the full forest
//! pipeline (decompose → seam balance → ghost exchange → dual-tree
//! linking → cross-box union-find) must agree with the brute-force
//! O(n²) minimum-image reference on every small workload — including
//! halos that straddle box seams and wrap through periodic faces.

use paratreet_apps::fof::{brute_force_fof, link_forest, FofParams};
use paratreet_core::{
    decompose_forest, enforce_seam_balance, exchange_ghosts, Configuration, DomainSpec,
};
use paratreet_geometry::Vec3;
use paratreet_particles::Particle;
use paratreet_telemetry::Telemetry;
use paratreet_tree::{CountData, TreeType};
use proptest::prelude::*;

fn particles_in(extent: f64, max_n: usize) -> impl Strategy<Value = Vec<Particle>> {
    prop::collection::vec((0.0..extent, 0.0..extent, 0.0..extent), 2..max_n).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y, z))| Particle::point_mass(i as u64, 1.0, Vec3::new(x, y, z)))
            .collect()
    })
}

/// Runs the full forest FoF pipeline.
fn forest_fof(
    ps: Vec<Particle>,
    spec: &DomainSpec,
    params: &FofParams,
) -> paratreet_apps::fof::FofCatalog {
    let config = Configuration {
        tree_type: TreeType::Octree,
        bucket_size: 8,
        n_subtrees: 8,
        n_partitions: 8,
        ..Default::default()
    };
    let forest = decompose_forest(ps, &config, spec);
    let mut trees = forest.build_trees::<CountData>(&config, false);
    enforce_seam_balance(
        &mut trees,
        &forest.boxes,
        &forest.routes,
        config.tree_type,
        config.bucket_size,
    );
    let layer = exchange_ghosts(&forest, &trees, params.link, &Telemetry::disabled());
    link_forest(&forest, &trees, &layer, params, config.tree_type, config.bucket_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn forest_fof_matches_brute_force(
        ps in particles_in(2.0, 120),
        link in 0.02f64..0.3,
        periodic in any::<bool>(),
        min_members in 2usize..6,
    ) {
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, periodic);
        let params = FofParams { link, min_members };
        let period = spec.period();
        let wrapped: Vec<Particle> = ps
            .iter()
            .map(|p| Particle { pos: period.wrap(p.pos, Vec3::ZERO), ..*p })
            .collect();
        let cat = forest_fof(ps, &spec, &params);
        let truth = brute_force_fof(&wrapped, &period, &params);
        prop_assert_eq!(cat.n_links, truth.n_links, "spanning-link counts differ");
        prop_assert_eq!(cat.halos.len(), truth.halos.len(), "halo counts differ");
        for (a, b) in cat.halos.iter().zip(&truth.halos) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.members, &b.members, "membership differs for halo {}", a.id);
        }
    }

    #[test]
    fn periodic_seam_halos_match_brute_force(
        y in 0.1f64..0.9,
        z in 0.1f64..0.9,
        gap in 0.005f64..0.02,
        extra in particles_in(2.0, 40),
    ) {
        // A halo purpose-built to straddle the periodic x seam: chains of
        // particles hugging x = 0 and x = 2 that only connect through the
        // wrap-around image, plus random background.
        let mut ps: Vec<Particle> = Vec::new();
        for i in 0..6u64 {
            ps.push(Particle::point_mass(
                i,
                1.0,
                Vec3::new(0.001 + gap * i as f64, y, z),
            ));
            ps.push(Particle::point_mass(
                6 + i,
                1.0,
                Vec3::new(1.999 - gap * i as f64, y, z),
            ));
        }
        let base = ps.len() as u64;
        for (i, p) in extra.iter().enumerate() {
            ps.push(Particle { id: base + i as u64, ..*p });
        }
        let spec = DomainSpec::tiled([2, 1, 1], 1.0, true);
        let params = FofParams { link: 2.5 * gap, min_members: 4 };
        let period = spec.period();
        let wrapped: Vec<Particle> = ps
            .iter()
            .map(|p| Particle { pos: period.wrap(p.pos, Vec3::ZERO), ..*p })
            .collect();
        let cat = forest_fof(ps, &spec, &params);
        let truth = brute_force_fof(&wrapped, &period, &params);
        prop_assert_eq!(cat.halos.len(), truth.halos.len());
        for (a, b) in cat.halos.iter().zip(&truth.halos) {
            prop_assert_eq!(&a.members, &b.members);
        }
        // The seeded chain really is one halo through the seam.
        let seam = cat.halos.iter().find(|h| h.members.contains(&0));
        prop_assert!(seam.is_some(), "seam chain must survive the min-members cut");
        let seam = seam.unwrap();
        for i in 0..12u64 {
            prop_assert!(seam.members.contains(&i), "chain member {i} missing from seam halo");
        }
    }
}

/// Out-of-grid stragglers: an open grid clamps particles outside it into
/// the nearest box, so two neighbours far outside can land in different
/// boxes. Ghost routing must follow where the particles are, not the
/// boxes' nominal bounds — each case is `(grid, the pair)`, with one
/// in-grid bystander.
#[test]
fn straggler_pairs_across_seams_match_brute_force() {
    let cases = [
        // Straddling x = 1 at y = 1.8: clamped into boxes 0 and 1.
        ([2, 1, 1], Vec3::new(0.98, 1.8, 0.5), Vec3::new(1.02, 1.8, 0.5)),
        // Straddling the (1, 1) corner at z = -0.7: clamped into the two
        // diagonal boxes of the 2×2 layer.
        ([2, 2, 1], Vec3::new(0.98, 0.98, -0.7), Vec3::new(1.02, 1.02, -0.7)),
    ];
    for (dims, a, b) in cases {
        let ps = vec![
            Particle::point_mass(0, 1.0, a),
            Particle::point_mass(1, 1.0, b),
            Particle::point_mass(2, 1.0, Vec3::new(0.5, 0.5, 0.5)),
        ];
        let spec = DomainSpec::tiled(dims, 1.0, false);
        let params = FofParams { link: 0.1, min_members: 2 };
        let cat = forest_fof(ps.clone(), &spec, &params);
        let truth = brute_force_fof(&ps, &spec.period(), &params);
        assert_eq!(truth.n_links, 1, "the pair is within the linking length");
        assert_eq!(cat.n_links, truth.n_links, "{dims:?}: forest missed the straggler link");
        assert_eq!(cat.halos.len(), truth.halos.len(), "{dims:?}");
        for (h, t) in cat.halos.iter().zip(&truth.halos) {
            assert_eq!(h.members, t.members, "{dims:?}");
        }
    }
}
