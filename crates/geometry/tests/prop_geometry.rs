//! Property-based invariants for the geometry primitives.

use paratreet_geometry::{morton, BoundingBox, NodeKey, Sphere, Vec3, ROOT_KEY};
use proptest::prelude::*;

fn vec3() -> impl Strategy<Value = Vec3> {
    (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn unit_vec3() -> impl Strategy<Value = Vec3> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn box_around_contains_all_points(pts in prop::collection::vec(vec3(), 1..64)) {
        let b = BoundingBox::around(pts.iter().copied());
        for p in &pts {
            prop_assert!(b.contains(*p));
        }
    }

    #[test]
    fn union_contains_both(a in vec3(), b in vec3(), c in vec3(), d in vec3()) {
        let b1 = BoundingBox::new(a, b);
        let b2 = BoundingBox::new(c, d);
        let u = b1.union(&b2);
        prop_assert!(u.contains_box(&b1));
        prop_assert!(u.contains_box(&b2));
    }

    #[test]
    fn octants_tile_without_overlap_interior(p in unit_vec3()) {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        // Each point maps to exactly one octant, which contains it.
        let i = b.octant_of(p);
        prop_assert!(b.octant(i).contains(p));
    }

    #[test]
    fn dist_sq_lower_bounds_point_distances(p in vec3(), a in vec3(), b in vec3()) {
        let bx = BoundingBox::new(a, b);
        let d = bx.dist_sq_to(p);
        // distance to any corner is at least the box distance
        prop_assert!(p.dist_sq(bx.lo) + 1e-9 >= d);
        prop_assert!(p.dist_sq(bx.hi) + 1e-9 >= d);
        prop_assert!(bx.max_dist_sq_to(p) + 1e-9 >= d);
    }

    #[test]
    fn sphere_box_agrees_with_point_sampling(p in unit_vec3(), r in 0.01f64..2.0) {
        let b = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let s = Sphere::new(p * 3.0, r);
        if b.intersects_sphere(&s) {
            prop_assert!(b.dist_sq_to(s.center) <= s.radius_sq() + 1e-9);
        } else {
            prop_assert!(b.dist_sq_to(s.center) > s.radius_sq());
        }
    }

    #[test]
    fn morton_roundtrip(x in 0u64..(1<<21), y in 0u64..(1<<21), z in 0u64..(1<<21)) {
        let k = morton::interleave(x, y, z);
        prop_assert_eq!(morton::deinterleave(k), (x, y, z));
    }

    #[test]
    fn morton_key_is_monotone_under_octant_refinement(p in unit_vec3()) {
        // The first octree digit of the particle key matches the octant
        // that the universe box assigns the point to.
        let u = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let k = morton::morton_key(p, &u);
        prop_assert_eq!(morton::octree_digit(k, 0), u.octant_of(p));
    }

    #[test]
    fn node_key_child_parent(path in prop::collection::vec(0usize..8, 0..20)) {
        let mut k = ROOT_KEY;
        for &d in &path {
            let c = k.child(d, 3);
            prop_assert_eq!(c.parent(3), k);
            prop_assert_eq!(c.child_index(3), d);
            k = c;
        }
        prop_assert_eq!(k.level(3), path.len() as u32);
        if !path.is_empty() {
            prop_assert!(ROOT_KEY.is_ancestor_of(k, 3));
        }
    }

    #[test]
    fn node_morton_range_nests(path in prop::collection::vec(0usize..8, 1..21)) {
        let mut k = ROOT_KEY;
        let mut prev = k.morton_range(21);
        for &d in &path {
            k = k.child(d, 3);
            let (lo, hi) = k.morton_range(21);
            prop_assert!(lo >= prev.0 && hi <= prev.1, "child range must nest");
            prev = (lo, hi);
        }
    }

    #[test]
    fn morton_preserves_octree_locality(a in unit_vec3(), b in unit_vec3()) {
        // If two points share the same first octree digit, their keys lie
        // in the same eighth of the key space.
        let u = BoundingBox::new(Vec3::ZERO, Vec3::splat(1.0));
        let ka = morton::morton_key(a, &u);
        let kb = morton::morton_key(b, &u);
        if u.octant_of(a) == u.octant_of(b) {
            prop_assert_eq!(ka >> 60, kb >> 60);
        }
    }

    #[test]
    fn node_key_total_order_matches_dfs(d1 in 0usize..8, d2 in 0usize..8) {
        // Among siblings, key order is child-index order.
        let a = ROOT_KEY.child(d1, 3);
        let b = ROOT_KEY.child(d2, 3);
        prop_assert_eq!(a.cmp(&b), d1.cmp(&d2));
        let _ = NodeKey::root();
    }
}

// The branchy predicates the branch-free ones replaced, verbatim but for
// `self` → `bx`. They are the reference the replacements must match bit
// for bit: every Barnes-Hut `open` and every kNN / ball descent reads
// them, so a single differing bit would move a physics output.

fn dist_sq_to_branchy(bx: &BoundingBox, p: Vec3) -> f64 {
    let mut d = 0.0;
    for i in 0..3 {
        let v = p.component(i);
        let lo = bx.lo.component(i);
        let hi = bx.hi.component(i);
        if v < lo {
            d += (lo - v) * (lo - v);
        } else if v > hi {
            d += (v - hi) * (v - hi);
        }
    }
    d
}

fn intersects_branchy(bx: &BoundingBox, o: &BoundingBox) -> bool {
    !bx.is_empty()
        && !o.is_empty()
        && bx.lo.x <= o.hi.x
        && o.lo.x <= bx.hi.x
        && bx.lo.y <= o.hi.y
        && o.lo.y <= bx.hi.y
        && bx.lo.z <= o.hi.z
        && o.lo.z <= bx.hi.z
}

fn intersects_sphere_branchy(bx: &BoundingBox, s: &Sphere) -> bool {
    !bx.is_empty() && dist_sq_to_branchy(bx, s.center) <= s.radius_sq()
}

/// Shape `shape` of the box spanned by `a` and `b`: 0 the box around
/// them, 1..=7 that box collapsed to zero width on the axes the bits of
/// `shape` name, 8 the empty box, 9 a box from `-0.0` to `+0.0` on the
/// first axis (and `a`..`b` on the others).
fn shaped_box(a: Vec3, b: Vec3, shape: usize) -> BoundingBox {
    match shape {
        0 => BoundingBox::new(a, b),
        1..=7 => {
            let mut flat = b;
            for i in (0..3).filter(|i| shape >> i & 1 == 1) {
                flat.set_component(i, a.component(i));
            }
            BoundingBox::new(a, flat)
        }
        8 => BoundingBox::empty(),
        _ => {
            let bx = BoundingBox::new(a, b);
            BoundingBox { lo: Vec3 { x: -0.0, ..bx.lo }, hi: Vec3 { x: 0.0, ..bx.hi } }
        }
    }
}

/// Points to hold `bx`'s predicates at: inside (`t` ∈ [0, 1)³ of the
/// way across), `far` as drawn, strictly below and above, on every face
/// and every corner (coordinates copied from `lo` / `hi`), with a `±0.0`
/// coordinate, all `±0.0`, and with one NaN coordinate.
fn probes(bx: &BoundingBox, t: Vec3, far: Vec3) -> Vec<Vec3> {
    let inside = Vec3 {
        x: bx.lo.x + (bx.hi.x - bx.lo.x) * t.x,
        y: bx.lo.y + (bx.hi.y - bx.lo.y) * t.y,
        z: bx.lo.z + (bx.hi.z - bx.lo.z) * t.z,
    };
    let step = Vec3 { x: far.x.abs() + 1.0, y: far.y.abs() + 1.0, z: far.z.abs() + 1.0 };
    let mut out =
        vec![inside, far, bx.lo - step, bx.hi + step, Vec3::splat(0.0), Vec3::splat(-0.0)];
    for corner in 0..8 {
        let pick = |i: usize| (if corner >> i & 1 == 1 { bx.hi } else { bx.lo }).component(i);
        out.push(Vec3 { x: pick(0), y: pick(1), z: pick(2) });
    }
    for i in 0..3 {
        for base in [inside, far] {
            for v in [bx.lo.component(i), bx.hi.component(i), 0.0, -0.0, f64::NAN] {
                let mut p = base;
                p.set_component(i, v);
                out.push(p);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn branch_free_predicates_keep_every_bit(
        (a, b, c, d) in (vec3(), vec3(), vec3(), vec3()),
        (t, far) in (unit_vec3(), vec3()),
        (shape, other_shape) in (0usize..10, 0usize..10),
        r in 0.0f64..2e6,
    ) {
        let bx = shaped_box(a, b, shape);
        let points = probes(&bx, t, far);
        let mut others = vec![shaped_box(c, d, other_shape), bx];
        for w in points.windows(2) {
            others.push(BoundingBox { lo: w[0], hi: w[0] });
            others.push(BoundingBox { lo: w[0], hi: w[1] });
            others.push(BoundingBox::new(w[0], w[1]));
        }
        for &p in &points {
            let want = dist_sq_to_branchy(&bx, p);
            let have = bx.dist_sq_to(p);
            prop_assert_eq!(have.to_bits(), want.to_bits(), "{:?} to {:?}: {} vs {}", bx, p, have, want);
            for radius in [0.0, r, want.sqrt(), f64::INFINITY] {
                let s = Sphere { center: p, radius };
                prop_assert_eq!(bx.intersects_sphere(&s), intersects_sphere_branchy(&bx, &s), "{:?} {:?}", bx, s);
            }
        }
        for o in &others {
            prop_assert_eq!(bx.intersects(o), intersects_branchy(&bx, o), "{:?} {:?}", bx, o);
            prop_assert_eq!(o.intersects(&bx), intersects_branchy(o, &bx), "{:?} {:?}", o, bx);
        }
    }
}
