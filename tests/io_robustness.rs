//! Snapshot-format robustness: arbitrary bytes never panic the parser,
//! and round-trips are exact for any particle contents.

use paratreet_geometry::Vec3;
use paratreet_particles::io;
use paratreet_particles::Particle;
use proptest::prelude::*;

fn arb_particle() -> impl Strategy<Value = Particle> {
    (
        any::<u64>(),
        -1e12f64..1e12,
        prop::array::uniform3(-1e9f64..1e9),
        prop::array::uniform3(-1e6f64..1e6),
        0.0f64..1e3,
    )
        .prop_map(|(id, mass, pos, vel, smoothing)| Particle {
            id,
            mass,
            pos: Vec3::from(pos),
            vel: Vec3::from(vel),
            smoothing,
            density: mass.abs() * 0.5,
            pressure: smoothing * 2.0,
            internal_energy: 1.5,
            radius: smoothing * 0.1,
            softening: 1e-3,
            potential: -mass,
            acc: Vec3::splat(0.25),
            key: id.rotate_left(7),
        })
}

proptest! {
    #[test]
    fn snapshot_roundtrip_is_exact(ps in prop::collection::vec(arb_particle(), 0..64)) {
        let bytes = io::to_bytes(&ps);
        let back = io::from_bytes(&bytes).unwrap();
        prop_assert_eq!(ps, back);
    }

    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = io::from_bytes(&data); // Err or Ok, never panic
    }

    #[test]
    fn particle_wire_roundtrip(p in arb_particle(), prefix in 0usize..16) {
        let mut buf = vec![0u8; prefix];
        io::put_particle(&mut buf, &p);
        let mut off = prefix;
        prop_assert_eq!(io::get_particle(&buf, &mut off), Some(p));
        prop_assert_eq!(off, buf.len());
    }

    #[test]
    fn csv_row_count_matches(ps in prop::collection::vec(arb_particle(), 0..32)) {
        let mut out = Vec::new();
        io::write_csv(&mut out, &ps).unwrap();
        let text = String::from_utf8(out).unwrap();
        prop_assert_eq!(text.lines().count(), ps.len() + 1);
    }
}
