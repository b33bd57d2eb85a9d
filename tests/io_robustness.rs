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

/// A record whose position, velocity or mass is NaN or infinite is
/// rejected where the bytes enter, by index; fields a traversal
/// overwrites (acceleration, potential) are not the reader's business.
#[test]
fn non_finite_records_are_rejected_by_index() {
    let clean: Vec<Particle> =
        (0..5).map(|i| Particle::point_mass(i, 1.0, Vec3::new(i as f64, 0.5, -0.5))).collect();
    type Spoil = fn(&mut Particle);
    let spoilers: [(&str, Spoil); 4] = [
        ("NaN position", |p| p.pos.y = f64::NAN),
        ("infinite position", |p| p.pos.x = f64::NEG_INFINITY),
        ("infinite velocity", |p| p.vel.z = f64::INFINITY),
        ("NaN mass", |p| p.mass = f64::NAN),
    ];
    for (what, spoil) in spoilers {
        let mut ps = clean.clone();
        spoil(&mut ps[3]);
        let err = io::from_bytes(&io::to_bytes(&ps)).expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains("record 3"), "{what}: {err}");
    }
    let mut ps = clean.clone();
    ps[3].acc.x = f64::NAN;
    assert!(io::from_bytes(&io::to_bytes(&ps)).is_ok(), "acceleration is output, not input");
    assert_eq!(io::from_bytes(&io::to_bytes(&clean)).expect("finite records load"), clean);
}

/// The CLI turns that error into exit 1, naming the file and the record.
#[test]
fn cli_input_with_a_non_finite_record_exits_1() {
    let mut ps: Vec<Particle> =
        (0..4).map(|i| Particle::point_mass(i, 1.0, Vec3::splat(i as f64))).collect();
    ps[2].pos.z = f64::NAN;
    let path = std::env::temp_dir().join(format!("paratreet_nan_{}.ptrt", std::process::id()));
    std::fs::write(&path, io::to_bytes(&ps)).expect("temp file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_paratreet"))
        .args(["gravity", "--input"])
        .arg(&path)
        .output()
        .expect("the binary runs");
    std::fs::remove_file(&path).expect("temp file removed");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("record 2") && err.contains("paratreet_nan_"), "{err}");
}
