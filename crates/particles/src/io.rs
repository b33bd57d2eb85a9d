//! Snapshot IO: a compact little-endian binary format plus CSV export.
//!
//! The reference ParaTreeT reads Tipsy/NChilada snapshots; those formats
//! carry cosmology metadata we do not need, so this crate defines a
//! minimal self-describing binary container (magic, version, count, then
//! fixed-width records) that round-trips every [`Particle`] field exactly.

use crate::Particle;
use paratreet_geometry::Vec3;
use std::io::{self, Read, Write};
use std::path::Path;

/// File magic: "PTRT".
const MAGIC: u32 = 0x5054_5254;
/// Current format version.
const VERSION: u32 = 1;
/// Bytes of the snapshot header (magic + version + particle count).
const HEADER_BYTES: usize = 4 + 4 + 8;
/// Bytes per particle record, in a snapshot and on the wire (u64 id +
/// 17 f64 fields + u64 key).
pub const PARTICLE_WIRE_BYTES: usize = 8 + 17 * 8 + 8;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f64(out, v.x);
    put_f64(out, v.y);
    put_f64(out, v.z);
}

/// Takes the `N` bytes at `*off`, advancing the offset. The caller has
/// checked that `N` bytes remain.
fn take<const N: usize>(input: &[u8], off: &mut usize) -> [u8; N] {
    let mut word = [0u8; N];
    word.copy_from_slice(&input[*off..*off + N]);
    *off += N;
    word
}

fn get_u64(input: &[u8], off: &mut usize) -> u64 {
    u64::from_le_bytes(take(input, off))
}

fn get_f64(input: &[u8], off: &mut usize) -> f64 {
    f64::from_bits(get_u64(input, off))
}

fn get_vec3(input: &[u8], off: &mut usize) -> Vec3 {
    Vec3::new(get_f64(input, off), get_f64(input, off), get_f64(input, off))
}

/// Serialises a particle slice to the binary snapshot format.
pub fn to_bytes(particles: &[Particle]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + particles.len() * PARTICLE_WIRE_BYTES);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    put_u64(&mut out, particles.len() as u64);
    for p in particles {
        put_particle(&mut out, p);
    }
    out
}

/// Parses a binary snapshot produced by [`to_bytes`]. A snapshot is
/// outside input: beyond the framing checks, a record whose position,
/// velocity or mass is NaN or infinite is rejected here, by index —
/// decomposition downstream has no answer for it.
pub fn from_bytes(data: &[u8]) -> io::Result<Vec<Particle>> {
    let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if data.len() < HEADER_BYTES {
        return Err(err("snapshot truncated before header"));
    }
    let mut off = 0;
    if u32::from_le_bytes(take(data, &mut off)) != MAGIC {
        return Err(err("bad snapshot magic"));
    }
    let version = u32::from_le_bytes(take(data, &mut off));
    if version != VERSION {
        return Err(err(&format!("unsupported snapshot version {version}")));
    }
    let n = get_u64(data, &mut off);
    // Checked before anything is allocated for `n` records.
    let body = usize::try_from(n).ok().and_then(|n| n.checked_mul(PARTICLE_WIRE_BYTES));
    if body != Some(data.len() - off) {
        return Err(err("snapshot length does not match particle count"));
    }
    let mut out = Vec::with_capacity(n as usize);
    while let Some(p) = get_particle(data, &mut off) {
        if !(p.pos.is_finite() && p.vel.is_finite() && p.mass.is_finite()) {
            let i = out.len();
            return Err(err(&format!(
                "snapshot record {i} has a non-finite position, velocity or mass"
            )));
        }
        out.push(p);
    }
    Ok(out)
}

/// Writes a binary snapshot to `path`.
pub fn write_snapshot(path: impl AsRef<Path>, particles: &[Particle]) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&to_bytes(particles))
}

/// Reads a binary snapshot from `path`.
pub fn read_snapshot(path: impl AsRef<Path>) -> io::Result<Vec<Particle>> {
    let mut f = std::fs::File::open(path)?;
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    from_bytes(&data)
}

/// Appends the fixed-width encoding of one particle to `out`: a snapshot
/// record, and what the software cache ships leaf buckets between ranks
/// as.
pub fn put_particle(out: &mut Vec<u8>, p: &Particle) {
    put_u64(out, p.id);
    put_f64(out, p.mass);
    put_vec3(out, p.pos);
    put_vec3(out, p.vel);
    put_vec3(out, p.acc);
    put_f64(out, p.potential);
    put_f64(out, p.softening);
    put_f64(out, p.radius);
    put_f64(out, p.smoothing);
    put_f64(out, p.density);
    put_f64(out, p.pressure);
    put_f64(out, p.internal_energy);
    put_u64(out, p.key);
}

/// Reads one particle from `input` at `*off`, advancing the offset.
/// Returns `None` if fewer than a full record remains.
pub fn get_particle(input: &[u8], off: &mut usize) -> Option<Particle> {
    if input.len() < *off + PARTICLE_WIRE_BYTES {
        return None;
    }
    Some(Particle {
        id: get_u64(input, off),
        mass: get_f64(input, off),
        pos: get_vec3(input, off),
        vel: get_vec3(input, off),
        acc: get_vec3(input, off),
        potential: get_f64(input, off),
        softening: get_f64(input, off),
        radius: get_f64(input, off),
        smoothing: get_f64(input, off),
        density: get_f64(input, off),
        pressure: get_f64(input, off),
        internal_energy: get_f64(input, off),
        key: get_u64(input, off),
    })
}

/// Writes positions, velocities, and accelerations as CSV, for plotting.
pub fn write_csv(w: &mut impl Write, particles: &[Particle]) -> io::Result<()> {
    writeln!(w, "id,mass,x,y,z,vx,vy,vz,ax,ay,az,density")?;
    for p in particles {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            p.id,
            p.mass,
            p.pos.x,
            p.pos.y,
            p.pos.z,
            p.vel.x,
            p.vel.y,
            p.vel.z,
            p.acc.x,
            p.acc.y,
            p.acc.z,
            p.density
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut ps = gen::plummer(64, 5, 1.0, 2.0);
        ps[3].acc = Vec3::splat(1.5);
        ps[3].potential = -0.25;
        ps[3].radius = 0.01;
        ps[3].density = 9.0;
        ps[3].key = 42;
        let back = from_bytes(&to_bytes(&ps)).unwrap();
        assert_eq!(ps, back);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let back = from_bytes(&to_bytes(&[])).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut data = to_bytes(&gen::uniform_cube(4, 1, 1.0, 1.0));
        data[0] ^= 0xff;
        assert!(from_bytes(&data).is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let data = to_bytes(&gen::uniform_cube(4, 1, 1.0, 1.0));
        let cut = &data[0..data.len() - 8];
        assert!(from_bytes(cut).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(from_bytes(&[1, 2, 3]).is_err());
    }

    /// The `.ptrt` format is outside input: snapshots already on disk
    /// hold these bytes for this particle (16-byte header, one 152-byte
    /// record; recorded from the encoder as of PR 17).
    #[test]
    fn snapshot_bytes_match_the_recorded_format() {
        let p = Particle {
            id: 0x0102_0304_0506_0708,
            mass: 1.5,
            pos: Vec3::new(-2.0, 0.25, 3.0),
            vel: Vec3::new(0.5, -0.125, 8.0),
            acc: Vec3::new(1e-3, -1e300, 0.1),
            potential: -0.75,
            softening: 0.01,
            radius: 1e-5,
            smoothing: 0.2,
            density: 9.0,
            pressure: f64::MIN_POSITIVE,
            internal_energy: 4.5,
            key: 0xFEDC_BA98_7654_3210,
        };
        #[rustfmt::skip]
        const RECORDED: [u8; 168] = [
            0x54, 0x52, 0x54, 0x50, 0x01, 0x00, 0x00, 0x00,
            0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0xbf,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40,
            0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62, 0x50, 0x3f,
            0x9c, 0x75, 0x00, 0x88, 0x3c, 0xe4, 0x37, 0xfe,
            0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0xbf,
            0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f,
            0xf1, 0x68, 0xe3, 0x88, 0xb5, 0xf8, 0xe4, 0x3e,
            0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x22, 0x40,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x40,
            0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
        ];
        assert_eq!(to_bytes(&[p]), RECORDED);
        assert_eq!(from_bytes(&RECORDED).unwrap(), vec![p]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("paratreet_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ptrt");
        let ps = gen::uniform_cube(32, 9, 1.0, 1.0);
        write_snapshot(&path, &ps).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), ps);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_particle_wire_roundtrip() {
        let mut p = gen::plummer(1, 3, 1.0, 1.0)[0];
        p.density = 4.5;
        p.key = 77;
        let mut buf = vec![0xAA]; // leading garbage the offset skips
        let mut off = 1;
        put_particle(&mut buf, &p);
        assert_eq!(buf.len(), 1 + PARTICLE_WIRE_BYTES);
        assert_eq!(get_particle(&buf, &mut off), Some(p));
        assert_eq!(off, buf.len());
        assert_eq!(get_particle(&buf, &mut off), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let ps = gen::uniform_cube(3, 1, 1.0, 1.0);
        let mut out = Vec::new();
        write_csv(&mut out, &ps).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("id,mass,"));
    }
}
