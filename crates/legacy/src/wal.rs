//! The reader of write-ahead log v1: the frame of v2 (`u32 len | u32
//! crc32 | payload` after the `"UTCQWAL\0"` header) around a payload of
//! fixed-width little-endian fields:
//!
//! ```text
//! u64 epoch | u32 name_len | name | i64 default_interval | u32 n_trajs
//! per trajectory: u64 id | u32 n_times | i64 × n_times
//!   | u32 n_instances, per instance: f64 prob | u32 path_len | u32 × path_len
//!     | u32 n_positions | per position: u32 path_idx | f64 rd
//! ```
//!
//! Torn-tail semantics are v2's: an incomplete or checksum-damaged final
//! record is dropped, the same damage followed by more bytes fails.

use utcq_core::wal::{crc32, Record, WAL_MAGIC};
use utcq_core::Error;
use utcq_network::EdgeId;
use utcq_traj::{Instance, PathPosition, UncertainTrajectory};

/// The log version this module reads.
pub const WAL_VERSION_V1: u32 = 1;

/// Bounded cursor over a file image; every read is checked so malformed
/// input surfaces as `Err`, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(Error::CorruptStore("wal payload length overflow"))?;
        let Some(s) = self.bytes.get(self.at..end) else {
            return Err(Error::CorruptStore("wal payload truncated"));
        };
        self.at = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.at)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, Error> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `Vec` capacity bound that cannot be tricked into a huge
    /// allocation by a corrupt count: each element needs at least
    /// `min_size` payload bytes, so a count beyond that is bogus.
    fn cap(&self, n: u32, min_size: usize) -> usize {
        (n as usize).min(self.remaining() / min_size.max(1) + 1)
    }
}

/// The checksummed payloads of a v1 image, in order; a torn final
/// record is left out.
fn frames(bytes: &[u8]) -> Result<Vec<&[u8]>, Error> {
    if bytes.get(..8) != Some(WAL_MAGIC.as_slice()) {
        return Err(Error::CorruptStore("wal magic mismatch"));
    }
    let mut c = Cursor { bytes, at: 8 };
    let header = |_: Error| Error::CorruptStore("wal header truncated");
    if c.u32().map_err(header)? != WAL_VERSION_V1 {
        return Err(Error::CorruptStore("not a v1 write-ahead log"));
    }
    let extra = c.u32().map_err(header)?;
    c.take(extra as usize).map_err(header)?;
    let mut payloads = Vec::new();
    while c.remaining() >= 8 {
        let (len, crc) = (c.u32()?, c.u32()?);
        if len as usize > c.remaining() {
            break; // a torn final record
        }
        let payload = c.take(len as usize)?;
        if crc32(payload) != crc {
            if c.remaining() == 0 {
                break; // damaged final record: a torn write
            }
            return Err(Error::CorruptStore("wal record checksum mismatch"));
        }
        payloads.push(payload);
    }
    Ok(payloads)
}

/// Decodes one v1 record payload.
fn decode_payload(payload: &[u8]) -> Result<Record, Error> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let epoch = c.u64()?;
    let name_len = c.u32()? as usize;
    let name = std::str::from_utf8(c.take(name_len)?)
        .map_err(|_| Error::CorruptStore("wal record name is not utf-8"))?
        .to_string();
    let default_interval = c.i64()?;
    let n_trajs = c.u32()?;
    let mut trajectories = Vec::with_capacity(c.cap(n_trajs, 20));
    for _ in 0..n_trajs {
        let id = c.u64()?;
        let n_times = c.u32()?;
        let mut times = Vec::with_capacity(c.cap(n_times, 8));
        for _ in 0..n_times {
            times.push(c.i64()?);
        }
        let n_instances = c.u32()?;
        let mut instances = Vec::with_capacity(c.cap(n_instances, 16));
        for _ in 0..n_instances {
            let prob = c.f64()?;
            let path_len = c.u32()?;
            let mut path = Vec::with_capacity(c.cap(path_len, 4));
            for _ in 0..path_len {
                path.push(EdgeId(c.u32()?));
            }
            let n_positions = c.u32()?;
            let mut positions = Vec::with_capacity(c.cap(n_positions, 12));
            for _ in 0..n_positions {
                let path_idx = c.u32()?;
                let rd = c.f64()?;
                positions.push(PathPosition { path_idx, rd });
            }
            instances.push(Instance {
                path,
                positions,
                prob,
            });
        }
        trajectories.push(UncertainTrajectory {
            id,
            times,
            instances,
        });
    }
    if c.remaining() != 0 {
        return Err(Error::CorruptStore("wal record has trailing bytes"));
    }
    Ok(Record {
        epoch,
        name,
        default_interval,
        trajectories,
    })
}

/// The records of a v1 log image, in append order, each bit for bit as
/// it was logged; a torn final record is dropped.
pub fn read_v1(bytes: &[u8]) -> Result<Vec<Record>, Error> {
    frames(bytes)?.into_iter().map(decode_payload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcq_core::wal::{Wal, WalConfig, WAL_VERSION};

    /// A record with every float as its bits, so `==` means bit-exact
    /// (NaN payloads and the sign of zero included).
    type Bits = (u64, String, i64, Vec<(u64, Vec<i64>, Vec<InstanceBits>)>);
    type InstanceBits = (u64, Vec<u32>, Vec<(u32, u64)>);

    fn bits(rec: &Record) -> Bits {
        let inst = |i: &Instance| {
            let path = i.path.iter().map(|e| e.0).collect();
            let positions = i.positions.iter().map(|p| (p.path_idx, p.rd.to_bits()));
            (i.prob.to_bits(), path, positions.collect())
        };
        let tus = rec.trajectories.iter();
        let tus = tus.map(|tu| {
            (
                tu.id,
                tu.times.clone(),
                tu.instances.iter().map(inst).collect(),
            )
        });
        (
            rec.epoch,
            rec.name.clone(),
            rec.default_interval,
            tus.collect(),
        )
    }

    /// The v1 payload writer, for building v1 images: fixed-width
    /// little-endian fields.
    fn encode_payload_v1(rec: &Record) -> Vec<u8> {
        let mut out = Vec::new();
        let u32s = |out: &mut Vec<u8>, v: usize| out.extend_from_slice(&(v as u32).to_le_bytes());
        out.extend_from_slice(&rec.epoch.to_le_bytes());
        u32s(&mut out, rec.name.len());
        out.extend_from_slice(rec.name.as_bytes());
        out.extend_from_slice(&rec.default_interval.to_le_bytes());
        u32s(&mut out, rec.trajectories.len());
        for tu in &rec.trajectories {
            out.extend_from_slice(&tu.id.to_le_bytes());
            u32s(&mut out, tu.times.len());
            tu.times
                .iter()
                .for_each(|t| out.extend_from_slice(&t.to_le_bytes()));
            u32s(&mut out, tu.instances.len());
            for inst in &tu.instances {
                out.extend_from_slice(&inst.prob.to_le_bytes());
                u32s(&mut out, inst.path.len());
                inst.path
                    .iter()
                    .for_each(|e| out.extend_from_slice(&e.0.to_le_bytes()));
                u32s(&mut out, inst.positions.len());
                for p in &inst.positions {
                    out.extend_from_slice(&p.path_idx.to_le_bytes());
                    out.extend_from_slice(&p.rd.to_le_bytes());
                }
            }
        }
        out
    }

    /// A v1 log image of `payloads`, each framed (length, checksum).
    fn image(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&WAL_VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        for p in payloads {
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(p).to_le_bytes());
            bytes.extend_from_slice(p);
        }
        bytes
    }

    fn instance(path: &[u32], positions: &[(u32, f64)], prob: f64) -> Instance {
        Instance {
            path: path.iter().map(|&e| EdgeId(e)).collect(),
            positions: positions
                .iter()
                .map(|&(path_idx, rd)| PathPosition { path_idx, rd })
                .collect(),
            prob,
        }
    }

    /// Records v1 accepts that no store would ingest: every code's
    /// escape, every float class, and every shape the reference-relative
    /// code of v2 has to get right.
    fn hostile() -> Vec<Record> {
        let odd = [
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xFFF8_0000_0000_0ABC), // negative NaN payload
            -0.0,
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -1.5,
            1.0,
            0.999_999_999_999_999_9,
        ];
        let reference = instance(&[5, 9, 7, 3], &[(0, 0.1), (1, 0.5), (3, 0.25)], 0.5);
        let variants = vec![
            reference.clone(),
            // A detour in the middle, one rd jittered, a longer tail.
            instance(
                &[5, 11, 12, 7, 3, 8],
                &[(0, 0.1), (2, 0.4), (5, 0.25)],
                0.25,
            ),
            // Shorter than the reference, starting elsewhere.
            instance(&[9, 7], &[(0, 0.5)], 0.125),
            // Longer, more positions than the reference, none shared.
            instance(
                &[u32::MAX, 0, u32::MAX, 1, 2, 3, 4],
                &[(6, 0.0), (0, 0.9), (u32::MAX, 0.3), (2, 0.3), (2, 0.3)],
                0.125,
            ),
            // The reference's path with decreasing indices, no positions.
            instance(&[5, 9, 7, 3], &[], 0.0),
            instance(&[], &[(u32::MAX, 0.5), (0, 0.1)], 1.0),
        ];
        let tu = |id, times: Vec<i64>, instances| UncertainTrajectory {
            id,
            times,
            instances,
        };
        let floats = odd.iter().enumerate();
        let float_inst = instance(
            &[u32::MAX, 0],
            &floats
                .clone()
                .map(|(i, &rd)| (i as u32 % 2, rd))
                .collect::<Vec<_>>(),
            f64::NAN,
        );
        let float_variant = instance(
            &[u32::MAX, 1],
            &floats
                .map(|(i, &rd)| (i as u32 % 3, -rd))
                .collect::<Vec<_>>(),
            -0.0,
        );
        let rec = |epoch, default_interval, trajectories| Record {
            epoch,
            name: "hostile · ✓".into(),
            default_interval,
            trajectories,
        };
        vec![
            rec(u64::MAX, i64::MIN, Vec::new()),
            rec(
                0,
                30,
                vec![
                    tu(u64::MAX, vec![i64::MIN, i64::MAX, i64::MIN, 0], Vec::new()),
                    tu(u64::MAX - 1, vec![], vec![reference.clone()]),
                    tu(0, vec![10, 10, 5, -7, 1 << 62, -(1 << 62)], variants),
                    tu(1 << 63, vec![0; 13], vec![float_inst, float_variant]),
                    tu(
                        7,
                        vec![(1 << 62) - 1, 0, -((1 << 62) - 1), 30],
                        vec![reference],
                    ),
                ],
            ),
            rec(
                1,
                i64::MAX,
                vec![tu(3, vec![i64::MAX, i64::MIN], Vec::new())],
            ),
        ]
    }

    #[test]
    fn every_record_v1_accepts_round_trips_bit_exactly() {
        let want: Vec<_> = hostile().iter().map(bits).collect();
        for rec in hostile() {
            let v1 = decode_payload(&encode_payload_v1(&rec)).expect("v1 decodes");
            assert_eq!(bits(&v1), bits(&rec));
        }
        // And through files: a v1 log migrates to a v2 log that reads
        // back the same records, bit for bit.
        let dir = std::env::temp_dir().join(format!("utcq-legacy-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        let (old, new) = (dir.join("v1.wal"), dir.join("v2.wal"));
        let payloads: Vec<_> = hostile().iter().map(encode_payload_v1).collect();
        std::fs::write(&old, image(&payloads)).expect("write v1");
        assert_eq!(read_v1(&image(&payloads)).expect("read v1").len(), 3);
        let no_v1 = || unreachable!("a log");
        let migrated = crate::migrate(&old, &new, no_v1).expect("migrate");
        assert_eq!(migrated, crate::Migrated::Log(WAL_VERSION_V1, 3));
        let on_disk = std::fs::read(&new).expect("read");
        assert_eq!(on_disk.get(8..12), Some(&WAL_VERSION.to_le_bytes()[..]));
        let (_, rs) = Wal::open(&WalConfig::new(&new)).expect("open v2");
        assert_eq!(rs.iter().map(bits).collect::<Vec<_>>(), want);
        // A torn final record is dropped; damage before more bytes fails.
        let mut torn = image(&payloads);
        torn.truncate(torn.len() - 1);
        assert_eq!(read_v1(&torn).expect("torn tail").len(), 2);
        let mut damaged = image(&payloads);
        damaged[20] ^= 1;
        assert!(read_v1(&damaged).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
