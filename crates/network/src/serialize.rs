//! Binary serialization of [`RoadNetwork`] — the piece that makes the
//! self-contained container format possible: a persisted store embeds
//! its network, once per file, instead of relying on a side-channel
//! asset.
//!
//! Layout (integers little-endian, bit fields MSB-first):
//!
//! ```text
//! u32 vertex_count (V)   u32 edge_count (E)   u32 max out-degree (D)
//! V × (f64 x, f64 y)     vertex coordinates, raw
//! bit-packed, zero padding to a byte:
//!     V × out-degree     at width_for_max(D) bits
//!     E × edge target    at width_for_max(V − 1) bits
//! u8 euclidean           1: every edge length is (dx·dx + dy·dy).sqrt()
//!                        of its endpoints; 0: the lengths follow
//! E × f64                edge lengths in meters (only if euclidean = 0)
//! ```
//!
//! The CSR offsets are the running sum of the out-degrees, and edge
//! sources follow from them. `D` must be the largest degree stored, and
//! the degrees must sum to `E`, so a network has one encoding.
//!
//! **The euclidean flag is exact.** IEEE 754 rounds each product, the
//! sum and the square root correctly, and Rust never fuses `a * b + c`
//! into one multiply-add, so the reader recomputes every length bit for
//! bit on any platform. The writer sets the flag only when that holds
//! for every edge ([`crate::NetworkBuilder::add_edge`]'s lengths are
//! this expression); a network with any other length stores them all.
//!
//! The reader grows its tables as bytes arrive, never by a count it has
//! not seen backed by input, and refuses more edges than ordered vertex
//! pairs (`E > V²`), so every table stays within a small multiple of
//! the bytes read. Structural violations (a degree past `D`,
//! degrees that do not sum to `E`, a target past the last vertex,
//! non-finite coordinates or lengths) surface as
//! [`std::io::ErrorKind::InvalidData`] — never a panic.

use std::io::{self, Read, Write};

use utcq_bitio::{width_for_max, BitBuf, BitWriter};

use crate::geom::Point;
use crate::graph::{RoadNetwork, VertexId};

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("road network: {what}"))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// The length the euclidean flag stands for.
fn euclidean(a: Point, b: Point) -> f64 {
    let (dx, dy) = (a.x - b.x, a.y - b.y);
    (dx * dx + dy * dy).sqrt()
}

/// The widths of an out-degree and of an edge target.
fn widths(v: usize, max_degree: u32) -> (u32, u32) {
    let target = width_for_max(v.saturating_sub(1) as u64);
    (width_for_max(max_degree.into()), target)
}

impl RoadNetwork {
    /// Serializes the network into a writer (see the module docs).
    pub fn encode(&self, w: &mut impl Write) -> io::Result<()> {
        let v = self.coords.len();
        for n in [v, self.targets.len(), self.max_out_degree as usize] {
            let n = u32::try_from(n).map_err(|_| bad("count past u32"))?;
            w.write_all(&n.to_le_bytes())?;
        }
        for p in &self.coords {
            w.write_all(&p.x.to_le_bytes())?;
            w.write_all(&p.y.to_le_bytes())?;
        }
        let (w_degree, w_target) = widths(v, self.max_out_degree);
        let mut bits = BitWriter::new();
        let invalid = |e| io::Error::new(io::ErrorKind::InvalidInput, e);
        for o in self.out_offsets.windows(2) {
            // bounds: windows(2) yields exactly-2-element slices
            let degree = o[1] - o[0];
            bits.write_bits(degree.into(), w_degree).map_err(invalid)?;
        }
        for t in &self.targets {
            bits.write_bits(t.0.into(), w_target).map_err(invalid)?;
        }
        w.write_all(bits.finish().as_bytes())?;
        let ends = self.sources.iter().zip(&self.targets);
        let exact = ends.zip(&self.lengths).all(|((s, t), l)| {
            euclidean(self.coords[s.idx()], self.coords[t.idx()]).to_bits() == l.to_bits()
        });
        w.write_all(&[u8::from(exact)])?;
        if !exact {
            for l in &self.lengths {
                w.write_all(&l.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Deserializes a network from a reader, validating its structure.
    pub fn decode(r: &mut impl Read) -> io::Result<Self> {
        let v = read_u32(r)? as usize;
        let e = read_u32(r)? as usize;
        let max_out_degree = read_u32(r)?;
        // More edges than ordered vertex pairs is no road network, and
        // would let an edge cost as little as one bit of input.
        if v > (1 << 28) || e > (1 << 29) || e as u64 > (v as u64).pow(2) {
            return Err(bad("implausible vertex/edge count"));
        }
        // Pushed as they arrive: a crafted count allocates nothing the
        // input does not hold.
        let mut coords = Vec::new();
        for _ in 0..v {
            let (x, y) = (read_f64(r)?, read_f64(r)?);
            if !x.is_finite() || !y.is_finite() {
                return Err(bad("non-finite coordinate"));
            }
            coords.push(Point { x, y });
        }
        let (w_degree, w_target) = widths(v, max_out_degree);
        let n_bits = v as u64 * u64::from(w_degree) + e as u64 * u64::from(w_target);
        let mut bytes = Vec::new();
        r.by_ref()
            .take(n_bits.div_ceil(8))
            .read_to_end(&mut bytes)?;
        if bytes.len() as u64 != n_bits.div_ceil(8) {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let padded = || bad("packed section padded with ones");
        let packed = BitBuf::from_bytes(bytes, n_bits as usize).ok_or_else(padded)?;
        let mut bits = packed.reader();
        let mut field = |width| bits.read_bits(width).map_err(|_| padded());
        let mut out_offsets = Vec::with_capacity(v + 1);
        out_offsets.push(0u32);
        let (mut edges, mut widest) = (0u64, 0);
        for _ in 0..v {
            let degree = field(w_degree)?;
            if degree > u64::from(max_out_degree) {
                return Err(bad("out-degree past the maximum"));
            }
            edges += degree;
            if edges > e as u64 {
                return Err(bad("out-degrees past the edge count"));
            }
            widest = widest.max(degree as u32);
            out_offsets.push(edges as u32);
        }
        if edges != e as u64 || widest != max_out_degree {
            return Err(bad("out-degrees disagree with the counts"));
        }
        let mut targets = Vec::with_capacity(e);
        for _ in 0..e {
            let t = field(w_target)?;
            if t >= v as u64 {
                return Err(bad("edge target out of range"));
            }
            targets.push(VertexId(t as u32));
        }
        let mut sources = Vec::with_capacity(e);
        for (vi, o) in out_offsets.windows(2).enumerate() {
            // bounds: windows(2) yields exactly-2-element slices
            sources.extend((o[0]..o[1]).map(|_| VertexId(vi as u32)));
        }
        let mut flag = [0u8];
        r.read_exact(&mut flag)?;
        let lengths = match flag {
            [1] => {
                let ends = sources.iter().zip(&targets);
                Vec::from_iter(ends.map(|(s, t)| euclidean(coords[s.idx()], coords[t.idx()])))
            }
            [0] => {
                let mut lengths = Vec::with_capacity(e);
                for _ in 0..e {
                    lengths.push(read_f64(r)?);
                }
                lengths
            }
            _ => return Err(bad("unknown length flag")),
        };
        if lengths.iter().any(|l| !l.is_finite() || *l < 0.0) {
            return Err(bad("invalid edge length"));
        }
        Ok(RoadNetwork {
            coords,
            out_offsets,
            targets,
            sources,
            lengths,
            max_out_degree,
            bounds: std::sync::OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    fn sample() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(100.0, 0.0);
        let v2 = b.add_vertex(100.0, 80.0);
        b.add_edge(v0, v1);
        b.add_edge(v1, v2);
        b.add_edge(v2, v0);
        b.add_edge(v0, v2);
        b.build()
    }

    fn encoded(net: &RoadNetwork) -> Vec<u8> {
        let mut bytes = Vec::new();
        net.encode(&mut bytes).unwrap();
        bytes
    }

    /// Where the packed section of `net`'s encoding starts.
    fn packed_at(net: &RoadNetwork) -> usize {
        12 + 16 * net.vertex_count()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let net = sample();
        let bytes = encoded(&net);
        let back = RoadNetwork::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, net);
        for e in net.edges() {
            assert_eq!(back.edge_from(e), net.edge_from(e));
            assert_eq!(back.edge_number(e), net.edge_number(e));
            assert_eq!(back.edge_length(e).to_bits(), net.edge_length(e).to_bits());
        }
        // Three degrees of two bits, four targets of two bits: two bytes,
        // then the set flag and no length.
        assert_eq!(bytes.len(), packed_at(&net) + 2 + 1);
        assert_eq!(bytes.last(), Some(&1));
    }

    #[test]
    fn explicit_lengths_are_stored() {
        let mut b = NetworkBuilder::new();
        let v0 = b.add_vertex(0.0, 0.0);
        let v1 = b.add_vertex(3.0, 4.0);
        b.add_edge(v0, v1);
        b.add_edge_with_length(v1, v0, 42.0);
        let net = b.build();
        let bytes = encoded(&net);
        let flag = packed_at(&net) + 1;
        assert_eq!((bytes[flag], bytes.len()), (0, flag + 1 + 16));
        assert_eq!(RoadNetwork::decode(&mut bytes.as_slice()).unwrap(), net);
    }

    #[test]
    fn generated_networks_need_no_lengths() {
        // Every generated edge is a straight segment between its ends.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let net = crate::gen::grid_city(&crate::gen::GridCityConfig::tiny(), &mut rng);
        let bytes = encoded(&net);
        assert_eq!(bytes.last(), Some(&1));
        assert_eq!(RoadNetwork::decode(&mut bytes.as_slice()).unwrap(), net);
    }

    #[test]
    fn truncation_is_an_error() {
        let net = sample();
        let bytes = encoded(&net);
        for cut in 0..bytes.len() {
            assert!(RoadNetwork::decode(&mut bytes[..cut].as_ref()).is_err());
        }
    }

    #[test]
    fn corrupt_targets_rejected() {
        // Degrees 2 1 1, then targets 1 2 2 0, two bits each: the third
        // target 3 is past the three vertices.
        let net = sample();
        let mut bytes = encoded(&net);
        bytes[packed_at(&net) + 1] |= 0b11 << 4;
        let err = RoadNetwork::decode(&mut bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("target out of range"), "{err}");
    }

    #[test]
    fn corrupt_structure_is_rejected() {
        let net = sample();
        let bytes = encoded(&net);
        let at = packed_at(&net);
        let refused = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = bytes.clone();
            edit(&mut bad);
            RoadNetwork::decode(&mut bad.as_slice())
                .unwrap_err()
                .to_string()
        };
        // Degrees 2 1 1 then targets 1 2 2 0, two bits each.
        assert_eq!(&bytes[at..at + 2], &[0b10_01_01_01, 0b10_10_00_00]);
        // v0's degree 3, past the maximum of 2.
        let past_max = refused(&|b| b[at] |= 0b01 << 6);
        assert!(past_max.contains("past the maximum"), "{past_max}");
        // A maximum of 3 that no degree reaches.
        let unreached = refused(&|b| b[8] = 3);
        assert!(unreached.contains("disagree"), "{unreached}");
        // v2's degree 0: the degrees sum to 3 of 4 edges.
        let short = refused(&|b| b[at] &= !(0b11 << 2));
        assert!(short.contains("disagree"), "{short}");
        let coordinate = refused(&|b| b[12..20].copy_from_slice(&f64::NAN.to_le_bytes()));
        assert!(coordinate.contains("non-finite"), "{coordinate}");
        let flag = refused(&|b| *b.last_mut().unwrap() = 2);
        assert!(flag.contains("length flag"), "{flag}");
        let padding = refused(&|b| b[at + 1] |= 1);
        assert!(padding.contains("padded with ones"), "{padding}");
    }

    #[test]
    fn a_crafted_count_allocates_only_what_arrives() {
        // 2^28 vertices and 2^29 edges announced, 16 bytes present.
        let mut bytes = Vec::new();
        for n in [1u32 << 28, 1 << 29, 4] {
            bytes.extend(n.to_le_bytes());
        }
        bytes.extend([0; 16]);
        let err = RoadNetwork::decode(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Two vertices take one bit per target: five edges between them
        // are refused before anything is read.
        let mut pairs = Vec::new();
        for n in [2u32, 5, 5] {
            pairs.extend(n.to_le_bytes());
        }
        let err = RoadNetwork::decode(&mut pairs.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }
}
