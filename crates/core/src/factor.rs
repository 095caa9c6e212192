//! Referential representation: factor lists for `E`, `T'`, and `D` (§4.2)
//! plus their variable-length binary encodings (§4.4).
//!
//! A non-reference is stored as a list of *factors* against its reference:
//!
//! * `E` uses the `(S, L, M)` scheme of FRESCO \[35\]: copy
//!   `ref[S..S+L]` then append the mismatched element `M`. Two rewrites
//!   (paper cases A and B): a trailing factor with no mismatch is `(S, L)`,
//!   and an element absent from the reference is `(S = |E(ref)|, M)`.
//! * `T'` uses `(S, L)` factors whose mismatch bit is *inferred* as
//!   `NOT(ref[S+L])`; the final factor instead carries an explicit
//!   has-mismatch flag (and bit) to avoid the end-of-reference ambiguity.
//! * `D` uses sparse `(pos, rd)` patches at the positions whose
//!   (quantized) relative distance differs from the reference — legal
//!   because all instances of one uncertain trajectory share `|D|`.
//!
//! The paper's Table 4 examples are unit tests below.

use utcq_bitio::{golomb, width_for_max, BitReader, BitWriter, CodecError};

// ---------------------------------------------------------------------------
// E factors
// ---------------------------------------------------------------------------

/// One factor of `Com_E(Nref, Ref)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EFactor {
    /// Copy `ref[s..s+l]`, then append the mismatch `m`.
    Copy {
        /// Start position in the reference.
        s: u32,
        /// Copied length.
        l: u32,
        /// First mismatched element after the copy.
        m: u32,
    },
    /// Copy `ref[s..s+l]` with no mismatch — only legal as the final
    /// factor (paper case A).
    Tail {
        /// Start position in the reference.
        s: u32,
        /// Copied length.
        l: u32,
    },
    /// An element absent from the reference (paper case B); encoded with
    /// `S = |E(ref)|`.
    Novel {
        /// The literal element.
        m: u32,
    },
}

/// Greedy longest-match factorization of `nref` against `refe`.
pub fn factorize_e(nref: &[u32], refe: &[u32]) -> Vec<EFactor> {
    let mut factors = Vec::new();
    let mut q = 0usize;
    while q < nref.len() {
        let (s, l) = longest_match(&nref[q..], refe);
        if l == 0 {
            factors.push(EFactor::Novel { m: nref[q] });
            q += 1;
        } else if q + l == nref.len() {
            factors.push(EFactor::Tail {
                s: s as u32,
                l: l as u32,
            });
            q += l;
        } else {
            factors.push(EFactor::Copy {
                s: s as u32,
                l: l as u32,
                m: nref[q + l],
            });
            q += l + 1;
        }
    }
    factors
}

/// Longest prefix of `needle` occurring anywhere in `hay`; ties prefer the
/// smallest start. Returns `(start, len)`.
fn longest_match(needle: &[u32], hay: &[u32]) -> (usize, usize) {
    if needle.is_empty() {
        return (0, 0);
    }
    let first = needle[0];
    let mut best = (0usize, 0usize);
    for s in 0..hay.len() {
        // Matches must start on the needle's first symbol, and a start
        // this late can no longer beat the current best.
        if hay[s] != first || hay.len() - s <= best.1 {
            continue;
        }
        let mut l = 1usize;
        while l < needle.len() && s + l < hay.len() && hay[s + l] == needle[l] {
            l += 1;
        }
        if l > best.1 {
            best = (s, l);
            if l == needle.len() {
                break;
            }
        }
    }
    best
}

/// Replays factors into the represented sequence.
pub fn apply_e(factors: &[EFactor], refe: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for f in factors {
        match *f {
            EFactor::Copy { s, l, m } => {
                out.extend_from_slice(&refe[s as usize..(s + l) as usize]);
                out.push(m);
            }
            EFactor::Tail { s, l } => {
                out.extend_from_slice(&refe[s as usize..(s + l) as usize]);
            }
            EFactor::Novel { m } => out.push(m),
        }
    }
    out
}

/// Binary-encodes `Com_E`. `m_width` is the fixed width of outgoing-edge
/// numbers (`⌈log2(o+1)⌉` for max out-degree `o`).
pub fn encode_e(
    w: &mut BitWriter,
    factors: &[EFactor],
    ref_len: usize,
    nref_len: usize,
    m_width: u32,
) -> Result<(), CodecError> {
    let ws = width_for_max(ref_len as u64);
    let wl = width_for_max(ref_len as u64);
    golomb::encode_unsigned(w, factors.len() as u64)?;
    golomb::encode_unsigned(w, nref_len as u64)?;
    for f in factors {
        match *f {
            EFactor::Copy { s, l, m } => {
                w.write_bits(u64::from(s), ws)?;
                w.write_bits(u64::from(l), wl)?;
                w.write_bits(u64::from(m), m_width)?;
            }
            EFactor::Tail { s, l } => {
                w.write_bits(u64::from(s), ws)?;
                w.write_bits(u64::from(l), wl)?;
            }
            EFactor::Novel { m } => {
                w.write_bits(ref_len as u64, ws)?;
                w.write_bits(u64::from(m), m_width)?;
            }
        }
    }
    Ok(())
}

/// Decodes `Com_E` and replays it against the reference in one pass.
pub fn decode_e(r: &mut BitReader<'_>, refe: &[u32], m_width: u32) -> Result<Vec<u32>, CodecError> {
    let ref_len = refe.len();
    let ws = width_for_max(ref_len as u64);
    let wl = width_for_max(ref_len as u64);
    let h = golomb::decode_unsigned(r)? as usize;
    let nref_len = golomb::decode_unsigned(r)? as usize;
    let mut out = Vec::with_capacity(nref_len);
    for i in 0..h {
        let s = r.read_bits(ws)? as usize;
        if s == ref_len {
            out.push(r.read_bits(m_width)? as u32);
            continue;
        }
        let l = r.read_bits(wl)? as usize;
        if s + l > ref_len {
            return Err(CodecError::Malformed("E factor copies past reference end"));
        }
        out.extend_from_slice(&refe[s..s + l]);
        let is_tail = i == h - 1 && out.len() == nref_len;
        if !is_tail {
            out.push(r.read_bits(m_width)? as u32);
        }
    }
    if out.len() != nref_len {
        return Err(CodecError::Malformed("E factors produce the wrong length"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// T' factors
// ---------------------------------------------------------------------------

/// One `(S, L)` factor of `Com_T'`: copy `ref[s..s+l]` then append the
/// inferred mismatch `NOT(ref[s+l])` (non-final factors only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TFactor {
    /// Start position in the reference.
    pub s: u32,
    /// Copied length.
    pub l: u32,
}

/// The referential representation of a trimmed time-flag bit-string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TCom {
    /// `Com_T' = ∅`: the non-reference equals the reference.
    Identical,
    /// The reference is empty but the non-reference is not: store verbatim.
    Raw(Vec<bool>),
    /// Factor list; `last_m` is the explicit mismatch bit of the final
    /// factor (`None` when the final factor is an exact tail copy).
    Factors {
        /// The `(S, L)` factors.
        factors: Vec<TFactor>,
        /// Explicit mismatch bit of the last factor, if any.
        last_m: Option<bool>,
    },
}

/// Factorizes a trimmed flag string against a reference.
pub fn factorize_t(nref: &[bool], refb: &[bool]) -> TCom {
    if nref == refb {
        return TCom::Identical;
    }
    if refb.is_empty() || nref.is_empty() {
        return TCom::Raw(nref.to_vec());
    }
    let mut factors = Vec::new();
    let mut last_m = None;
    let mut q = 0usize;
    while q < nref.len() {
        // Best factor at q: maximize covered bits. A match of length l at s
        // covers l+1 bits via the inferred mismatch when s+l < |ref| (the
        // mismatch is automatic for maximal matches), exactly l bits as a
        // tail when q+l == |nref|, or — as the final factor only — l bits
        // plus an *explicit* mismatch bit.
        let remaining = nref.len() - q;
        let mut best: Option<(usize, usize, usize, bool)> = None; // (cover, s, l, explicit)
        for s in 0..refb.len() {
            let mut l = 0usize;
            while q + l < nref.len() && s + l < refb.len() && refb[s + l] == nref[q + l] {
                l += 1;
            }
            // Tail candidate: exact copy to the end of nref.
            if q + l == nref.len() {
                let cand = (l, s, l, false);
                if best.is_none_or(|b| cand.0 > b.0) {
                    best = Some(cand);
                }
            }
            // Implicit-mismatch candidate: needs a reference bit after the
            // copy (the mismatch is automatic for maximal matches).
            if s + l < refb.len() && q + l < nref.len() {
                debug_assert_ne!(refb[s + l], nref[q + l]);
                let cand = (l + 1, s, l, false);
                if best.is_none_or(|b| cand.0 > b.0) {
                    best = Some(cand);
                }
            }
            // Explicit-final candidate: copy all but the last remaining bit
            // and append it literally. Only usable as the very last factor.
            if l >= remaining - 1 {
                let cand = (remaining, s, remaining - 1, true);
                if best.is_none_or(|b| cand.0 > b.0) {
                    best = Some(cand);
                }
            }
        }
        let Some((cover, s, l, _)) = best else {
            // The reference is a constant run shorter than the remainder:
            // factors cannot express nref. Store it verbatim (only
            // reachable when |nref| ≠ |ref|, which the decoder can tell).
            debug_assert_ne!(nref.len(), refb.len());
            return TCom::Raw(nref.to_vec());
        };
        debug_assert!(cover >= 1);
        factors.push(TFactor {
            s: s as u32,
            l: l as u32,
        });
        q += cover;
        // The decoder appends mismatch bits implicitly for all but the
        // final factor; if the final factor consumed a mismatch bit
        // (cover = l + 1), that bit must be stored explicitly.
        if q == nref.len() && cover == l + 1 {
            last_m = Some(nref[nref.len() - 1]);
        }
    }
    TCom::Factors { factors, last_m }
}

/// Replays a `T'` representation against the reference.
pub fn apply_t(com: &TCom, refb: &[bool]) -> Vec<bool> {
    match com {
        TCom::Identical => refb.to_vec(),
        TCom::Raw(bits) => bits.clone(),
        TCom::Factors { factors, last_m } => {
            let mut out = Vec::new();
            for (i, f) in factors.iter().enumerate() {
                let (s, l) = (f.s as usize, f.l as usize);
                out.extend_from_slice(&refb[s..s + l]);
                let is_last = i == factors.len() - 1;
                if is_last {
                    if let Some(m) = last_m {
                        out.push(*m);
                    }
                } else {
                    out.push(!refb[s + l]);
                }
            }
            out
        }
    }
}

/// Binary-encodes a `T'` representation.
pub fn encode_t(w: &mut BitWriter, com: &TCom, ref_len: usize) -> Result<(), CodecError> {
    let wt = width_for_max(ref_len as u64);
    match com {
        TCom::Identical => golomb::encode_unsigned(w, 0)?,
        TCom::Raw(bits) => {
            golomb::encode_unsigned(w, 0)?;
            for &b in bits {
                w.push_bit(b);
            }
        }
        TCom::Factors { factors, last_m } => {
            golomb::encode_unsigned(w, factors.len() as u64)?;
            for (i, f) in factors.iter().enumerate() {
                w.write_bits(u64::from(f.s), wt)?;
                w.write_bits(u64::from(f.l), wt)?;
                if i == factors.len() - 1 {
                    w.push_bit(last_m.is_some());
                    if let Some(m) = last_m {
                        w.push_bit(*m);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Decodes a `T'` representation. `nref_len` (known from the decoded edge
/// sequence) disambiguates the `H = 0` cases.
pub fn decode_t(
    r: &mut BitReader<'_>,
    ref_len: usize,
    nref_len: usize,
) -> Result<TCom, CodecError> {
    let wt = width_for_max(ref_len as u64);
    let h = golomb::decode_unsigned(r)? as usize;
    if h == 0 {
        if nref_len == ref_len {
            return Ok(TCom::Identical);
        }
        // H = 0 with differing lengths is the verbatim fallback (empty
        // reference, or a constant-run reference that factors cannot
        // express). Lengths differing is guaranteed by the encoder.
        let mut bits = Vec::with_capacity(nref_len);
        for _ in 0..nref_len {
            bits.push(r.read_bit()?);
        }
        return Ok(TCom::Raw(bits));
    }
    let mut factors = Vec::with_capacity(h);
    let mut last_m = None;
    for i in 0..h {
        let s = r.read_bits(wt)? as u32;
        let l = r.read_bits(wt)? as u32;
        if (s + l) as usize > ref_len {
            return Err(CodecError::Malformed("T' factor copies past reference end"));
        }
        factors.push(TFactor { s, l });
        if i == h - 1 && r.read_bit()? {
            last_m = Some(r.read_bit()?);
        }
    }
    Ok(TCom::Factors { factors, last_m })
}

// ---------------------------------------------------------------------------
// D patches
// ---------------------------------------------------------------------------

/// One `(pos, rd)` patch of `Com_D`: position `pos` holds quantized code
/// `code` instead of the reference's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DPatch {
    /// Index into the distance sequence.
    pub pos: u32,
    /// The PDDP code at that index.
    pub code: u64,
}

/// Computes the patch list between two equal-length quantized sequences.
pub fn diff_d(nref: &[u64], refd: &[u64]) -> Vec<DPatch> {
    debug_assert_eq!(nref.len(), refd.len(), "instances share |D|");
    nref.iter()
        .zip(refd)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (a, _))| DPatch {
            pos: i as u32,
            code: *a,
        })
        .collect()
}

/// Applies patches to the reference's codes.
pub fn apply_d(patches: &[DPatch], refd: &[u64]) -> Vec<u64> {
    let mut out = refd.to_vec();
    for p in patches {
        out[p.pos as usize] = p.code;
    }
    out
}

/// Binary-encodes `Com_D`. `d_width` is the PDDP code width.
pub fn encode_d(
    w: &mut BitWriter,
    patches: &[DPatch],
    n_locs: usize,
    d_width: u32,
) -> Result<(), CodecError> {
    let wp = width_for_max(n_locs.saturating_sub(1) as u64);
    golomb::encode_unsigned(w, patches.len() as u64)?;
    for p in patches {
        w.write_bits(u64::from(p.pos), wp)?;
        w.write_bits(p.code, d_width)?;
    }
    Ok(())
}

/// Decodes `Com_D`.
pub fn decode_d(
    r: &mut BitReader<'_>,
    n_locs: usize,
    d_width: u32,
) -> Result<Vec<DPatch>, CodecError> {
    let wp = width_for_max(n_locs.saturating_sub(1) as u64);
    let h = golomb::decode_unsigned(r)? as usize;
    let mut patches = Vec::with_capacity(h);
    for _ in 0..h {
        let pos = r.read_bits(wp)? as u32;
        if pos as usize >= n_locs {
            return Err(CodecError::Malformed("D patch position out of range"));
        }
        patches.push(DPatch {
            pos,
            code: r.read_bits(d_width)?,
        });
    }
    Ok(patches)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF_E: [u32; 9] = [1, 2, 1, 2, 2, 0, 4, 1, 0]; // E(Tu¹₁)

    #[test]
    fn table4_com_e_of_tu12() {
        // Com_E(Nref¹₁₁, Ref¹₁) = ⟨(0,1,1), (2,7)⟩.
        let nref = [1, 1, 1, 2, 2, 0, 4, 1, 0];
        let f = factorize_e(&nref, &REF_E);
        assert_eq!(
            f,
            vec![
                EFactor::Copy { s: 0, l: 1, m: 1 },
                EFactor::Tail { s: 2, l: 7 },
            ]
        );
        assert_eq!(apply_e(&f, &REF_E), nref);
    }

    #[test]
    fn table4_com_e_of_tu13() {
        // Com_E(Nref¹₁₂, Ref¹₁) = ⟨(0,8,2)⟩.
        let nref = [1, 2, 1, 2, 2, 0, 4, 1, 2];
        let f = factorize_e(&nref, &REF_E);
        assert_eq!(f, vec![EFactor::Copy { s: 0, l: 8, m: 2 }]);
        assert_eq!(apply_e(&f, &REF_E), nref);
    }

    #[test]
    fn case_b_novel_symbol() {
        // §4.2 case B: E(Tu¹₄) = ⟨3,2,1,2,2⟩ starts with a 3 that never
        // occurs in the reference → factor (S=9, M=3).
        let nref = [3, 2, 1, 2, 2];
        let f = factorize_e(&nref, &REF_E);
        assert_eq!(f[0], EFactor::Novel { m: 3 });
        assert_eq!(apply_e(&f, &REF_E), nref);
    }

    #[test]
    fn e_factor_bit_roundtrip() {
        let cases: Vec<Vec<u32>> = vec![
            vec![1, 1, 1, 2, 2, 0, 4, 1, 0],
            vec![1, 2, 1, 2, 2, 0, 4, 1, 2],
            vec![3, 2, 1, 2, 2],
            vec![1, 2, 1, 2, 2, 0, 4, 1, 0], // identical to the reference
            vec![7],
            vec![5, 5, 5, 5],
        ];
        for nref in cases {
            let f = factorize_e(&nref, &REF_E);
            let mut w = BitWriter::new();
            encode_e(&mut w, &f, REF_E.len(), nref.len(), 3).unwrap();
            let buf = w.finish();
            let mut r = buf.reader();
            assert_eq!(decode_e(&mut r, &REF_E, 3).unwrap(), nref);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn e_identical_is_one_tail_factor() {
        let f = factorize_e(&REF_E, &REF_E);
        assert_eq!(f, vec![EFactor::Tail { s: 0, l: 9 }]);
    }

    fn bits(v: &[u8]) -> Vec<bool> {
        v.iter().map(|&b| b == 1).collect()
    }

    #[test]
    fn table4_com_t_of_tu12() {
        // Com_T'(Nref¹₁₁, Ref¹₁) = ⟨(1,2),(3,4)⟩.
        let refb = bits(&[0, 1, 0, 1, 1, 1, 1]); // T'(Tu¹₁) trimmed
        let nref = bits(&[1, 0, 0, 1, 1, 1, 1]); // T'(Tu¹₂) trimmed
        let com = factorize_t(&nref, &refb);
        assert_eq!(
            com,
            TCom::Factors {
                factors: vec![TFactor { s: 1, l: 2 }, TFactor { s: 3, l: 4 }],
                last_m: None,
            }
        );
        assert_eq!(apply_t(&com, &refb), nref);
    }

    #[test]
    fn table4_com_t_of_tu13_is_empty() {
        // T'(Tu¹₃) equals T'(Tu¹₁) → Com_T' = ∅.
        let refb = bits(&[0, 1, 0, 1, 1, 1, 1]);
        let com = factorize_t(&refb.clone(), &refb);
        assert_eq!(com, TCom::Identical);
        assert_eq!(apply_t(&com, &refb), refb);
    }

    #[test]
    fn t_factor_roundtrip_misc() {
        let refs = [
            bits(&[0, 1, 0, 1, 1, 1, 1]),
            bits(&[1, 1, 1, 1]),
            bits(&[0, 0, 0]),
            vec![],
        ];
        let nrefs = [
            bits(&[1, 0, 0, 1, 1, 1, 1]),
            bits(&[0]),
            bits(&[0, 0, 0, 0, 0, 1]),
            bits(&[1, 1]),
            vec![],
            bits(&[1, 0, 1, 0, 1, 0, 1, 0]),
        ];
        for refb in &refs {
            for nref in &nrefs {
                let com = factorize_t(nref, refb);
                assert_eq!(&apply_t(&com, refb), nref, "ref={refb:?} nref={nref:?}");
                let mut w = BitWriter::new();
                encode_t(&mut w, &com, refb.len()).unwrap();
                let buf = w.finish();
                let mut r = buf.reader();
                let back = decode_t(&mut r, refb.len(), nref.len()).unwrap();
                assert_eq!(&apply_t(&back, refb), nref);
            }
        }
    }

    #[test]
    fn t_constant_reference_opposite_bits() {
        // All-ones reference, non-reference starting with 0: zero-length
        // copies with inferred mismatches must carry the day.
        let refb = bits(&[1, 1, 1, 1]);
        let nref = bits(&[0, 0, 1, 0]);
        let com = factorize_t(&nref, &refb);
        assert_eq!(apply_t(&com, &refb), nref);
    }

    #[test]
    fn table4_com_d() {
        // Quantize Table 3's D at ηD = 1/128 (all values dyadic → exact).
        let q = |x: f64| (x * 128.0).round() as u64;
        let refd: Vec<u64> = [0.875, 0.25, 0.5, 0.875, 0.5, 0.0, 0.875]
            .iter()
            .map(|&x| q(x))
            .collect();
        // Tu¹₂ has identical D → no patches.
        assert!(diff_d(&refd, &refd).is_empty());
        // Tu¹₃ differs at position 6 (0.5 instead of 0.875) → ⟨(6, 0.5)⟩.
        let mut d13 = refd.clone();
        d13[6] = q(0.5);
        let patches = diff_d(&d13, &refd);
        assert_eq!(
            patches,
            vec![DPatch {
                pos: 6,
                code: q(0.5)
            }]
        );
        assert_eq!(apply_d(&patches, &refd), d13);
    }

    #[test]
    fn d_patch_bit_roundtrip() {
        let refd: Vec<u64> = (0..20).map(|i| i * 3 % 128).collect();
        let mut nref = refd.clone();
        nref[0] = 99;
        nref[7] = 1;
        nref[19] = 127;
        let patches = diff_d(&nref, &refd);
        assert_eq!(patches.len(), 3);
        let mut w = BitWriter::new();
        encode_d(&mut w, &patches, refd.len(), 7).unwrap();
        let buf = w.finish();
        let mut r = buf.reader();
        let back = decode_d(&mut r, refd.len(), 7).unwrap();
        assert_eq!(back, patches);
        assert_eq!(apply_d(&back, &refd), nref);
    }
}
