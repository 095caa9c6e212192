//! MSB-first bit buffers with random access.
//!
//! The compressed formats in this workspace index into their own streams by
//! *bit position* (the paper's `t.pos` / `d.pos` / `ma.pos` tuple fields),
//! so the reader supports seeking to an arbitrary bit.

use crate::CodecError;

/// Append-only bit stream writer. Bits are packed MSB-first into bytes.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Total number of bits written.
    len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// Number of bits written so far. This is the bit position the next
    /// write will land at, which callers persist as stream pointers.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let byte = self.len / 8;
        if byte == self.buf.len() {
            self.buf.push(0);
        }
        if bit {
            self.buf[byte] |= 0x80 >> (self.len % 8);
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, most significant bit first.
    ///
    /// Returns an error if `width > 64` or `value` does not fit in `width`
    /// bits — silently truncating would corrupt downstream decompression.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: u32) -> Result<(), CodecError> {
        if width > 64 {
            return Err(CodecError::WidthTooLarge(width));
        }
        if width < 64 && value >> width != 0 {
            return Err(CodecError::ValueOutOfRange { value, width });
        }
        // A field that fits one 64-bit word beside the bits already in
        // the last byte lands as one shifted word.
        if width > 0 && self.len % 8 + width as usize <= 64 {
            self.put(value, width as usize);
            return Ok(());
        }
        // Byte-chunked path.
        let mut remaining = width as usize;
        while remaining > 0 {
            let bit_pos = self.len % 8;
            let byte = self.len / 8;
            if byte == self.buf.len() {
                self.buf.push(0);
            }
            let free = 8 - bit_pos;
            let take = free.min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) as u8) & (((1u16 << take) - 1) as u8);
            self.buf[byte] |= chunk << (free - take);
            self.len += take;
            remaining -= take;
        }
        Ok(())
    }

    /// Appends the low `width` bits of `value`, which has no other bit
    /// set, as one shifted word: `width` is 1 to 56, or more if it still
    /// fits one word beside the bits already in the last byte.
    #[inline]
    fn put(&mut self, value: u64, width: usize) {
        let used = self.len % 8;
        let word = (value << (64 - used - width)).to_be_bytes();
        let touched = &word[..(used + width).div_ceil(8)];
        let fresh = match self.buf.last_mut() {
            Some(last) if used > 0 => {
                *last |= touched[0];
                &touched[1..]
            }
            _ => touched,
        };
        self.buf.extend_from_slice(fresh);
        self.len += width;
    }

    /// Appends `count` repetitions of `bit`.
    pub fn push_run(&mut self, bit: bool, mut count: usize) {
        // Align to a byte boundary, then blast whole bytes.
        while !self.len.is_multiple_of(8) && count > 0 {
            self.push_bit(bit);
            count -= 1;
        }
        let fill = if bit { 0xFFu8 } else { 0 };
        let whole = count / 8;
        self.buf.extend(std::iter::repeat_n(fill, whole));
        self.len += whole * 8;
        for _ in 0..count % 8 {
            self.push_bit(bit);
        }
    }

    /// Appends every bit of another buffer (or borrowed stream).
    pub fn extend_from<'a>(&mut self, other: impl Into<BitSlice<'a>>) {
        let other: BitSlice<'a> = other.into();
        self.buf.reserve(other.len.div_ceil(8) + 1);
        match other.aligned_bytes() {
            Some(bytes) if self.len.is_multiple_of(8) => {
                self.buf.extend_from_slice(bytes);
                self.len += other.len;
                // The last byte may hold the first bits after `other`.
                if let (Some(last), 1..) = (self.buf.last_mut(), self.len % 8) {
                    *last &= 0xFF << (8 - self.len % 8);
                }
            }
            _ => {
                let mut at = 0;
                while at < other.len {
                    let width = (other.len - at).min(56);
                    self.put(load(other.bytes, other.start + at) >> (64 - width), width);
                    at += width;
                }
            }
        }
    }

    /// The bits written so far, borrowed.
    #[inline]
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice {
            bytes: &self.buf,
            start: 0,
            len: self.len,
        }
    }

    /// The packed bytes written so far (MSB-first; the final byte is
    /// zero-padded).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes allocated for the stream, written or not.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Finalizes the stream.
    pub fn finish(self) -> BitBuf {
        BitBuf {
            bytes: self.buf.into_boxed_slice(),
            len: self.len,
        }
    }
}

/// A finalized stream written on: its bytes, without copying them.
impl From<BitBuf> for BitWriter {
    fn from(buf: BitBuf) -> Self {
        Self {
            buf: buf.bytes.into_vec(),
            len: buf.len,
        }
    }
}

/// An immutable, finalized bit stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitBuf {
    bytes: Box<[u8]>,
    len: usize,
}

impl BitBuf {
    /// An empty buffer.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a buffer from a slice of bools (test / interop convenience).
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut w = BitWriter::with_capacity(bits.len());
        for &b in bits {
            w.push_bit(b);
        }
        w.finish()
    }

    /// The packed backing bytes (MSB-first; the final byte is
    /// zero-padded). Pair with [`BitBuf::from_bytes`] for serialization.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a buffer from packed bytes and an exact bit length;
    /// `None` under the conditions of [`BitSlice::from_bytes`].
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Option<Self> {
        BitSlice::from_bytes(&bytes, len)?;
        Some(Self {
            bytes: bytes.into_boxed_slice(),
            len,
        })
    }

    /// Length in bits.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the backing storage in bytes (what you would write to disk).
    #[inline]
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The same bits, borrowed.
    #[inline]
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice {
            bytes: &self.bytes,
            start: 0,
            len: self.len,
        }
    }

    /// Random access to bit `pos`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        self.as_slice().get(pos)
    }

    /// A reader positioned at bit 0.
    pub fn reader(&self) -> BitReader<'_> {
        self.as_slice().reader()
    }

    /// A reader positioned at an arbitrary bit (a persisted stream pointer).
    pub fn reader_at(&self, pos: usize) -> BitReader<'_> {
        self.as_slice().reader_at(pos)
    }

    /// Materializes the stream as bools (test convenience).
    pub fn to_bits(&self) -> Vec<bool> {
        self.as_slice().to_bits()
    }
}

/// MSB-aligned, the 64 bits from bit `at` of `bytes` (at least 57 of
/// them from the byte that holds bit `at`); bits past the end of `bytes`
/// read as zero.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    let (first, skip) = (at / 8, at % 8);
    let tail = bytes.get(first..).unwrap_or_default();
    let word = match tail.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(word)
        }
    };
    word << skip
}

/// A borrowed bit stream: `len` bits of packed bytes (MSB-first) from bit
/// `start` on. What a [`BitBuf`] lends out (from bit 0), and what a table
/// that keeps many streams back to back in one bit string hands to the
/// decoders without copying ([`BitSlice::slice`]).
#[derive(Clone, Copy, Default)]
pub struct BitSlice<'a> {
    bytes: &'a [u8],
    start: usize,
    len: usize,
}

impl<'a> From<&'a BitBuf> for BitSlice<'a> {
    fn from(buf: &'a BitBuf) -> Self {
        buf.as_slice()
    }
}

impl<'a> BitSlice<'a> {
    /// Borrows `len` bits from packed bytes. Returns `None` when `len`
    /// disagrees with the byte count or padding bits are set (both
    /// indicate corruption).
    pub fn from_bytes(bytes: &'a [u8], len: usize) -> Option<Self> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        if !len.is_multiple_of(8) {
            let pad_mask = 0xFFu8 >> (len % 8);
            if bytes.last().is_some_and(|last| last & pad_mask != 0) {
                return None;
            }
        }
        Some(Self {
            bytes,
            start: 0,
            len,
        })
    }

    /// The `len` bits from bit `at` on, if this stream holds them.
    #[inline]
    pub fn slice(&self, at: usize, len: usize) -> Option<BitSlice<'a>> {
        let end = at.checked_add(len)?;
        (end <= self.len).then_some(BitSlice {
            bytes: self.bytes,
            start: self.start + at,
            len,
        })
    }

    /// The bytes that hold the stream, if it starts on a byte boundary
    /// (bits past its end in the last byte belong to whatever follows).
    fn aligned_bytes(&self) -> Option<&'a [u8]> {
        let first = self.start / 8;
        let bytes = self.bytes.get(first..first + self.len.div_ceil(8))?;
        self.start.is_multiple_of(8).then_some(bytes)
    }

    /// Length in bits.
    #[inline]
    pub fn len_bits(&self) -> usize {
        self.len
    }

    /// True if the stream holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Random access to bit `pos`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        let at = self.start + pos;
        (self.bytes[at / 8] >> (7 - at % 8)) & 1 == 1
    }

    /// A reader positioned at bit 0.
    pub fn reader(&self) -> BitReader<'a> {
        self.reader_at(0)
    }

    /// A reader positioned at an arbitrary bit (a persisted stream pointer).
    pub fn reader_at(&self, pos: usize) -> BitReader<'a> {
        BitReader { buf: *self, pos }
    }

    /// A copy of the stream as a buffer of its own, from a byte boundary.
    pub fn to_buf(&self) -> BitBuf {
        let mut w = BitWriter::with_capacity(self.len);
        w.extend_from(*self);
        w.finish()
    }

    /// Materializes the stream as bools (test convenience).
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Two streams are equal when they hold the same bits, wherever each
/// starts.
impl PartialEq for BitSlice<'_> {
    fn eq(&self, other: &Self) -> bool {
        let same = |at: usize| {
            let width = (self.len - at).min(56);
            let bits = |s: &Self| load(s.bytes, s.start + at) >> (64 - width);
            bits(self) == bits(other)
        };
        self.len == other.len && (0..self.len).step_by(56).all(same)
    }
}

impl Eq for BitSlice<'_> {}

impl std::fmt::Debug for BitSlice<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitSlice")
            .field("bytes", &self.to_buf().as_bytes())
            .field("len", &self.len)
            .finish()
    }
}

/// Sequential reader over a bit stream, seekable to any bit position.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: BitSlice<'a>,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Current bit position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute bit position.
    #[inline]
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Bits left before the end of the stream.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len.saturating_sub(self.pos)
    }

    /// The next bits MSB-aligned in a word, without consuming them, and
    /// how many of them the stream holds: 57 or more, or all that are
    /// left (the rest of the word is zero). One load lets a decoder take
    /// a short variable-length code whole.
    #[inline]
    pub fn peek(&self) -> (u64, u32) {
        let at = self.buf.start + self.pos;
        let avail = self.remaining().min(64 - at % 8) as u32;
        let valid = u64::MAX.checked_shr(avail).map_or(u64::MAX, |rest| !rest);
        (load(self.buf.bytes, at) & valid, avail)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.pos >= self.buf.len {
            return Err(CodecError::UnexpectedEnd {
                pos: self.pos,
                len: self.buf.len,
            });
        }
        let bit = self.buf.get(self.pos);
        self.pos += 1;
        Ok(bit)
    }

    /// Reads the next `len` bits as a buffer of their own — the inverse
    /// of [`BitWriter::extend_from`].
    pub fn read_buf(&mut self, len: usize) -> Result<BitBuf, CodecError> {
        let part = self
            .buf
            .slice(self.pos, len)
            .ok_or(CodecError::UnexpectedEnd {
                pos: self.pos,
                len: self.buf.len,
            })?;
        self.pos += len;
        Ok(part.to_buf())
    }

    /// Reads `width` bits MSB-first into the low bits of a `u64`.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodecError> {
        if width > 64 {
            return Err(CodecError::WidthTooLarge(width));
        }
        if self.remaining() < width as usize {
            return Err(CodecError::UnexpectedEnd {
                pos: self.pos,
                len: self.buf.len,
            });
        }
        // One unaligned 64-bit load covers any field that ends within
        // eight bytes of its first byte (all but the buffer's tail).
        let at = self.buf.start + self.pos;
        let (first, skip) = (at / 8, at % 8);
        let tail = self.buf.bytes.get(first..).unwrap_or_default();
        if let Some(word) = tail.first_chunk::<8>() {
            if width > 0 && skip + width as usize <= 64 {
                self.pos += width as usize;
                return Ok((u64::from_be_bytes(*word) << skip) >> (64 - width));
            }
        }
        // Byte-chunked path.
        let mut v = 0u64;
        let mut remaining = width as usize;
        while remaining > 0 {
            let at = self.buf.start + self.pos;
            let bit_pos = at % 8;
            let byte = self.buf.bytes[at / 8];
            let avail = 8 - bit_pos;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & (((1u16 << take) - 1) as u8);
            v = (v << take) | u64::from(chunk);
            self.pos += take;
            remaining -= take;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.push_bit(true);
        let buf = w.finish();
        assert_eq!(buf.len_bits(), 3);
        assert!(buf.get(0));
        assert!(!buf.get(1));
        assert!(buf.get(2));
    }

    #[test]
    fn write_bits_msb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4).unwrap();
        let buf = w.finish();
        assert_eq!(buf.to_bits(), vec![true, false, true, true]);
    }

    #[test]
    fn write_bits_rejects_overflow() {
        let mut w = BitWriter::new();
        assert_eq!(
            w.write_bits(8, 3),
            Err(CodecError::ValueOutOfRange { value: 8, width: 3 })
        );
        assert_eq!(w.write_bits(1, 65), Err(CodecError::WidthTooLarge(65)));
    }

    #[test]
    fn write_bits_full_width() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64).unwrap();
        w.write_bits(0, 64).unwrap();
        let buf = w.finish();
        let mut r = buf.reader();
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    #[test]
    fn reader_roundtrip_values() {
        let values = [(0u64, 1u32), (5, 3), (255, 8), (1023, 10), (1, 1), (77, 9)];
        let mut w = BitWriter::new();
        for &(v, width) in &values {
            w.write_bits(v, width).unwrap();
        }
        let buf = w.finish();
        let mut r = buf.reader();
        for &(v, width) in &values {
            assert_eq!(r.read_bits(width).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_at_mid_stream() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap();
        let marker = w.len_bits();
        w.write_bits(0b11001, 5).unwrap();
        let buf = w.finish();
        let mut r = buf.reader_at(marker);
        assert_eq!(r.read_bits(5).unwrap(), 0b11001);
    }

    #[test]
    fn read_past_end_errors() {
        let buf = BitBuf::from_bits(&[true, true]);
        let mut r = buf.reader();
        assert!(r.read_bits(3).is_err());
        r.read_bit().unwrap();
        r.read_bit().unwrap();
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn extend_from_concatenates() {
        let a = BitBuf::from_bits(&[true, false]);
        let b = BitBuf::from_bits(&[false, true, true]);
        let mut w = BitWriter::new();
        w.extend_from(&a);
        w.extend_from(&b);
        let buf = w.finish();
        assert_eq!(buf.to_bits(), vec![true, false, false, true, true]);
    }

    #[test]
    fn extend_from_and_read_buf_are_inverse_at_any_alignment() {
        // Streams of every length 0..=40 appended at every bit offset
        // 0..=9, then read back: the bulk paths against the bit loops.
        let pattern = |n: usize| {
            (0..n)
                .map(|i| (i * 7 + n).is_multiple_of(3))
                .collect::<Vec<_>>()
        };
        for offset in 0..10 {
            let mut w = BitWriter::new();
            let mut expect = pattern(offset);
            expect.iter().for_each(|&b| w.push_bit(b));
            for n in 0..=40 {
                w.extend_from(&BitBuf::from_bits(&pattern(n)));
                expect.extend(pattern(n));
            }
            let buf = w.finish();
            assert_eq!(buf.to_bits(), expect, "offset {offset}");
            assert_eq!(buf.len_bytes(), expect.len().div_ceil(8));
            let mut r = buf.reader_at(offset);
            for n in 0..=40 {
                let part = r.read_buf(n).unwrap();
                assert_eq!(
                    part,
                    BitBuf::from_bits(&pattern(n)),
                    "offset {offset} len {n}"
                );
            }
            assert_eq!(r.remaining(), 0);
            assert!(r.read_buf(1).is_err());
        }
    }

    #[test]
    fn slices_start_anywhere_and_compare_by_their_bits() {
        // Every sub-range of a 150-bit pattern: read, copied and
        // compared against the same bits written from bit 0.
        let bits: Vec<bool> = (0..150).map(|i| (i * 5 + i / 7) % 3 == 0).collect();
        let whole = BitBuf::from_bits(&bits);
        for at in [0, 1, 7, 8, 9, 63, 64, 65, 100] {
            let lens = [0, 1, 8, 55, 56, 57, 150 - at];
            for len in lens.into_iter().filter(|len| at + len <= 150) {
                let Some(part) = whole.as_slice().slice(at, len) else {
                    panic!("{at}+{len} is inside")
                };
                let own = BitBuf::from_bits(&bits[at..at + len]);
                assert_eq!(part, own.as_slice(), "{at}+{len}");
                assert_eq!(part.to_bits(), &bits[at..at + len]);
                assert_eq!(part.to_buf(), own);
                let mut r = part.reader();
                let width = len.min(64) as u32;
                assert_eq!(r.read_bits(width), own.reader().read_bits(width));
                assert!(r.read_bits(len as u32 - width + 1).is_err());
                // Appended behind 0 to 9 bits, then read back.
                for lead in 0..10 {
                    let mut w = BitWriter::new();
                    w.push_run(true, lead);
                    w.extend_from(part);
                    w.push_bit(true);
                    let buf = w.finish();
                    assert_eq!(buf.as_slice().slice(lead, len), Some(part));
                    assert!(buf.get(lead + len), "{at}+{len} behind {lead}");
                }
            }
        }
        assert!(whole.as_slice().slice(100, 51).is_none());
        let (a, b) = (whole.as_slice().slice(0, 8), whole.as_slice().slice(1, 8));
        assert_ne!(a, b);
    }

    #[test]
    fn push_run_repeats() {
        let mut w = BitWriter::new();
        w.push_run(true, 9);
        w.push_run(false, 2);
        let buf = w.finish();
        assert_eq!(buf.len_bits(), 11);
        assert!(buf.get(8));
        assert!(!buf.get(9));
    }

    #[test]
    fn bytes_len_rounds_up() {
        let buf = BitBuf::from_bits(&[true; 9]);
        assert_eq!(buf.len_bytes(), 2);
    }
}
