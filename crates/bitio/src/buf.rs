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
        let used = self.len % 8;
        if width > 0 && used + width as usize <= 64 {
            let word = (value << (64 - used - width as usize)).to_be_bytes();
            let touched = &word[..(used + width as usize).div_ceil(8)];
            let fresh = match self.buf.last_mut() {
                Some(last) if used > 0 => {
                    *last |= touched[0];
                    &touched[1..]
                }
                _ => touched,
            };
            self.buf.extend_from_slice(fresh);
            self.len += width as usize;
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
        let used = self.len % 8;
        if used == 0 {
            self.buf.extend_from_slice(other.bytes);
        } else if let Some(mut last) = self.buf.len().checked_sub(1) {
            // Each source byte straddles two destination bytes; the
            // source's padding bits are zero, so nothing stray lands.
            self.buf.reserve(other.bytes.len());
            for &b in other.bytes.iter() {
                self.buf[last] |= b >> used;
                self.buf.push(b << (8 - used));
                last += 1;
            }
        }
        self.len += other.len;
        self.buf.truncate(self.len.div_ceil(8));
    }

    /// The bits written so far, borrowed.
    #[inline]
    pub fn as_slice(&self) -> BitSlice<'_> {
        BitSlice {
            bytes: &self.buf,
            len: self.len,
        }
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

/// A borrowed bit stream: packed bytes that start on a byte boundary
/// (MSB-first, the final byte zero-padded) and an exact bit length.
/// What a [`BitBuf`] lends out, and what a table that keeps many streams
/// in one byte arena hands to the decoders without copying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BitSlice<'a> {
    bytes: &'a [u8],
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
        Some(Self { bytes, len })
    }

    /// The packed backing bytes (see [`BitBuf::as_bytes`]).
    #[inline]
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
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
        (self.bytes[pos / 8] >> (7 - pos % 8)) & 1 == 1
    }

    /// A reader positioned at bit 0.
    pub fn reader(&self) -> BitReader<'a> {
        self.reader_at(0)
    }

    /// A reader positioned at an arbitrary bit (a persisted stream pointer).
    pub fn reader_at(&self, pos: usize) -> BitReader<'a> {
        BitReader { buf: *self, pos }
    }

    /// Materializes the stream as bools (test convenience).
    pub fn to_bits(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
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
        let (first, skip) = (self.pos / 8, self.pos % 8);
        let tail = self.buf.bytes.get(first..).unwrap_or_default();
        let word = match tail.first_chunk::<8>() {
            Some(word) => u64::from_be_bytes(*word),
            None => {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(word)
            }
        };
        let avail = self.remaining().min(64 - skip) as u32;
        let valid = u64::MAX.checked_shr(avail).map_or(u64::MAX, |rest| !rest);
        ((word << skip) & valid, avail)
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
        let mut bytes = Vec::new();
        self.read_into(len, &mut bytes)?;
        Ok(BitBuf {
            bytes: bytes.into_boxed_slice(),
            len,
        })
    }

    /// Appends the next `len` bits to `out` as a stream of their own:
    /// starting on a byte boundary of `out`, the final byte zero-padded
    /// (the layout [`BitSlice::from_bytes`] borrows).
    pub fn read_into(&mut self, len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
        if self.remaining() < len {
            return Err(CodecError::UnexpectedEnd {
                pos: self.pos,
                len: self.buf.len,
            });
        }
        let skip = self.pos % 8;
        let src = &self.buf.bytes[self.pos / 8..];
        let at = out.len();
        if skip == 0 {
            out.extend_from_slice(&src[..len.div_ceil(8)]);
        } else {
            out.extend(src[..len.div_ceil(8)].iter().map(|b| b << skip));
            for (b, next) in out[at..].iter_mut().zip(&src[1..]) {
                *b |= next >> (8 - skip);
            }
        }
        if !len.is_multiple_of(8) {
            if let Some(last) = out.last_mut() {
                *last &= 0xFF << (8 - len % 8);
            }
        }
        self.pos += len;
        Ok(())
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
        let (first, skip) = (self.pos / 8, self.pos % 8);
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
            let bit_pos = self.pos % 8;
            let byte = self.buf.bytes[self.pos / 8];
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
