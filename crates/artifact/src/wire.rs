//! Primitive wire encoding: little-endian integers, length-prefixed
//! byte strings, and a bounds-checked cursor for decoding.
//!
//! The [`Decoder`] is the safety boundary of the whole crate: every read
//! checks the remaining byte count first, every declared element count is
//! validated against the bytes that could possibly back it (so a corrupt
//! length cannot trigger a huge allocation), and every failure is a
//! structured [`ArtifactError`] — never a panic.

use crate::error::ArtifactError;

/// FNV-1a 64-bit hasher: the workspace's one content hash, behind the
/// artifact checksum and content hash, the session cache keys and disk
/// cache file names, and the simulator's trace state digests.
#[derive(Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The standard FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one byte.
    #[cfg(test)]
    #[inline]
    pub(crate) fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Feeds a u64 as its little-endian bytes.
    #[cfg(test)]
    #[inline]
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an i64 as its little-endian bytes.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a usize widened to u64, so hashes agree across pointer widths.
    #[cfg(test)]
    #[inline]
    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes one byte slice with FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// An append-only encoder producing the wire byte stream.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    /// Consumes the encoder, returning the bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one raw byte.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u32.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian i64.
    #[cfg(test)]
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an f64 as its IEEE-754 bit pattern (bitwise round trip,
    /// NaN payloads included).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a usize as a u64.
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes length-prefixed raw bytes.
    pub(crate) fn bytes_prefixed(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked decoding cursor over a byte slice.
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the cursor has consumed every byte.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub(crate) fn take(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                context,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub(crate) fn u8(&mut self, context: &'static str) -> Result<u8, ArtifactError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian u32.
    pub(crate) fn u32(&mut self, context: &'static str) -> Result<u32, ArtifactError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64.
    pub(crate) fn u64(&mut self, context: &'static str) -> Result<u64, ArtifactError> {
        let bytes = self.take(8, context)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian i64.
    #[cfg(test)]
    pub(crate) fn i64(&mut self, context: &'static str) -> Result<i64, ArtifactError> {
        let bytes = self.take(8, context)?;
        Ok(i64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads an f64 from its bit pattern.
    pub(crate) fn f64(&mut self, context: &'static str) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a bool, rejecting anything but 0 or 1.
    pub(crate) fn bool(&mut self, context: &'static str) -> Result<bool, ArtifactError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ArtifactError::BadTag { context, tag: u64::from(tag) }),
        }
    }

    /// Reads a usize encoded as a u64, rejecting values that do not fit.
    pub(crate) fn usize(&mut self, context: &'static str) -> Result<usize, ArtifactError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| ArtifactError::BadTag { context, tag: v })
    }

    /// Reads an element count and validates it against the bytes that
    /// could possibly back it (`min_element_size` bytes each), so a
    /// corrupt count cannot drive a pathological allocation.
    pub(crate) fn count(
        &mut self,
        min_element_size: usize,
        context: &'static str,
    ) -> Result<usize, ArtifactError> {
        let n = self.usize(context)?;
        let backing = n.checked_mul(min_element_size.max(1));
        match backing {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(ArtifactError::Truncated {
                context,
                needed: n.saturating_mul(min_element_size.max(1)),
                remaining: self.remaining(),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, context: &'static str) -> Result<String, ArtifactError> {
        let len = self.usize(context)?;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ArtifactError::BadUtf8 { context })
    }

    /// Reads length-prefixed raw bytes.
    pub(crate) fn bytes_prefixed(
        &mut self,
        context: &'static str,
    ) -> Result<Vec<u8>, ArtifactError> {
        let len = self.usize(context)?;
        Ok(self.take(len, context)?.to_vec())
    }

    /// Fails unless every byte has been consumed.
    pub(crate) fn finish(&self, context: &'static str) -> Result<(), ArtifactError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(ArtifactError::Invalid { context })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.f64(std::f64::consts::PI);
        e.bool(true);
        e.str("hello ∀");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert_eq!(d.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(d.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(d.i64("d").unwrap(), -42);
        assert_eq!(d.f64("e").unwrap(), std::f64::consts::PI);
        assert!(d.bool("f").unwrap());
        assert_eq!(d.str("g").unwrap(), "hello ∀");
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_structured() {
        let mut e = Encoder::new();
        e.u64(99);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..5]);
        let err = d.u64("x").unwrap_err();
        assert_eq!(err, ArtifactError::Truncated { context: "x", needed: 8, remaining: 5 });
    }

    #[test]
    fn counts_are_validated_against_remaining_bytes() {
        let mut e = Encoder::new();
        e.usize(1 << 40); // an absurd element count with no backing bytes
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.count(4, "vec").unwrap_err(), ArtifactError::Truncated { .. }));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Typed writes hash their little-endian bytes.
        let mut h = Fnv::new();
        h.write_u8(7);
        h.write_u64(3);
        h.write_i64(-2);
        h.write_usize(5);
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&(-2i64).to_le_bytes());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&bytes));
    }

    #[test]
    fn bad_bool_is_a_bad_tag() {
        let bytes = [3u8];
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.bool("flag").unwrap_err(), ArtifactError::BadTag { context: "flag", tag: 3 });
    }
}
