//! Eigenbit strings.

use std::fmt;

/// The *eigenbits* of a basis vector (§2.2): one bit per qubit position, set
/// iff the position is a minus eigenstate.
///
/// Ordering is lexicographic (bit 0 first), which is the order basis-literal
/// normalization sorts vectors into before span checking (§4.1).
///
/// # Example
///
/// ```
/// use asdf_basis::BitString;
///
/// let bits: BitString = "101".parse()?;
/// assert_eq!(bits.len(), 3);
/// assert!(bits.bit(0) && !bits.bit(1) && bits.bit(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// Creates an all-zero bit string of length `len`.
    pub(crate) fn zeros(len: usize) -> Self {
        BitString { bits: vec![false; len] }
    }

    /// Creates a bit string from the low `len` bits of `value`, most
    /// significant bit first (so `from_value(0b10, 2)` is `"10"`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    pub fn from_value(value: u128, len: usize) -> Self {
        assert!(len <= 128, "BitString::from_value supports at most 128 bits");
        let bits = (0..len).map(|i| (value >> (len - 1 - i)) & 1 == 1).collect();
        BitString { bits }
    }

    /// Creates a bit string from an iterator of bits, first bit first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString { bits: iter.into_iter().collect() }
    }

    /// The number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at position `i` (position 0 is leftmost).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Iterates over bits, leftmost first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Splits into the first `n` bits and the remaining bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub(crate) fn split_at(&self, n: usize) -> (BitString, BitString) {
        let (pre, suf) = self.bits.split_at(n);
        (BitString { bits: pre.to_vec() }, BitString { bits: suf.to_vec() })
    }

    /// Concatenates two bit strings.
    pub(crate) fn concat(&self, other: &BitString) -> BitString {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&other.bits);
        BitString { bits }
    }

    /// Interprets the bits as a big-endian integer (leftmost bit most
    /// significant).
    ///
    /// # Panics
    ///
    /// Panics if `self.len() > 128`.
    pub fn value(&self) -> u128 {
        assert!(self.len() <= 128, "BitString::value supports at most 128 bits");
        self.bits.iter().fold(0u128, |acc, &b| (acc << 1) | u128::from(b))
    }

    /// The number of set bits.
    #[cfg(test)]
    pub(crate) fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Bitwise XOR of two equal-length strings.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[cfg(test)]
    pub(crate) fn xor(&self, other: &BitString) -> BitString {
        assert_eq!(self.len(), other.len(), "xor requires equal lengths");
        BitString { bits: self.bits.iter().zip(&other.bits).map(|(a, b)| a ^ b).collect() }
    }
}

impl std::str::FromStr for BitString {
    type Err = crate::BasisError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                _ => Err(crate::BasisError::parse(format!(
                    "invalid bit character {c:?} in bit string"
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|bits| BitString { bits })
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in &self.bits {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_value_is_big_endian() {
        let b = BitString::from_value(0b101, 3);
        assert_eq!(b.to_string(), "101");
        assert_eq!(b.value(), 0b101);
    }

    #[test]
    fn lexicographic_order() {
        let a: BitString = "010".parse().unwrap();
        let b: BitString = "100".parse().unwrap();
        assert!(a < b);
        let short: BitString = "10".parse().unwrap();
        assert!(short < b, "prefix sorts before longer string");
    }

    #[test]
    fn split_and_concat_round_trip() {
        let b: BitString = "110100".parse().unwrap();
        let (pre, suf) = b.split_at(2);
        assert_eq!(pre.to_string(), "11");
        assert_eq!(suf.to_string(), "0100");
        assert_eq!(pre.concat(&suf), b);
    }

    #[test]
    fn xor_and_counts() {
        let a: BitString = "1100".parse().unwrap();
        let b: BitString = "1010".parse().unwrap();
        assert_eq!(a.xor(&b).to_string(), "0110");
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!("10x".parse::<BitString>().is_err());
    }

    #[test]
    fn value_round_trip_128() {
        let v = u128::MAX - 12345;
        let b = BitString::from_value(v, 128);
        assert_eq!(b.value(), v);
    }
}
