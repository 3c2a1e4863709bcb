//! Permutations of n-bit strings.

use std::fmt;

/// A permutation on `{0,1}^n`, stored as a table of `2^n` images.
///
/// Basis translations reduce to permutations of `std` basis vectors
/// (§6.3): "the core of a basis translation is a permutation of std basis
/// vectors".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    n: usize,
    table: Vec<usize>,
}

impl Permutation {
    /// The identity on `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (tables are dense).
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        assert!(n <= 24, "permutation tables are dense; {n} bits is too many");
        Permutation { n, table: (0..(1usize << n)).collect() }
    }

    /// A permutation from its image table (`table[x]` is the image of `x`).
    ///
    /// # Errors
    ///
    /// Returns a message if the table length is not a power of two or the
    /// entries are not a permutation of `0..len`.
    pub fn from_table(table: Vec<usize>) -> Result<Self, String> {
        let len = table.len();
        if !len.is_power_of_two() {
            return Err(format!("table length {len} is not a power of two"));
        }
        let n = len.trailing_zeros() as usize;
        let mut seen = vec![false; len];
        for &y in &table {
            if y >= len || seen[y] {
                return Err("table is not a bijection".to_string());
            }
            seen[y] = true;
        }
        Ok(Permutation { n, table })
    }

    /// A permutation defined by a partial map of `(input, output)` pairs;
    /// unmapped points stay fixed. This is how a basis translation's
    /// vector pairs become a permutation: listed vectors map across, and
    /// the orthogonal complement is untouched (§2.2).
    ///
    /// # Errors
    ///
    /// Returns a message if the pairs are not injective or out of range.
    pub fn from_partial(n: usize, pairs: &[(usize, usize)]) -> Result<Self, String> {
        let len = 1usize << n;
        let mut table: Vec<Option<usize>> = vec![None; len];
        let mut taken = vec![false; len];
        for &(x, y) in pairs {
            if x >= len || y >= len {
                return Err(format!("pair ({x},{y}) out of range for {n} bits"));
            }
            if table[x].is_some() || taken[y] {
                return Err("partial map is not injective".to_string());
            }
            table[x] = Some(y);
            taken[y] = true;
        }
        // Fixed points must be available: if x is unmapped but some pair
        // targets x, the sets of sources and targets must coincide.
        let sources: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        for x in 0..len {
            if table[x].is_none() {
                if taken[x] {
                    return Err(format!(
                        "point {x} is a target of the partial map but not a source; \
                         the mapped set must be closed (sources {sources:?})"
                    ));
                }
                table[x] = Some(x);
            }
        }
        Ok(Permutation { n, table: table.into_iter().map(Option::unwrap).collect() })
    }

    /// Number of bits.
    pub(crate) fn num_bits(&self) -> usize {
        self.n
    }

    /// The image of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= 2^n`.
    #[cfg(test)]
    pub(crate) fn apply(&self, x: usize) -> usize {
        self.table[x]
    }

    /// The image table.
    pub(crate) fn table(&self) -> &[usize] {
        &self.table
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.table.iter().enumerate().all(|(x, &y)| x == y)
    }

    /// The inverse permutation.
    #[cfg(test)]
    pub(crate) fn inverse(&self) -> Permutation {
        let mut table = vec![0usize; self.table.len()];
        for (x, &y) in self.table.iter().enumerate() {
            table[y] = x;
        }
        Permutation { n: self.n, table }
    }

    /// `self` after `other`: `(self.compose(other))(x) = self(other(x))`.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.n, other.n, "composition requires equal widths");
        Permutation { n: self.n, table: other.table.iter().map(|&y| self.table[y]).collect() }
    }

    /// Decomposes the permutation into transpositions (swaps), used when
    /// undoing renaming-based swaps during predication (§5.3): "the
    /// permutation effected by the unpredicated block is decomposed into a
    /// series of swaps".
    #[cfg(test)]
    pub(crate) fn to_swaps(&self) -> Vec<(usize, usize)> {
        let mut swaps = Vec::new();
        let mut current: Vec<usize> = self.table.clone();
        for x in 0..current.len() {
            while current[x] != x {
                let y = current[x];
                current.swap(x, y);
                swaps.push((x, y));
            }
        }
        swaps
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "perm[{}](", self.n)?;
        for (x, y) in self.table.iter().enumerate() {
            if x > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{x}->{y}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_inverse() {
        let id = Permutation::identity(3);
        assert!(id.is_identity());
        let p = Permutation::from_table(vec![1, 2, 3, 0]).unwrap();
        assert!(!p.is_identity());
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn from_partial_fixes_unmapped() {
        // The SWAP example of §2.2: {'01','10'} >> {'10','01'}.
        let p = Permutation::from_partial(2, &[(0b01, 0b10), (0b10, 0b01)]).unwrap();
        assert_eq!(p.apply(0b00), 0b00);
        assert_eq!(p.apply(0b01), 0b10);
        assert_eq!(p.apply(0b10), 0b01);
        assert_eq!(p.apply(0b11), 0b11);
    }

    #[test]
    fn from_partial_rejects_open_sets() {
        // 0 -> 1 without mapping 1 anywhere cannot fix 1.
        assert!(Permutation::from_partial(1, &[(0, 1)]).is_err());
        assert!(Permutation::from_partial(1, &[(0, 1), (1, 0)]).is_ok());
    }

    #[test]
    fn rejects_non_bijection() {
        assert!(Permutation::from_table(vec![0, 0]).is_err());
        assert!(Permutation::from_table(vec![0, 1, 2]).is_err());
    }

    #[test]
    fn swap_decomposition_reconstructs() {
        let p = Permutation::from_table(vec![2, 0, 3, 1]).unwrap();
        let swaps = p.to_swaps();
        // Applying the swaps to the identity reproduces the permutation's
        // inverse ordering; verify by rebuilding.
        let mut table: Vec<usize> = (0..4).collect();
        for &(a, b) in swaps.iter().rev() {
            table.swap(a, b);
        }
        // The swaps sort p's table into the identity, so replaying them in
        // reverse on the identity rebuilds p.
        let rebuilt = Permutation::from_table(table).unwrap();
        assert_eq!(rebuilt, p);
    }
}
