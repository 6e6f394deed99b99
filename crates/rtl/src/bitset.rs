//! A dense bitset over `u64` words — the high-throughput set-union lattice
//! of the dataflow solvers.
//!
//! Liveness and the maybe-uninitialized analysis join sets on every CFG edge
//! re-evaluation; over a `BTreeSet` each join walks tree nodes and may
//! reallocate. Pseudo-registers are already small integers, so they serve
//! as bit indices directly, and a join is a word-wise
//! `OR` with a changed-bit accumulator: one cache-friendly pass, no
//! allocation once the word vector has grown to the universe size.
//!
//! Equality is *semantic*: trailing zero words are ignored, so a set that
//! grew and shrank compares equal to one that never grew. This is what lets
//! [`BitSet`] implement [`JoinSemiLattice`]
//! directly (the solvers detect fixpoints via `join_in_place`'s changed
//! bit, never via `==`, but the lattice laws still demand honest equality).

use std::fmt;

use crate::analysis::JoinSemiLattice;

/// Bits per storage word.
const WORD_BITS: u32 = 64;

/// A growable dense set of `u32` indices.
#[derive(Default, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

// `#[inline]`, as a derived impl is: the solvers that copy sets are generic,
// so they run in the crates that call them.
impl Clone for BitSet {
    #[inline]
    fn clone(&self) -> BitSet {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Copies into `self`'s words, so a reused buffer allocates only when
    /// `source` is wider than any set it held before.
    #[inline]
    fn clone_from(&mut self, source: &BitSet) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// The empty set.
    pub fn new() -> BitSet {
        BitSet { words: Vec::new() }
    }

    /// The empty set, with capacity for indices `< nbits` preallocated.
    pub fn with_capacity(nbits: u32) -> BitSet {
        BitSet {
            words: Vec::with_capacity(nbits.div_ceil(WORD_BITS) as usize),
        }
    }

    #[inline]
    fn split(bit: u32) -> (usize, u64) {
        ((bit / WORD_BITS) as usize, 1u64 << (bit % WORD_BITS))
    }

    /// Whether `bit` is in the set.
    #[inline]
    pub fn contains(&self, bit: u32) -> bool {
        let (w, m) = Self::split(bit);
        self.words.get(w).is_some_and(|x| x & m != 0)
    }

    /// Insert `bit`; true if it was not already present.
    #[inline]
    pub fn insert(&mut self, bit: u32) -> bool {
        let (w, m) = Self::split(bit);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & m == 0;
        self.words[w] |= m;
        fresh
    }

    /// Remove `bit`; true if it was present.
    #[inline]
    pub fn remove(&mut self, bit: u32) -> bool {
        let (w, m) = Self::split(bit);
        match self.words.get_mut(w) {
            Some(x) if *x & m != 0 => {
                *x &= !m;
                true
            }
            _ => false,
        }
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Number of elements (population count).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// In-place union; true if `self` gained at least one bit. This is the
    /// solver's hot operation: word-wise `OR`, no allocation unless `other`
    /// is wider than `self`.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut grew = 0u64;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            grew |= *b & !*a;
            *a |= *b;
        }
        grew != 0
    }

    /// Iterate the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(bit)
            })
            .map(move |b| wi as u32 * WORD_BITS + b)
        })
    }
}

impl PartialEq for BitSet {
    /// Semantic equality: trailing zero words do not distinguish sets.
    fn eq(&self, other: &BitSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|w| *w == 0)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> BitSet {
        let mut s = BitSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

impl Extend<u32> for BitSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl JoinSemiLattice for BitSet {
    fn join(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    fn join_in_place(&mut self, other: &Self) -> bool {
        self.union_with(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(200));
        assert!(!s.insert(3));
        assert!(s.contains(3) && s.contains(200) && !s.contains(64));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.remove(9999));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_ascending() {
        let s: BitSet = [190, 0, 63, 64, 65].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 190]);
    }

    #[test]
    fn union_reports_growth() {
        let mut a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [2, 130].into_iter().collect();
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union must be a no-op");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a: BitSet = [5].into_iter().collect();
        let b: BitSet = [5].into_iter().collect();
        a.insert(500);
        a.remove(500);
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.insert(500);
        assert_ne!(a, b);
    }

    /// Word-boundary edges: bits 63, 64 and 65 straddle the first/second
    /// `u64`; every operation must agree on which side of the boundary each
    /// lives on.
    #[test]
    fn word_boundary_bits() {
        for bit in [63u32, 64, 65] {
            let mut s = BitSet::new();
            assert!(!s.contains(bit));
            assert!(s.insert(bit), "bit {bit}: first insert is fresh");
            assert!(!s.insert(bit), "bit {bit}: reinsert is not");
            assert!(s.contains(bit));
            assert_eq!(s.len(), 1, "bit {bit}");
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![bit]);
            // Neighbors on the other side of the boundary are unaffected.
            assert!(!s.contains(bit.wrapping_sub(1)) || bit == 0);
            assert!(!s.contains(bit + 1));
            assert!(s.remove(bit));
            assert!(s.is_empty(), "bit {bit}");
        }
        // All three together occupy exactly two words and iterate in order.
        let s: BitSet = [65, 63, 64].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 64, 65]);
        assert_eq!(s.len(), 3);
    }

    /// `union_with`'s changed-bit return at word boundaries: growing only in
    /// a *new trailing word* must report `true`, re-unioning must report
    /// `false`, and a union that adds nothing but forces a resize (other is
    /// wider but only with zero words) must report `false`.
    #[test]
    fn union_with_changed_bit_at_word_boundaries() {
        // Gain confined to the second word.
        let mut a: BitSet = [63].into_iter().collect();
        let b: BitSet = [64].into_iter().collect();
        assert!(a.union_with(&b), "gaining bit 64 must report change");
        assert!(!a.union_with(&b), "idempotent re-union");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![63, 64]);

        // Gain confined to the third word (65 already shared, 128 new).
        let mut c: BitSet = [63, 65].into_iter().collect();
        let d: BitSet = [65, 128].into_iter().collect();
        assert!(c.union_with(&d));
        assert!(!c.union_with(&d));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![63, 65, 128]);

        // `other` wider only by an explicitly zeroed word: no semantic gain,
        // so no change — even though `self`'s word vector grows.
        let mut e: BitSet = [63].into_iter().collect();
        let mut wide = BitSet::new();
        wide.insert(64 + 63); // occupy word 1,
        wide.remove(64 + 63); // then empty it again (words stay allocated).
        assert!(!e.union_with(&wide), "zero-word widening is not a change");
        assert_eq!(e.iter().collect::<Vec<_>>(), vec![63]);
        // And semantic equality still holds against the never-widened set.
        let f: BitSet = [63].into_iter().collect();
        assert_eq!(e, f);
    }

    #[test]
    fn lattice_laws() {
        let a: BitSet = [1, 64].into_iter().collect();
        let b: BitSet = [2].into_iter().collect();
        // Commutative, idempotent, and consistent with join_in_place.
        assert_eq!(a.join(&b), b.join(&a));
        assert_eq!(a.join(&a), a);
        let mut c = a.clone();
        assert!(c.join_in_place(&b));
        assert_eq!(c, a.join(&b));
        assert!(!c.join_in_place(&b));
    }
}
