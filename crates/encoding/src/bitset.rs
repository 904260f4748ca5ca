//! A fixed-capacity bitset over `u64` words.
//!
//! Player inputs in `DISJ_{n,k}` are subsets of `[n]`; the protocols
//! intersect, subtract and scan them constantly, so a compact word-parallel
//! set representation matters for the large-`n` sweeps.

use std::fmt;

/// A set of integers in `{0, …, capacity−1}` backed by `u64` words.
///
/// # Example
///
/// ```
/// use bci_encoding::bitset::BitSet;
///
/// let mut a = BitSet::new(100);
/// a.insert(3);
/// a.insert(64);
/// let mut b = BitSet::new(100);
/// b.insert(64);
/// b.insert(99);
/// assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![64]);
/// assert!(!a.intersection(&b).is_empty());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set with elements drawn from `{0, …, capacity−1}`.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates the full set `{0, …, capacity−1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a set from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `≥ capacity`.
    pub fn from_elements<I: IntoIterator<Item = usize>>(capacity: usize, elems: I) -> Self {
        let mut s = BitSet::new(capacity);
        for e in elems {
            s.insert(e);
        }
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// The universe size this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds `elem`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    #[inline]
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(elem < self.capacity, "element {elem} out of range");
        let mask = 1u64 << (elem % 64);
        let word = &mut self.words[elem / 64];
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Removes `elem`; returns whether it was present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    pub fn remove(&mut self, elem: usize) -> bool {
        assert!(elem < self.capacity, "element {elem} out of range");
        let mask = 1u64 << (elem % 64);
        let word = &mut self.words[elem / 64];
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Whether `elem` is in the set (out-of-range elements are absent).
    #[inline]
    pub fn contains(&self, elem: usize) -> bool {
        if elem >= self.capacity {
            return false;
        }
        self.words[elem / 64] & (1u64 << (elem % 64)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// `self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// The complement within the universe.
    pub fn complement(&self) -> BitSet {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.trim();
        out
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn zip_with(&self, other: &BitSet, f: impl Fn(u64, u64) -> u64) -> BitSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        BitSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            capacity: self.capacity,
        }
    }

    /// Whether `self` and `other` have no common element.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// Read access to the backing words (little-endian; bit `j` of word `w`
    /// is element `64w + j`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Builds a set from raw backing words, masking off bits `≥ capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `⌈capacity/64⌉` long.
    pub fn from_words(capacity: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            capacity.div_ceil(64),
            "expected {} words for capacity {capacity}",
            capacity.div_ceil(64)
        );
        let mut s = BitSet { words, capacity };
        s.trim();
        s
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Elements<'_> {
        Elements {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set whose capacity is `max + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let cap = elems.iter().max().map_or(0, |m| m + 1);
        BitSet::from_elements(cap, elems)
    }
}

/// A sparse fixed-capacity bitset: only the *occupied* 64-bit words are
/// stored, as a list of `(word index, word)` pairs sorted by word index
/// with no zero words.
///
/// A [`BitSet`] over `[n]` costs `O(n/64)` per intersection or length query
/// no matter how few elements it holds; for the sparse-disjointness sweeps
/// (`s ≤ 512` elements in a universe of `n = 2²⁴`) that `O(n)` per pruning
/// round *is* the running time. `SparseBitSet` makes every per-round
/// operation `O(s)`: the word list is as long as the set is spread out
/// (`≤ min(len, ⌈n/64⌉)` entries), independent of `n`.
///
/// # Example
///
/// ```
/// use bci_encoding::bitset::SparseBitSet;
///
/// let a = SparseBitSet::from_elements(1 << 24, [3, 70, 1 << 20]);
/// let b = SparseBitSet::from_elements(1 << 24, [70, 9999]);
/// assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![70]);
/// assert_eq!(a.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SparseBitSet {
    /// `(word index, word)` pairs, sorted by index, every word nonzero.
    entries: Vec<(usize, u64)>,
    capacity: usize,
}

impl SparseBitSet {
    /// Creates an empty set with elements drawn from `{0, …, capacity−1}`.
    pub fn new(capacity: usize) -> Self {
        SparseBitSet {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Builds a set from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `≥ capacity`.
    pub fn from_elements<I: IntoIterator<Item = usize>>(capacity: usize, elems: I) -> Self {
        let mut s = SparseBitSet::new(capacity);
        for e in elems {
            s.insert(e);
        }
        s
    }

    /// Converts a dense [`BitSet`] (same capacity, same elements).
    pub fn from_dense(dense: &BitSet) -> Self {
        SparseBitSet {
            entries: dense
                .words()
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w != 0)
                .map(|(i, &w)| (i, w))
                .collect(),
            capacity: dense.capacity(),
        }
    }

    /// Converts to a dense [`BitSet`] (allocates `⌈capacity/64⌉` words).
    pub fn to_dense(&self) -> BitSet {
        let mut words = vec![0u64; self.capacity.div_ceil(64)];
        for &(idx, w) in &self.entries {
            words[idx] = w;
        }
        BitSet::from_words(self.capacity, words)
    }

    /// The universe size this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The stored `(word index, word)` pairs: sorted by index, no zero
    /// words, bit `j` of the word at index `w` is element `64w + j`.
    pub fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }

    /// The word at `word_idx` (zero when unoccupied).
    pub fn word(&self, word_idx: usize) -> u64 {
        match self.entries.binary_search_by_key(&word_idx, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0,
        }
    }

    /// Adds `elem`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(elem < self.capacity, "element {elem} out of range");
        let (idx, mask) = (elem / 64, 1u64 << (elem % 64));
        match self.entries.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => {
                let newly = self.entries[pos].1 & mask == 0;
                self.entries[pos].1 |= mask;
                newly
            }
            Err(pos) => {
                self.entries.insert(pos, (idx, mask));
                true
            }
        }
    }

    /// Whether `elem` is in the set (out-of-range elements are absent).
    pub fn contains(&self, elem: usize) -> bool {
        elem < self.capacity && self.word(elem / 64) & (1u64 << (elem % 64)) != 0
    }

    /// Number of elements — `O(occupied words)`, not `O(capacity)`.
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .map(|&(_, w)| w.count_ones() as usize)
            .sum()
    }

    /// Whether the set is empty (`O(1)`: zero words are never stored).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `self ∩ other` by a merge join over the two sorted word lists:
    /// `O(|self words| + |other words|)`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersection(&self, other: &SparseBitSet) -> SparseBitSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut entries = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ia, wa) = self.entries[i];
            let (ib, wb) = other.entries[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if wa & wb != 0 {
                        entries.push((ia, wa & wb));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        SparseBitSet {
            entries,
            capacity: self.capacity,
        }
    }

    /// Whether `self` and `other` have no common element.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_disjoint(&self, other: &SparseBitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ia, wa) = self.entries[i];
            let (ib, wb) = other.entries[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if wa & wb != 0 {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Maps every occupied word through `f(word index, word)` in index
    /// order and drops the words that come back zero, in place.
    ///
    /// This is the sparse pruning primitive: intersecting with any
    /// word-wise–defined mask (e.g. the Håstad–Wigderson shared random
    /// superset, materialized lazily on exactly the occupied words) costs
    /// `O(occupied words)` instead of `O(capacity/64)`.
    pub fn retain_words(&mut self, mut f: impl FnMut(usize, u64) -> u64) {
        self.entries.retain_mut(|(idx, w)| {
            *w = f(*idx, *w);
            *w != 0
        });
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().flat_map(|&(idx, w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(idx * 64 + bit)
            })
        })
    }
}

impl fmt::Debug for SparseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a [`BitSet`]'s elements, produced by [`BitSet::iter`].
#[derive(Debug, Clone)]
pub struct Elements<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Elements<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "double insert reports not-new");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        let c = s.complement();
        assert!(c.is_empty());
    }

    #[test]
    fn full_zero_capacity() {
        let s = BitSet::full(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_elements(200, [1, 5, 100, 199]);
        let b = BitSet::from_elements(200, [5, 100, 150]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![5, 100]);
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 5, 100, 150, 199]
        );
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 199]);
    }

    #[test]
    fn complement_partitions_universe() {
        let a = BitSet::from_elements(100, [0, 50, 99]);
        let c = a.complement();
        assert_eq!(a.len() + c.len(), 100);
        assert!(a.intersection(&c).is_empty());
        assert_eq!(a.union(&c), BitSet::full(100));
    }

    #[test]
    fn iter_in_order_across_words() {
        let elems = [0usize, 63, 64, 65, 127, 128];
        let s = BitSet::from_elements(129, elems);
        assert_eq!(s.iter().collect::<Vec<_>>(), elems);
    }

    #[test]
    fn union_with_in_place() {
        let mut a = BitSet::from_elements(10, [1]);
        let b = BitSet::from_elements(10, [2, 3]);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacity_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(11);
        let _ = a.union(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn disjoint_predicate() {
        let a = BitSet::from_elements(130, [1, 64, 129]);
        let b = BitSet::from_elements(130, [1, 64, 100, 129]);
        let c = BitSet::from_elements(130, [2, 65]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        let empty = BitSet::new(130);
        assert!(empty.is_disjoint(&a));
        assert!(empty.is_disjoint(&empty));
    }

    #[test]
    fn words_round_trip() {
        let a = BitSet::from_elements(100, [0, 63, 64, 99]);
        let b = BitSet::from_words(100, a.words().to_vec());
        assert_eq!(a, b);
        // from_words masks out-of-capacity bits.
        let c = BitSet::from_words(3, vec![u64::MAX]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn collect_from_iterator() {
        let s: BitSet = [4usize, 2, 7].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 4, 7]);
    }

    #[test]
    fn sparse_round_trips_through_dense() {
        let elems = [0usize, 63, 64, 65, 4000, (1 << 20) - 1];
        let dense = BitSet::from_elements(1 << 20, elems);
        let sparse = SparseBitSet::from_dense(&dense);
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(sparse.iter().collect::<Vec<_>>(), elems);
        assert_eq!(sparse.to_dense(), dense);
        assert_eq!(SparseBitSet::from_elements(1 << 20, elems), sparse);
    }

    #[test]
    fn sparse_insert_contains_and_word_lookup() {
        let mut s = SparseBitSet::new(1 << 16);
        assert!(s.insert(100));
        assert!(s.insert(101));
        assert!(!s.insert(100), "double insert reports not-new");
        assert!(s.insert(70));
        assert!(s.contains(100));
        assert!(!s.contains(102));
        assert!(!s.contains(1 << 20), "out of range is absent");
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.word(1),
            (1 << (100 - 64)) | (1 << (101 - 64)) | (1 << (70 - 64))
        );
        assert_eq!(s.word(0), 0);
        // Entries stay sorted with no zero words.
        let idxs: Vec<usize> = s.entries().iter().map(|&(i, _)| i).collect();
        assert_eq!(idxs, vec![1]);
    }

    #[test]
    fn sparse_intersection_matches_dense() {
        let a_elems = [1usize, 64, 700, 701, 50_000];
        let b_elems = [64usize, 701, 702, 50_000, 60_000];
        let n = 1 << 18;
        let a = SparseBitSet::from_elements(n, a_elems);
        let b = SparseBitSet::from_elements(n, b_elems);
        let dense =
            BitSet::from_elements(n, a_elems).intersection(&BitSet::from_elements(n, b_elems));
        assert_eq!(a.intersection(&b).to_dense(), dense);
        assert!(!a.is_disjoint(&b));
        let c = SparseBitSet::from_elements(n, [2usize, 65, 703]);
        assert!(a.is_disjoint(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn sparse_retain_words_prunes_and_drops_empty_words() {
        let n = 1 << 12;
        let mut s = SparseBitSet::from_elements(n, [3usize, 64, 65, 130]);
        let mut seen = Vec::new();
        s.retain_words(|idx, w| {
            seen.push(idx);
            if idx == 1 {
                0 // whole word pruned
            } else {
                w & !(1 << 3) // drop element 3, keep 130
            }
        });
        assert_eq!(seen, vec![0, 1, 2], "visited in index order");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![130]);
        assert!(s.entries().iter().all(|&(_, w)| w != 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_insert_out_of_range_panics() {
        SparseBitSet::new(10).insert(10);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn sparse_mismatched_capacity_panics() {
        let _ = SparseBitSet::new(10).intersection(&SparseBitSet::new(11));
    }
}
