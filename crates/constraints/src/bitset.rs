//! A dense fixed-capacity bitset over candidate ids.
//!
//! Matching instances `I ⊆ C` are represented as bitsets so that the
//! sampler's clone-heavy random walk, the co-occurrence counting behind
//! information gain, and consistency checks are all word-parallel. The type
//! is deliberately minimal — exactly the operations the stack needs — and
//! lives here so every crate above `smn-constraints` shares one
//! representation.
//!
//! All counting/testing/copying loops delegate to the manually unrolled
//! wide kernels in [`crate::kernels`]; the masked iterators skip all-zero
//! 256-bit blocks in a single comparison. Bits beyond `len` are kept zero
//! as an invariant (`trim`), which is what lets the kernels popcount raw
//! words without tail masking.

use crate::kernels;
use serde::Serialize;
use smn_schema::CandidateId;

const WORD_BITS: usize = 64;

/// Iterates the set bits of the virtual word sequence
/// `word_at(0) .. word_at(n_words - 1)` in ascending order, skipping
/// all-zero [`kernels::LANES`]-word blocks with one OR + compare — the
/// wide form of masked iteration shared by `iter`, `iter_xor` and
/// `iter_unset`.
fn iter_words(n_words: usize, word_at: impl Fn(usize) -> u64) -> impl Iterator<Item = CandidateId> {
    let mut wi = 0usize;
    let mut cur = 0u64;
    let mut base = 0usize;
    std::iter::from_fn(move || loop {
        if cur != 0 {
            let b = cur.trailing_zeros() as usize;
            cur &= cur - 1;
            return Some(CandidateId::from_index(base + b));
        }
        if wi >= n_words {
            return None;
        }
        // probe only at block boundaries: dense sets then pay one 4-word
        // OR per block instead of one per word
        if wi % kernels::LANES == 0
            && wi + kernels::LANES <= n_words
            && word_at(wi) | word_at(wi + 1) | word_at(wi + 2) | word_at(wi + 3) == 0
        {
            wi += kernels::LANES;
            continue;
        }
        cur = word_at(wi);
        base = wi * WORD_BITS;
        wi += 1;
    })
}

/// Fixed-capacity bitset indexed by [`CandidateId`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set with capacity for `len` candidates.
    pub fn new(len: usize) -> Self {
        Self { len, words: vec![0; len.div_ceil(WORD_BITS)] }
    }

    /// Creates a set with every bit in `0..len` set.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a set from an iterator of ids.
    pub fn from_ids(len: usize, ids: impl IntoIterator<Item = CandidateId>) -> Self {
        let mut s = Self::new(len);
        for id in ids {
            s.insert(id);
        }
        s
    }

    #[inline]
    fn trim(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Capacity (the universe size `|C|`, not the number of set bits).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts an id. Returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: CandidateId) -> bool {
        let i = id.index();
        debug_assert!(i < self.len, "bit {i} out of capacity {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes an id. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, id: CandidateId) -> bool {
        let i = id.index();
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: CandidateId) -> bool {
        let i = id.index();
        if i >= self.len {
            return false;
        }
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Number of set bits (`|I|`).
    #[inline]
    pub fn count(&self) -> usize {
        kernels::count(&self.words)
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        kernels::is_zero(&self.words)
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Size of the intersection with `other`.
    ///
    /// Used for the symmetric-difference distance `Δ` of Algorithm 3 and for
    /// co-occurrence counting in information gain.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        kernels::and_count(&self.words, &other.words)
    }

    /// Whether the two sets share at least one element — an early-exit
    /// [`intersection_count`](BitSet::intersection_count)` > 0`.
    #[inline]
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        kernels::intersects(&self.words, &other.words)
    }

    /// `|self \ other|` without materializing the difference — one
    /// AND-NOT + popcount pass.
    #[inline]
    pub fn and_not_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        kernels::and_not_count(&self.words, &other.words)
    }

    /// Copies `other` into `self` without reallocating (capacities must
    /// match) — the scratch-buffer alternative to `clone()` in the
    /// sampler's per-step walk state.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        kernels::copy(&mut self.words, &other.words);
    }

    /// Iterates over the ids in `self Δ other` (symmetric difference) —
    /// the changed candidates between two instance snapshots.
    pub fn iter_xor<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = CandidateId> + 'a {
        debug_assert_eq!(self.len, other.len);
        iter_words(self.words.len(), move |wi| self.words[wi] ^ other.words[wi])
    }

    /// Iterates over the ids in `0..capacity` that are *not* set — the
    /// addable frontier when `self` is the union of instance, forbidden
    /// and blocked candidates.
    pub fn iter_unset(&self) -> impl Iterator<Item = CandidateId> + '_ {
        let len = self.len;
        iter_words(self.words.len(), move |wi| {
            let mut w = !self.words[wi];
            if (wi + 1) * WORD_BITS > len {
                w &= u64::MAX >> ((wi + 1) * WORD_BITS - len);
            }
            w
        })
    }

    /// Size of the symmetric difference `|A \ B| + |B \ A|` (the paper's
    /// repair-distance metric `Δ(A, B)` between instances).
    #[inline]
    pub fn symmetric_difference_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        kernels::xor_count(&self.words, &other.words)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        kernels::is_subset(&self.words, &other.words)
    }

    /// Whether the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        !self.intersects(other)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        kernels::or_inplace(&mut self.words, &other.words);
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        kernels::and_not_inplace(&mut self.words, &other.words);
    }

    /// Iterates over set bits in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = CandidateId> + '_ {
        iter_words(self.words.len(), move |wi| self.words[wi])
    }

    /// Collects the set bits into a vector.
    pub fn to_vec(&self) -> Vec<CandidateId> {
        self.iter().collect()
    }

    /// Raw word access for word-parallel algorithms (e.g. co-occurrence
    /// counting in `smn-core`). Bits beyond `capacity()` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Grows the capacity to `new_len` (no-op when already that large);
    /// new bits start unset. The online-arrival counterpart of
    /// [`collapse`](BitSet::collapse).
    pub fn grow(&mut self, new_len: usize) {
        if new_len > self.len {
            self.len = new_len;
            self.words.resize(new_len.div_ceil(WORD_BITS), 0);
        }
    }

    /// Removes the *position* `id` from the universe: bit `id` is dropped
    /// and every higher bit shifts down by one, mirroring the dense-id
    /// compaction of candidate retirement. Returns whether the dropped bit
    /// was set.
    pub fn collapse(&mut self, id: CandidateId) -> bool {
        let i = id.index();
        assert!(i < self.len, "collapse of bit {i} out of capacity {}", self.len);
        let was = self.contains(id);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let low = self.words[w] & ((1u64 << b) - 1);
        let high = if b == WORD_BITS - 1 { 0 } else { (self.words[w] >> (b + 1)) << b };
        self.words[w] = low | high;
        for j in (w + 1)..self.words.len() {
            self.words[j - 1] |= (self.words[j] & 1) << (WORD_BITS - 1);
            self.words[j] >>= 1;
        }
        self.len -= 1;
        self.words.truncate(self.len.div_ceil(WORD_BITS));
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<CandidateId> {
        v.iter().map(|&i| CandidateId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(CandidateId(0)));
        assert!(s.insert(CandidateId(64)));
        assert!(s.insert(CandidateId(129)));
        assert!(!s.insert(CandidateId(129)), "second insert is a no-op");
        assert!(s.contains(CandidateId(64)));
        assert!(!s.contains(CandidateId(63)));
        assert_eq!(s.count(), 3);
        assert!(s.remove(CandidateId(64)));
        assert!(!s.remove(CandidateId(64)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn out_of_capacity_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(CandidateId(1000)));
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert_eq!(s.iter().count(), 70);
        let s = BitSet::full(64);
        assert_eq!(s.count(), 64);
        let s = BitSet::full(0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = BitSet::from_ids(200, ids(&[5, 199, 64, 63, 0]));
        assert_eq!(s.to_vec(), ids(&[0, 5, 63, 64, 199]));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_ids(100, ids(&[1, 2, 3, 70]));
        let b = BitSet::from_ids(100, ids(&[2, 3, 4]));
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.symmetric_difference_count(&b), 3);
        assert!(!a.is_subset(&b));
        assert!(BitSet::from_ids(100, ids(&[2, 3])).is_subset(&b));
        assert!(BitSet::new(100).is_subset(&b));
        assert!(a.is_disjoint(&BitSet::from_ids(100, ids(&[9]))));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), ids(&[1, 2, 3, 4, 70]));

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), ids(&[1, 70]));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = BitSet::from_ids(100, ids(&[1, 2]));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn symmetric_difference_is_metric_like() {
        let a = BitSet::from_ids(50, ids(&[1, 2]));
        let b = BitSet::from_ids(50, ids(&[3, 4]));
        assert_eq!(a.symmetric_difference_count(&a), 0);
        assert_eq!(a.symmetric_difference_count(&b), 4);
        assert_eq!(b.symmetric_difference_count(&a), 4);
    }

    #[test]
    fn intersects_and_and_not_count() {
        let a = BitSet::from_ids(100, ids(&[1, 2, 3, 70]));
        let b = BitSet::from_ids(100, ids(&[2, 3, 4]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&BitSet::from_ids(100, ids(&[4, 99]))));
        assert_eq!(a.and_not_count(&b), 2); // {1, 70}
        assert_eq!(b.and_not_count(&a), 1); // {4}
        assert_eq!(a.and_not_count(&a), 0);
    }

    #[test]
    fn copy_from_reuses_capacity() {
        let a = BitSet::from_ids(100, ids(&[1, 2, 70]));
        let mut b = BitSet::from_ids(100, ids(&[5]));
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn iter_xor_yields_symmetric_difference() {
        let a = BitSet::from_ids(200, ids(&[0, 5, 64, 199]));
        let b = BitSet::from_ids(200, ids(&[5, 64, 70]));
        assert_eq!(a.iter_xor(&b).collect::<Vec<_>>(), ids(&[0, 70, 199]));
        assert_eq!(a.iter_xor(&a).count(), 0);
    }

    #[test]
    fn iter_unset_respects_capacity() {
        let s = BitSet::from_ids(67, ids(&[0, 64, 66]));
        let unset: Vec<_> = s.iter_unset().collect();
        assert_eq!(unset.len(), 64);
        assert!(!unset.contains(&CandidateId(0)));
        assert!(!unset.contains(&CandidateId(66)));
        assert!(unset.contains(&CandidateId(65)));
        assert!(unset.iter().all(|c| c.index() < 67));
        // empty set: every id below capacity is unset
        assert_eq!(BitSet::new(70).iter_unset().count(), 70);
        // full set: nothing is unset
        assert_eq!(BitSet::full(70).iter_unset().count(), 0);
    }

    #[test]
    fn grow_extends_capacity_with_unset_bits() {
        let mut s = BitSet::from_ids(63, ids(&[0, 62]));
        s.grow(130);
        assert_eq!(s.capacity(), 130);
        assert_eq!(s.to_vec(), ids(&[0, 62]));
        s.insert(CandidateId(129));
        assert!(s.contains(CandidateId(129)));
        // shrinking via grow is a no-op
        s.grow(10);
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn collapse_shifts_higher_bits_down() {
        // ids straddling word boundaries, collapsing from the middle
        let mut s = BitSet::from_ids(200, ids(&[0, 5, 63, 64, 70, 128, 199]));
        assert!(!s.collapse(CandidateId(4)));
        assert_eq!(s.capacity(), 199);
        assert_eq!(s.to_vec(), ids(&[0, 4, 62, 63, 69, 127, 198]));
        assert!(s.collapse(CandidateId(62)));
        assert_eq!(s.to_vec(), ids(&[0, 4, 62, 68, 126, 197]));
        // collapse of the last position
        assert!(s.collapse(CandidateId(197)));
        assert_eq!(s.to_vec(), ids(&[0, 4, 62, 68, 126]));
    }

    #[test]
    fn collapse_matches_rebuild_reference() {
        // differential against an id-remapped rebuild, across word sizes
        let mut state = 0x9E37_79B9u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 63, 64, 65, 130] {
            let members: Vec<u32> = (0..n as u32).filter(|_| next() % 3 == 0).collect();
            for victim in [0u32, (n as u32) / 2, n as u32 - 1] {
                let mut s = BitSet::from_ids(n, ids(&members));
                let was = s.collapse(CandidateId(victim));
                assert_eq!(was, members.contains(&victim));
                let expect: Vec<u32> = members
                    .iter()
                    .filter(|&&m| m != victim)
                    .map(|&m| if m > victim { m - 1 } else { m })
                    .collect();
                assert_eq!(s.to_vec(), ids(&expect));
                assert_eq!(s.capacity(), n - 1);
            }
        }
    }

    #[test]
    fn words_expose_raw_bits() {
        let s = BitSet::from_ids(65, ids(&[0, 64]));
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[0], 1);
        assert_eq!(s.words()[1], 1);
    }
}
