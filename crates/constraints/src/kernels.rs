//! Wide word-level kernels shared by every bit-parallel hot path.
//!
//! The Eq. 4/5 machinery spends its time in a handful of primitive loops
//! over `&[u64]` slices: AND/AND-NOT/XOR + popcount, intersection tests,
//! subset tests and bulk copies. On stable Rust (no `std::simd`) the way
//! to reach the hardware ceiling is manual unrolling: each kernel walks
//! the slices in blocks of [`LANES`] = 4 words (256 bits) with four
//! independent accumulators, so the four popcounts per block form
//! separate dependency chains the CPU can retire in parallel. The tail
//! (`len % LANES` words) is handled by an explicit scalar epilogue; no
//! kernel ever reads past the slices.
//!
//! The kernels are compiled for the baseline target, where `count_ones`
//! is a software bit-count. CPU features are dispatched at runtime by
//! the callers whose loops dominate: the Eq. 5 gain kernel of `smn-core`
//! runs its body in a `popcnt`-enabled instantiation (into which
//! [`and_count`] is always inlined), and the sample-matrix column filter
//! in a BMI2 one (`PEXT`). Both instantiations compute the same integers
//! as the portable code.
//!
//! Callers guarantee the usual [`BitSet`](crate::BitSet) invariant: bits
//! beyond the logical length are zero in every word, so popcounts need no
//! masking here. The scalar reference implementations live in the
//! `scalar` submodule (compiled only for tests) and every kernel is
//! differential-tested against them, including lengths that are not
//! multiples of 64 or of the 256-bit lane width.

/// Words per unrolled block (4 × u64 = 256 bits).
pub const LANES: usize = 4;

/// Popcount of `a` — `Σ count_ones(a[i])`.
#[inline]
pub fn count(a: &[u64]) -> usize {
    let mut chunks = a.chunks_exact(LANES);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for w in chunks.by_ref() {
        c0 += w[0].count_ones() as usize;
        c1 += w[1].count_ones() as usize;
        c2 += w[2].count_ones() as usize;
        c3 += w[3].count_ones() as usize;
    }
    let tail: usize = chunks.remainder().iter().map(|w| w.count_ones() as usize).sum();
    c0 + c1 + c2 + c3 + tail
}

/// Popcount of `a & b` — the innermost loop of the Eq. 4/5 gain split
/// for rows longer than 8 words (shorter rows get fixed-width unrolled
/// loops there). Always inlined, so a caller compiled with hardware
/// popcount (the gain kernel's `popcnt` instantiation) gets it in this
/// loop too.
#[inline(always)]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        c0 += (x[0] & y[0]).count_ones() as usize;
        c1 += (x[1] & y[1]).count_ones() as usize;
        c2 += (x[2] & y[2]).count_ones() as usize;
        c3 += (x[3] & y[3]).count_ones() as usize;
    }
    let tail: usize =
        ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| (x & y).count_ones() as usize).sum();
    c0 + c1 + c2 + c3 + tail
}

/// Popcount of `a & !b` (`|A \ B|` without materializing the difference).
#[inline]
pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        c0 += (x[0] & !y[0]).count_ones() as usize;
        c1 += (x[1] & !y[1]).count_ones() as usize;
        c2 += (x[2] & !y[2]).count_ones() as usize;
        c3 += (x[3] & !y[3]).count_ones() as usize;
    }
    let tail: usize = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| (x & !y).count_ones() as usize)
        .sum();
    c0 + c1 + c2 + c3 + tail
}

/// Popcount of `a ^ b` (the symmetric-difference distance `Δ(A, B)`).
#[inline]
pub fn xor_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        c0 += (x[0] ^ y[0]).count_ones() as usize;
        c1 += (x[1] ^ y[1]).count_ones() as usize;
        c2 += (x[2] ^ y[2]).count_ones() as usize;
        c3 += (x[3] ^ y[3]).count_ones() as usize;
    }
    let tail: usize =
        ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| (x ^ y).count_ones() as usize).sum();
    c0 + c1 + c2 + c3 + tail
}

/// Whether `a & b` has any set bit. One OR-combined block per iteration
/// keeps a single branch per 256 bits while still exiting early.
#[inline]
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        if (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]) != 0 {
            return true;
        }
    }
    ca.remainder().iter().zip(cb.remainder()).any(|(x, y)| x & y != 0)
}

/// Whether every set bit of `a` is set in `b` (`a ⊆ b`).
#[inline]
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        if (x[0] & !y[0]) | (x[1] & !y[1]) | (x[2] & !y[2]) | (x[3] & !y[3]) != 0 {
            return false;
        }
    }
    ca.remainder().iter().zip(cb.remainder()).all(|(x, y)| x & !y == 0)
}

/// Whether no bit of `a` is set.
#[inline]
pub fn is_zero(a: &[u64]) -> bool {
    let mut chunks = a.chunks_exact(LANES);
    for w in chunks.by_ref() {
        if w[0] | w[1] | w[2] | w[3] != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&w| w == 0)
}

/// Copies `src` into `dst` (equal lengths) in unrolled blocks — the
/// scratch-buffer alternative to reallocating in per-step walk state.
#[inline]
pub fn copy(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    for (d, s) in cd.by_ref().zip(cs.by_ref()) {
        d[0] = s[0];
        d[1] = s[1];
        d[2] = s[2];
        d[3] = s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d = *s;
    }
}

/// In-place union: `dst |= src`.
#[inline]
pub fn or_inplace(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    for (d, s) in cd.by_ref().zip(cs.by_ref()) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d |= *s;
    }
}

/// In-place difference: `dst &= !src`.
#[inline]
pub fn and_not_inplace(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    for (d, s) in cd.by_ref().zip(cs.by_ref()) {
        d[0] &= !s[0];
        d[1] &= !s[1];
        d[2] &= !s[2];
        d[3] &= !s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d &= !*s;
    }
}

/// Writes the complement of the first `len_bits` bits of `src` into `dst`
/// (equal word lengths); bits at and above `len_bits` come out zero. The
/// mask-building kernel of view maintenance under a disapproval.
#[inline]
pub fn not_into(dst: &mut [u64], src: &[u64], len_bits: usize) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(len_bits <= dst.len() * 64);
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    for (d, s) in cd.by_ref().zip(cs.by_ref()) {
        d[0] = !s[0];
        d[1] = !s[1];
        d[2] = !s[2];
        d[3] = !s[3];
    }
    for (d, s) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d = !*s;
    }
    let extra = dst.len() * 64 - len_bits;
    if extra > 0 {
        if let Some(last) = dst.last_mut() {
            *last &= u64::MAX >> extra;
        }
    }
}

/// In-place 64×64 bit-matrix transpose (the recursive block-swap of
/// Hacker's Delight §7-3, restated for LSB-0 bit order). Bit `j` of output
/// row `i` is bit `i` of input row `j`. Used to turn batches of sample
/// rows into per-candidate membership columns without per-bit scatter.
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    // at each scale j, swap the high-j-bit half of row k with the
    // low-j-bit half of row k+j (the off-diagonal quadrants of each
    // 2j×2j block); m masks the low half at the current scale
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Scalar reference implementations of every kernel, kept as differential
/// oracles for the unrolled versions. Compiled for tests only.
#[cfg(test)]
pub mod scalar {
    pub fn count(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as usize).sum()
    }
    pub fn and_not_count(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x & !y).count_ones() as usize).sum()
    }
    pub fn xor_count(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
    }
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }
    pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }
    pub fn is_zero(a: &[u64]) -> bool {
        a.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Word lengths that exercise every tail shape: empty, sub-block,
    /// exact blocks, and blocks-plus-tail.
    fn word_vecs() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
        (0usize..=13).prop_flat_map(|n| {
            (
                prop::collection::vec(any::<u64>(), n..n + 1),
                prop::collection::vec(any::<u64>(), n..n + 1),
            )
        })
    }

    proptest! {
        #[test]
        fn wide_kernels_match_scalar_oracles(ab in word_vecs()) {
            let (a, b) = ab;
            prop_assert_eq!(count(&a), scalar::count(&a));
            prop_assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b));
            prop_assert_eq!(and_not_count(&a, &b), scalar::and_not_count(&a, &b));
            prop_assert_eq!(xor_count(&a, &b), scalar::xor_count(&a, &b));
            prop_assert_eq!(intersects(&a, &b), scalar::intersects(&a, &b));
            prop_assert_eq!(is_subset(&a, &b), scalar::is_subset(&a, &b));
            prop_assert_eq!(is_zero(&a), scalar::is_zero(&a));
        }

        #[test]
        fn wide_mutators_match_word_loops(ab in word_vecs()) {
            let (a, b) = ab;
            let mut wide = a.clone();
            copy(&mut wide, &b);
            prop_assert_eq!(&wide, &b);

            let mut wide = a.clone();
            or_inplace(&mut wide, &b);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            prop_assert_eq!(&wide, &expect);

            let mut wide = a.clone();
            and_not_inplace(&mut wide, &b);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
            prop_assert_eq!(&wide, &expect);
        }

        #[test]
        fn transpose64_matches_bit_loop(rows in prop::collection::vec(any::<u64>(), 64..65)) {
            let mut block = [0u64; 64];
            block.copy_from_slice(&rows);
            transpose64(&mut block);
            for (i, &column) in block.iter().enumerate() {
                for (j, &row) in rows.iter().enumerate() {
                    prop_assert_eq!(column >> j & 1, row >> i & 1, "bit ({},{})", i, j);
                }
            }
            // a second transpose is the identity
            transpose64(&mut block);
            prop_assert_eq!(&block[..], &rows[..]);
        }

        #[test]
        fn not_into_masks_the_tail(ab in word_vecs(), bits_off in 0usize..64) {
            let (a, _) = ab;
            let total = a.len() * 64;
            let len_bits = total.saturating_sub(bits_off);
            let mut dst = vec![0u64; a.len()];
            not_into(&mut dst, &a, len_bits);
            for i in 0..total {
                let got = dst[i / 64] >> (i % 64) & 1;
                let src = a[i / 64] >> (i % 64) & 1;
                if i < len_bits {
                    prop_assert_eq!(got, src ^ 1, "bit {} below len must flip", i);
                } else {
                    prop_assert_eq!(got, 0, "bit {} past len must be zero", i);
                }
            }
        }
    }

    #[test]
    fn block_boundaries_are_exact() {
        // 4-word blocks: lengths 3, 4, 5 straddle the unroll boundary.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 12] {
            let a: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let b: Vec<u64> = (0..n as u64).map(|i| !i).collect();
            assert_eq!(and_count(&a, &b), scalar::and_count(&a, &b), "n={n}");
            assert_eq!(count(&a), scalar::count(&a), "n={n}");
        }
    }
}
