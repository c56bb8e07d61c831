//! The cross-round information-gain cache behind Eq. 5 question
//! selection.
//!
//! Every selection step of the pay-as-you-go loop is an argmax of
//! information gain over the uncertain pool, and a fresh scan prices
//! that at `O(|C|)` kernel work per question. The component
//! factorization (PR 3) proves more: a gain is a pure function of the
//! owning shard's sample matrix and probabilities, so an assertion
//! leaves every *other* shard's gains bit-identical. This module turns
//! that theorem into an incremental cache:
//!
//! * the network stamps each shard with a **mutation epoch** — its own
//!   mutation generation at the shard's last change, re-stamped whenever
//!   the shard's state actually changes (integrated assertion,
//!   commit-lane install) and reset wholesale on structural evolution
//!   (extend / retire, which renumber shards);
//! * [`GainCache`] holds, per shard, the uncertain members with their
//!   gains and the shard maximum, keyed by the epoch they were computed
//!   at;
//! * [`GainSource::refresh_gain_cache`] recomputes **only the dirty
//!   shards** (epoch mismatch) through the very same batch-gain kernel a
//!   fresh scan would use, so cached values are bit-identical to a fresh
//!   scan by construction;
//! * [`GainSource::cached_gain_window`] then materializes just the
//!   argmax *window* — every candidate within the selection kernel's
//!   tie tolerance of the global maximum — in ascending id order.
//!
//! Feeding that window to [`scored_argmax`](crate::selection::scored_argmax)
//! is provably equivalent to feeding it the full pool: the kernel's
//! running best only ever clears on a score more than `1e-12` above it,
//! so its final tie set is contained in
//! `{c | gain(c) ≥ max − 2·1e-12}` — exactly the window — and
//! filtering a pool to any order-preserving superset of the final tie
//! set that still contains the last "clearing" element reproduces the
//! identical tie set, best score and single RNG draw. Selection through
//! the cache therefore replays a fresh-scan selection **trace for
//! trace**, RNG stream included; the differential and property suites
//! certify exactly that.
//!
//! Each network owns its cache, and a fork starts with an empty one, so
//! an entry is only ever read by the network that computed it. A
//! network's generation only grows, so no two states of one shard carry
//! the same epoch, and a hit is always a value computed against exactly
//! the reader's state. Epochs only ever decide *hit or miss*, never a
//! value, so determinism is unconditional.

use crate::selection::TIE_EPSILON;
use smn_schema::CandidateId;
use std::sync::Mutex;

/// One shard's cached gains: the uncertain members (ascending id) with
/// their Eq. 5 gains, the shard maximum, and the epoch the values were
/// computed at (`None` = never filled).
#[derive(Debug, Clone, Default)]
struct ShardGains {
    epoch: Option<u64>,
    ids: Vec<CandidateId>,
    gains: Vec<f64>,
    max_gain: f64,
}

/// The per-network gain cache; see the module docs for the contract.
/// Its network owns it behind a `Mutex`, which makes concurrent refreshes
/// through a shared reference safe.
#[derive(Debug, Default)]
pub struct GainCache {
    /// The structure epoch the shard vector below belongs to (`None` =
    /// never filled). Evolution renumbers shards, so a mismatch drops
    /// everything.
    structure_epoch: Option<u64>,
    shards: Vec<ShardGains>,
}

impl GainCache {
    fn lookup(&self, k: usize, epoch: u64, c: CandidateId) -> Option<f64> {
        let s = self.shards.get(k)?;
        if s.epoch != Some(epoch) {
            return None;
        }
        s.ids.binary_search(&c).ok().map(|j| s.gains[j])
    }
}

/// Recovers the guarded value even if a panicking holder poisoned the
/// lock — the cache holds only derived data, always safe to reuse or
/// recompute.
fn lock(cache: &Mutex<GainCache>) -> std::sync::MutexGuard<'_, GainCache> {
    cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A model that can price Eq. 5 gains incrementally.
///
/// Implementors ([`ProbabilisticNetwork`](crate::ProbabilisticNetwork),
/// the distributed coordinator) supply the epoch bookkeeping and the
/// authoritative batch-gain kernel; the provided methods implement the
/// refresh / window / gather logic once, so every consumer — the core
/// selection strategy, the service dispatcher, the coordinator — shares
/// one definition of "cached selection".
pub trait GainSource {
    /// This model's cache. Must never be locked by the required methods
    /// below (the provided methods hold it across `compute_gains`).
    fn gain_cache(&self) -> &Mutex<GainCache>;

    /// The current structure epoch (reset by extend / retire).
    fn gain_structure_epoch(&self) -> u64;

    /// Per-shard mutation epochs, indexed by shard id.
    fn gain_shard_epochs(&self) -> &[u64];

    /// The shard owning `c` (component id; `0` under the whole partition).
    fn gain_shard_of(&self, c: CandidateId) -> usize;

    /// Shard `k`'s uncertain members (`0 < p < 1`), ascending id.
    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId>;

    /// The authoritative batch gains, aligned with `pool` — the same
    /// values a fresh scan computes, by definition.
    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64>;

    /// Brings the cache up to date with this model: full rebuild on a
    /// structure-epoch mismatch, otherwise one batch-kernel call over
    /// the dirty shards' uncertain members only. Values land verbatim —
    /// gains are pure functions of shard state, and `compute_gains` is
    /// documented independent of pool composition, so a refreshed cache
    /// is bit-identical to a fresh scan.
    fn refresh_gain_cache(&self) {
        let structure = self.gain_structure_epoch();
        let epochs = self.gain_shard_epochs();
        let mut cache = lock(self.gain_cache());
        if cache.structure_epoch != Some(structure) {
            cache.structure_epoch = Some(structure);
            cache.shards.clear();
            cache.shards.resize(epochs.len(), ShardGains::default());
        }
        let dirty: Vec<usize> =
            (0..epochs.len()).filter(|&k| cache.shards[k].epoch != Some(epochs[k])).collect();
        if dirty.is_empty() {
            return;
        }
        let mut pool: Vec<CandidateId> = Vec::new();
        let mut ranges: Vec<(usize, usize, usize)> = Vec::with_capacity(dirty.len());
        for &k in &dirty {
            let start = pool.len();
            pool.extend(self.gain_shard_uncertain(k));
            ranges.push((k, start, pool.len()));
        }
        let gains = if pool.is_empty() { Vec::new() } else { self.compute_gains(&pool) };
        for (k, start, end) in ranges {
            let s = &mut cache.shards[k];
            s.ids = pool[start..end].to_vec();
            s.gains = gains[start..end].to_vec();
            s.max_gain = s.gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            s.epoch = Some(epochs[k]);
        }
    }

    /// The lazy argmax window: every uncertain candidate whose cached
    /// gain lies within `2·TIE_EPSILON` of the global maximum, in
    /// ascending id order, with its gain. Shards whose maximum falls
    /// below the cut are skipped wholesale — that is the
    /// `O(|C_dirty| + window)` selection. Empty iff no candidate is
    /// uncertain. Feeding the window to `scored_argmax` reproduces the
    /// full-pool result exactly (see the module docs for the proof
    /// sketch).
    fn cached_gain_window(&self) -> (Vec<CandidateId>, Vec<f64>) {
        self.refresh_gain_cache();
        let cache = lock(self.gain_cache());
        let m = cache.shards.iter().map(|s| s.max_gain).fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            return (Vec::new(), Vec::new());
        }
        let cut = m - 2.0 * TIE_EPSILON;
        let mut window: Vec<(CandidateId, f64)> = Vec::new();
        for s in &cache.shards {
            if s.max_gain < cut {
                continue;
            }
            for (&c, &g) in s.ids.iter().zip(&s.gains) {
                if g >= cut {
                    window.push((c, g));
                }
            }
        }
        window.sort_unstable_by_key(|&(c, _)| c);
        window.into_iter().unzip()
    }

    /// Batch gains for an arbitrary pool, served from the cache —
    /// values identical to [`compute_gains`](Self::compute_gains) by
    /// construction. Pool candidates outside the cache (not currently
    /// uncertain) fall back to one authoritative batch call, so the
    /// method is total either way.
    fn cached_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.refresh_gain_cache();
        let epochs = self.gain_shard_epochs();
        let mut out = vec![0.0; pool.len()];
        let mut missing: Vec<usize> = Vec::new();
        {
            let cache = lock(self.gain_cache());
            for (pos, &c) in pool.iter().enumerate() {
                let k = self.gain_shard_of(c);
                match epochs.get(k).and_then(|&e| cache.lookup(k, e, c)) {
                    Some(g) => out[pos] = g,
                    None => missing.push(pos),
                }
            }
        }
        if !missing.is_empty() {
            let stragglers: Vec<CandidateId> = missing.iter().map(|&p| pool[p]).collect();
            for (&pos, g) in missing.iter().zip(self.compute_gains(&stragglers)) {
                out[pos] = g;
            }
        }
        out
    }

    /// A warm-only point lookup: `Some(gain)` iff the cache already
    /// holds `c`'s shard at the current epoch. Never triggers a
    /// refresh — the single-candidate query path uses this so a cold
    /// read costs exactly what it always did.
    fn warm_cached_gain(&self, c: CandidateId) -> Option<f64> {
        let cache = lock(self.gain_cache());
        if cache.structure_epoch != Some(self.gain_structure_epoch()) {
            return None;
        }
        let k = self.gain_shard_of(c);
        let epoch = *self.gain_shard_epochs().get(k)?;
        cache.lookup(k, epoch, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_misses_everything() {
        // a fresh network stamps every shard 0, which never-filled misses
        let cache = GainCache::default();
        assert_eq!(cache.lookup(0, 0, CandidateId(0)), None);
        assert_eq!(cache.lookup(0, 1, CandidateId(0)), None);
        assert_eq!(cache.lookup(7, 1, CandidateId(3)), None);
    }
}
