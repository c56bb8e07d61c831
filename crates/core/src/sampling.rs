//! Non-uniform sampling of matching instances (Algorithm 3) and the
//! view-maintained sample store (§III-B).
//!
//! The sampler explores the instance space with a random walk: from the
//! current instance, a random unasserted candidate is added, the resulting
//! violations are repaired (Algorithm 4), and the instance is re-maximized
//! (Definition 1 demands maximality; see DESIGN.md). The jump is *accepted*
//! with probability `1 − e^{−Δ}` where `Δ` is the symmetric difference to
//! the previous instance — the simulated-annealing rule of the paper that
//! prefers long jumps and so escapes high-density regions.
//!
//! The walk state lives in reusable [`Scratch`] buffers (no per-step
//! clones) that belong to one sampling pass: a pass allocates them, and
//! nothing in them survives it. Every fill runs this one walk on the
//! caller thread, so the store content is a pure function of the config
//! and the feedback.
//!
//! The store is split copy-on-write: the samples (instances, counts,
//! matrix) live in an immutable `Arc`-shared snapshot, and the store
//! itself adds only the RNG, the config and the exhaustion flag. Cloning
//! a store — the engine of
//! [`ProbabilisticNetwork::fork`](crate::ProbabilisticNetwork::fork) —
//! copies that pointer and those few words; the snapshot is copied only
//! by the first mutation after a fork (`Arc::make_mut`), and the copy is
//! the samples alone. Deduplication uses a hash index that the recording
//! code builds and drops (a fill pass, a constructor, disapproval
//! re-insertion), so no copy ever carries one.
//!
//! [`SampleStore`] keeps the *distinct* instances found (Ω\*) twice: as a
//! list of instance bitsets and as a transposed candidate×sample bit
//! matrix ([`SampleMatrix`]) that turns probability recomputation and the
//! co-occurrence pass of information gain into row-AND popcounts. Under a
//! new assertion the store is view-maintained rather than resampled:
//! approval of `c` retains the instances containing `c`, disapproval those
//! without it. (The paper prints the same right-hand side for both cases —
//! an obvious typo; we implement the semantically correct filter.) When
//! fewer than `n_min` samples survive, the store is refilled; if two
//! consecutive refills both fail to reach `n_min`, the store concludes
//! `Ω* = Ω` and marks itself *exhausted* — probabilities are then exact
//! (Eq. 1).

use crate::feedback::Feedback;
use crate::instance::{maximize_in, repair_in, Scratch};
use crate::network::MatchingNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smn_constraints::{kernels, BitSet, ConflictIndex};
use smn_schema::CandidateId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration of the Algorithm 3 sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Number of sample emissions per (re)fill (`n` of Algorithm 3).
    pub n_samples: usize,
    /// Random-walk steps per emission (`k` of Algorithm 3).
    pub walk_steps: usize,
    /// Tolerance threshold: refill when fewer distinct samples survive view
    /// maintenance.
    pub n_min: usize,
    /// RNG seed (sampling is deterministic given the seed and the
    /// assertion sequence).
    pub seed: u64,
    /// Simulated-annealing acceptance (`1 − e^{−Δ}`). Disabling it accepts
    /// every jump — a pure random walk; ablation benches quantify what the
    /// acceptance rule buys.
    pub anneal: bool,
    /// Ignored: every fill runs the single walk of Algorithm 3. The field
    /// remains for configuration compatibility (the repository benchmark
    /// names it) and still round-trips through snapshots; it never
    /// affects results.
    pub chains: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { n_samples: 1000, walk_steps: 4, n_min: 200, seed: 0xC0FFEE, anneal: true, chains: 1 }
    }
}

/// Transposed sample matrix: one bit row per candidate, one column per
/// distinct sample, maintained by [`SampleStore`].
///
/// Row-AND popcounts replace the per-instance membership scans of
/// probability recomputation and the O(S·k̄²) co-occurrence pass of
/// information gain with word-parallel operations.
#[derive(Debug, Clone)]
pub struct SampleMatrix {
    /// Row-major membership words: row `c` occupies
    /// `words[c·stride .. c·stride + cols.div_ceil(64)]`, the rest of each
    /// stride is zero padding. One contiguous allocation keeps the
    /// copy-on-write clone of a store a single `memcpy` instead of one
    /// heap allocation per candidate row, and row scans pointer-free.
    words: Vec<u64>,
    /// Words allocated per row (doubles as columns grow).
    stride: usize,
    /// Number of candidate rows.
    n: usize,
    /// Number of sample columns.
    cols: usize,
}

impl SampleMatrix {
    fn new(n: usize) -> Self {
        Self { words: Vec::new(), stride: 0, n, cols: 0 }
    }

    /// Words of each row currently holding live columns.
    #[inline]
    fn used_words(&self) -> usize {
        self.cols.div_ceil(64)
    }

    /// Appends one instance as a new column, bit by bit: the scalar
    /// oracle of [`append_samples`](Self::append_samples).
    #[cfg(test)]
    fn push_sample(&mut self, inst: &BitSet) {
        let (w, b) = (self.cols / 64, self.cols % 64);
        if b == 0 && w == self.stride {
            // grow the per-row capacity geometrically and re-stride: one
            // O(n·stride) copy per doubling keeps pushes amortized O(n/64)
            let new_stride = (self.stride * 2).max(1);
            let mut words = vec![0u64; self.n * new_stride];
            for c in 0..self.n {
                words[c * new_stride..c * new_stride + self.stride]
                    .copy_from_slice(&self.words[c * self.stride..(c + 1) * self.stride]);
            }
            self.words = words;
            self.stride = new_stride;
        }
        for c in inst.iter() {
            self.words[c.index() * self.stride + w] |= 1 << b;
        }
        self.cols += 1;
    }

    /// Appends the given instances as new columns in one batched pass:
    /// each 64-sample group is turned into per-candidate column words by a
    /// 64×64 bit transpose and OR-merged at the current column offset.
    ///
    /// Equivalent to `push_sample` per instance but touches each candidate
    /// row O(groups) times instead of once per set bit — the per-bit
    /// scatter of `push_sample` (one random-access RMW per instance member)
    /// is what dominated sampling fills once instances grew past a few
    /// hundred members.
    fn append_samples(&mut self, new: &[BitSet]) {
        if new.is_empty() {
            return;
        }
        let total = self.cols + new.len();
        let needed = total.div_ceil(64);
        if needed > self.stride {
            let mut new_stride = self.stride.max(1);
            while new_stride < needed {
                new_stride *= 2;
            }
            let mut words = vec![0u64; self.n * new_stride];
            for c in 0..self.n {
                words[c * new_stride..c * new_stride + self.stride]
                    .copy_from_slice(&self.words[c * self.stride..(c + 1) * self.stride]);
            }
            self.words = words;
            self.stride = new_stride;
        }
        let row_words = self.n.div_ceil(64);
        let mut block = [0u64; 64];
        for (g, chunk) in new.chunks(64).enumerate() {
            let p = self.cols + g * 64;
            let (q, r) = (p / 64, p % 64);
            for wi in 0..row_words {
                for (j, inst) in chunk.iter().enumerate() {
                    block[j] = inst.words()[wi];
                }
                block[chunk.len()..].fill(0);
                kernels::transpose64(&mut block);
                let lanes = (self.n - wi * 64).min(64);
                for (b, &v) in block[..lanes].iter().enumerate() {
                    if v == 0 {
                        continue;
                    }
                    let row = (wi * 64 + b) * self.stride;
                    self.words[row + q] |= v << r;
                    if r != 0 {
                        let hi = v >> (64 - r);
                        if hi != 0 {
                            self.words[row + q + 1] |= hi;
                        }
                    }
                }
            }
        }
        self.cols = total;
    }

    /// Number of candidates (rows).
    pub fn candidate_count(&self) -> usize {
        self.n
    }

    /// Number of samples (columns).
    pub fn sample_count(&self) -> usize {
        self.cols
    }

    /// Raw membership row of candidate `c`; bits beyond
    /// [`sample_count`](SampleMatrix::sample_count) are zero.
    #[inline]
    pub fn row(&self, c: CandidateId) -> &[u64] {
        let start = c.index() * self.stride;
        &self.words[start..start + self.used_words()]
    }

    /// In how many samples `c` appears (one wide popcount pass).
    #[inline]
    pub fn membership_count(&self, c: CandidateId) -> usize {
        kernels::count(self.row(c))
    }

    /// In how many samples `a` and `b` co-occur (one AND+popcount pass).
    #[inline]
    pub fn co_count(&self, a: CandidateId, b: CandidateId) -> usize {
        row_and_count(self.row(a), self.row(b))
    }

    /// Keeps only the columns whose bit is set in `mask` (one word per 64
    /// columns, like the rows themselves), compacting every row in place
    /// and preserving column order.
    ///
    /// This is the view-maintenance kernel: filtering the store on an
    /// assertion reduces to one row-wise bit-compaction pass (sequential
    /// word operations) instead of re-inserting every surviving sample
    /// column by column (scattered single-bit writes across all rows).
    fn filter_columns(&mut self, mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.used_words());
        let keep = kernels::count(mask);
        if keep == self.cols {
            return; // full-survival mask: the compaction is the identity
        }
        let used = self.used_words();
        if keep == 0 {
            for c in 0..self.n {
                let start = c * self.stride;
                self.words[start..start + used].fill(0);
            }
            self.cols = 0;
            return;
        }
        let kept_words = keep.div_ceil(64);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: the bmi2 feature was just confirmed at runtime
            unsafe {
                compact_rows_bmi2(&mut self.words, self.stride, used, kept_words, mask);
            }
            self.cols = keep;
            return;
        }
        compact_rows(&mut self.words, self.stride, used, kept_words, mask, pext64);
        self.cols = keep;
    }
}

/// The row-compaction loop of [`SampleMatrix::filter_columns`], generic
/// over the bit-extract primitive so the BMI2 and portable paths share one
/// implementation. `words` is the strided row buffer; each row's live
/// words `[..used]` are compacted through `mask` and the tail up to
/// `kept_words..used` re-zeroed.
#[inline(always)]
fn compact_rows(
    words: &mut [u64],
    stride: usize,
    used: usize,
    kept_words: usize,
    mask: &[u64],
    pext: impl Fn(u64, u64) -> u64,
) {
    for row in words.chunks_exact_mut(stride) {
        let row = &mut row[..used];
        let mut out = 0u64;
        let mut filled: u32 = 0;
        let mut write = 0usize;
        for i in 0..row.len() {
            let v = pext(row[i], mask[i]);
            let k = mask[i].count_ones();
            out |= v << filled;
            if filled + k >= 64 {
                // output words never outrun input words, so `write ≤ i`
                // at the time of reading `row[i]` — in-place is safe
                row[write] = out;
                write += 1;
                let consumed = 64 - filled;
                out = if consumed < 64 { v >> consumed } else { 0 };
                filled = filled + k - 64;
            } else {
                filled += k;
            }
        }
        if filled > 0 {
            row[write] = out;
        }
        // bits beyond the new column count must stay zero
        row[kept_words..].fill(0);
    }
}

/// [`compact_rows`] with the hardware PEXT instruction — an order of
/// magnitude over the 6-round software compress, and the difference
/// between the column filter and the snapshot copy dominating a
/// view-maintenance assertion.
///
/// # Safety
/// The caller must have verified `bmi2` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
#[allow(unused_unsafe)]
unsafe fn compact_rows_bmi2(
    words: &mut [u64],
    stride: usize,
    used: usize,
    kept_words: usize,
    mask: &[u64],
) {
    compact_rows(words, stride, used, kept_words, mask, |x, m| unsafe {
        core::arch::x86_64::_pext_u64(x, m)
    });
}

/// Software PEXT (parallel bit extract): gathers the bits of `x` selected
/// by `mask` into the low bits of the result, preserving order. Hacker's
/// Delight §7-4 "compress", 64-bit (6 rounds).
fn pext64(x: u64, mask: u64) -> u64 {
    let mut x = x & mask;
    let mut m = mask;
    let mut mk = !m << 1;
    for i in 0..6 {
        let mut mp = mk ^ (mk << 1);
        mp ^= mp << 2;
        mp ^= mp << 4;
        mp ^= mp << 8;
        mp ^= mp << 16;
        mp ^= mp << 32;
        let mv = mp & m;
        m = (m ^ mv) | (mv >> (1 << i));
        let t = x & mv;
        x = (x ^ t) | (t >> (1 << i));
        mk &= !mp;
    }
    x
}

/// AND+popcount of two raw matrix rows (wide kernel). Always inlined, so
/// it picks up the target features of its caller (see the popcnt
/// instantiation of the gain kernel).
#[inline(always)]
pub fn row_and_count(a: &[u64], b: &[u64]) -> usize {
    kernels::and_count(a, b)
}

/// The view-maintained set Ω\* of distinct sampled matching instances,
/// with per-instance visit counts (persisted by snapshots).
///
/// Probability estimation weights the discovered instances uniformly:
/// Eq. 1 targets the *uniform* distribution over matching instances, and
/// empirically the walk's occupancy frequencies deviate from it far more
/// than the discovered-set uniform does (the annealing rule promotes
/// coverage, not uniform occupancy). Once the store is
/// [exhausted](SampleStore::is_exhausted) — `Ω* = Ω` — that estimate is
/// exactly Eq. 1.
#[derive(Debug, Clone)]
pub struct SampleStore {
    /// The immutable sample snapshot, shared across forks; every mutation
    /// goes through `Arc::make_mut`, so the first write after a fork
    /// copy-on-writes exactly this block and nothing before that.
    data: Arc<SampleData>,
    exhausted: bool,
    config: SamplerConfig,
    rng: StdRng,
}

/// The snapshot half of a [`SampleStore`]: the distinct instances Ω\*,
/// their visit counts and the transposed sample matrix — the samples and
/// nothing else.
///
/// A store clone (and with it
/// [`ProbabilisticNetwork::fork`](crate::ProbabilisticNetwork::fork))
/// copies one `Arc` pointer instead of this block, plus the RNG, the
/// config and the exhaustion flag, independent of the sample count and of
/// the network size. The first write to a shared snapshot copies exactly
/// these three vectors.
#[derive(Debug, Clone)]
struct SampleData {
    samples: Vec<BitSet>,
    counts: Vec<u64>,
    matrix: SampleMatrix,
}

/// A transient dedup index over [`SampleData::samples`]: instance →
/// position. The code that records builds one, records through it and
/// drops it, so a copy of the store never holds a second copy of its
/// samples.
type SeenIndex = HashMap<BitSet, usize>;

impl SampleData {
    /// Records `count` emissions of `inst`, looked up in `seen` (which
    /// must index `self.samples`): merges `count` into the existing entry
    /// or appends a new one in discovery order. Returns whether it was
    /// new.
    fn record(&mut self, seen: &mut SeenIndex, inst: &BitSet, count: u64) -> bool {
        // the matrix deliberately lags here: sync_matrix() appends all
        // columns recorded since the last sync in one transpose pass
        if let Some(&pos) = seen.get(inst) {
            self.counts[pos] += count;
            false
        } else {
            seen.insert(inst.clone(), self.samples.len());
            self.samples.push(inst.clone());
            self.counts.push(count);
            true
        }
    }
}

impl SampleStore {
    /// Creates an empty store and fills it for the given network/feedback.
    pub fn new(network: &MatchingNetwork, feedback: &Feedback, config: SamplerConfig) -> Self {
        Self::with_index(network.index(), feedback, config)
    }

    /// Index-level form of [`SampleStore::new`]: everything the sampler
    /// needs is the conflict structure, so per-shard stores of the
    /// component-sharded model can run on a restricted sub-index.
    /// `feedback` must be sized to `index.candidate_count()`.
    pub fn with_index(index: &ConflictIndex, feedback: &Feedback, config: SamplerConfig) -> Self {
        let mut store = Self::empty(index.candidate_count(), config);
        store.fill(index, feedback);
        store.sync_matrix();
        store
    }

    /// Builds an already-*exhausted* store directly from a complete
    /// enumeration of the matching instances (the exact path of small
    /// shards): probabilities derived from it are exact (Eq. 1) and view
    /// maintenance never triggers a refill.
    pub fn from_instances(
        candidate_count: usize,
        instances: impl IntoIterator<Item = BitSet>,
        config: SamplerConfig,
    ) -> Self {
        let mut store = Self::empty(candidate_count, config);
        let data = Arc::make_mut(&mut store.data);
        let mut seen = SeenIndex::new();
        for inst in instances {
            data.record(&mut seen, &inst, 1);
        }
        store.exhausted = true;
        store.sync_matrix();
        store
    }

    /// Builds a store pre-seeded with *carried-over* instances — matching
    /// instances salvaged from the stores of merged or split shards during
    /// network evolution — then fills normally. Every carried instance
    /// must already be a valid matching instance of `index` under
    /// `feedback`; duplicates collapse. Unlike
    /// [`from_instances`](SampleStore::from_instances) the carried set
    /// makes no completeness claim, so the store is *not* exhausted unless
    /// the fill pass concludes so (§III-B's two-failed-refills rule).
    pub fn with_carried(
        index: &ConflictIndex,
        feedback: &Feedback,
        config: SamplerConfig,
        carried: impl IntoIterator<Item = BitSet>,
    ) -> Self {
        let mut store = Self::empty(index.candidate_count(), config);
        let data = Arc::make_mut(&mut store.data);
        let mut seen = SeenIndex::new();
        for inst in carried {
            debug_assert!(index.is_consistent(&inst), "carried instance inconsistent");
            debug_assert!(feedback.respected_by(&inst), "carried instance breaks feedback");
            debug_assert!(
                index.is_maximal(&inst, feedback.disapproved()),
                "carried instance not maximal"
            );
            data.record(&mut seen, &inst, 1);
        }
        store.fill(index, feedback);
        store.sync_matrix();
        store
    }

    /// Extracts the serializable state of this store — the distinct
    /// instances in discovery order with their visit counts, plus the
    /// config and the exhaustion flag. The transposed matrix is derived and
    /// is *not* part of the state: [`from_state`](SampleStore::from_state)
    /// re-records the instances in the same order, which rebuilds it
    /// bit-for-bit.
    pub fn to_state(&self) -> crate::persist::StoreState {
        crate::persist::StoreState {
            config: self.config,
            candidate_count: self.data.matrix.candidate_count(),
            exhausted: self.exhausted,
            samples: self.data.samples.iter().map(|s| s.iter().map(|c| c.0).collect()).collect(),
            counts: self.data.counts.clone(),
        }
    }

    /// Rebuilds a store from [`to_state`](SampleStore::to_state) output:
    /// the instances are re-recorded in their stored order, so the sample
    /// list, visit counts and transposed matrix come back bit-identical
    /// and no re-sampling happens on load.
    ///
    /// The walk RNG is *not* serializable (the vendored `StdRng` exposes
    /// no state) and is freshly reseeded from `config.seed`; a store that
    /// refills after recovery may therefore walk differently than the
    /// uninterrupted run. Exhausted stores — the exact-enumeration regime
    /// of small shards — never refill, which is why the crash-recovery
    /// differential is certified there.
    pub fn from_state(state: &crate::persist::StoreState) -> Result<Self, String> {
        let n = state.candidate_count;
        if state.counts.len() != state.samples.len() {
            return Err(format!(
                "sample/count length mismatch: {} vs {}",
                state.samples.len(),
                state.counts.len()
            ));
        }
        let mut store = Self::empty(n, state.config);
        let data = Arc::make_mut(&mut store.data);
        let mut seen = SeenIndex::new();
        for (ids, &count) in state.samples.iter().zip(&state.counts) {
            if ids.iter().any(|&i| i as usize >= n) {
                return Err(format!("sample member out of range (candidate_count {n})"));
            }
            let inst = BitSet::from_ids(n, ids.iter().map(|&i| CandidateId(i)));
            if !data.record(&mut seen, &inst, count) {
                return Err("duplicate instance in serialized sample store".into());
            }
        }
        store.exhausted = state.exhausted;
        store.sync_matrix();
        Ok(store)
    }

    fn empty(n: usize, config: SamplerConfig) -> Self {
        Self {
            data: Arc::new(SampleData {
                samples: Vec::new(),
                counts: Vec::new(),
                matrix: SampleMatrix::new(n),
            }),
            exhausted: false,
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Restores the derived-state invariant: the transposed matrix covers
    /// every recorded sample (columns recorded since the last sync are
    /// appended in one batched transpose pass). Every mutation path ends
    /// here before the store is readable again. A no-op (no copy-on-write)
    /// when the matrix is already in sync.
    fn sync_matrix(&mut self) {
        if self.data.matrix.sample_count() != self.data.samples.len() {
            let data = Arc::make_mut(&mut self.data);
            let from = data.matrix.sample_count();
            data.matrix.append_samples(&data.samples[from..]);
        }
    }

    /// The distinct sampled instances.
    pub fn samples(&self) -> &[BitSet] {
        &self.data.samples
    }

    /// The transposed candidate×sample membership matrix, aligned with
    /// [`samples`](SampleStore::samples).
    pub fn matrix(&self) -> &SampleMatrix {
        &self.data.matrix
    }

    /// Number of distinct samples `|Ω*|`.
    pub fn len(&self) -> usize {
        self.data.samples.len()
    }

    /// Whether the store holds no samples (only possible for empty
    /// networks or contradictory feedback).
    pub fn is_empty(&self) -> bool {
        self.data.samples.is_empty()
    }

    /// Whether the store has concluded `Ω* = Ω` (all matching instances
    /// enumerated; probabilities are exact and resampling is pointless).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Runs one sampling pass (`n_samples` emissions) on the caller
    /// thread, recording every instance the walk visits.
    fn sample_pass(&mut self, index: &ConflictIndex, feedback: &Feedback) {
        // the walk buffers and the dedup index live for this pass only, so
        // no store copy carries them and no pass inherits another's frontier
        let n = index.candidate_count();
        let (mut scratch, mut next) = (Scratch::new(n), BitSet::new(n));
        let data = Arc::make_mut(&mut self.data);
        let mut seen: SeenIndex =
            data.samples.iter().enumerate().map(|(pos, s)| (s.clone(), pos)).collect();
        // start from a surviving sample if any, else from maximized F+
        let mut current = match data.samples.last() {
            Some(s) => s.clone(),
            None => {
                let mut seed_inst = feedback.approved().clone();
                debug_assert!(index.is_consistent(&seed_inst), "approved set must be consistent");
                maximize_in(
                    index,
                    &mut seed_inst,
                    feedback.disapproved(),
                    &mut self.rng,
                    &mut scratch,
                );
                seed_inst
            }
        };
        // the walk's start is itself a valid instance — record it
        data.record(&mut seen, &current, 1);
        for _ in 0..self.config.n_samples {
            walk(
                index,
                feedback,
                &self.config,
                &mut self.rng,
                &mut current,
                &mut next,
                &mut scratch,
            );
            data.record(&mut seen, &current, 1);
        }
    }

    /// Fills the store until `n_min` distinct samples exist or two
    /// consecutive passes fail to reach it (→ exhausted).
    fn fill(&mut self, index: &ConflictIndex, feedback: &Feedback) {
        if self.exhausted {
            return;
        }
        if index.candidate_count() == 0 {
            self.exhausted = true;
            return;
        }
        for _pass in 0..2 {
            if self.data.samples.len() >= self.config.n_min {
                return;
            }
            self.sample_pass(index, feedback);
        }
        if self.data.samples.len() < self.config.n_min {
            // two consecutive passes could not reach n_min: per §III-B the
            // store concludes that all matching instances were generated
            self.exhausted = true;
        }
    }

    /// View maintenance for a new assertion: filters the surviving samples
    /// and refills if necessary.
    ///
    /// Filtering is *exact* for approvals: every instance of the new Ω
    /// contains the candidate, was an instance before, and thus survives.
    ///
    /// For disapprovals, plain filtering (what the paper describes)
    /// under-approximates: an instance that was non-maximal solely because
    /// the now-disapproved `c` was addable becomes a matching instance yet
    /// is absent from the store. Such instances are, however, exactly the
    /// sets `J \ {c}` for dying instances `J ∋ c` that are maximal under
    /// the new feedback — any other newly-maximal `I` would have a legal
    /// single-candidate extension inside `J \ {c}`, contradicting its
    /// maximality. Re-inserting those keeps disapproval maintenance exact
    /// too (an improvement over the paper's filter; see DESIGN.md), so an
    /// exhausted store stays exhausted.
    ///
    /// The maximality of each `J \ {c}` is decided locally, from `c`'s
    /// conflicts alone ([`ConflictIndex::stays_maximal_without`]). That
    /// relies on the store invariant that every stored sample is a
    /// matching instance under the store's feedback before the assertion,
    /// which fill, the approval filter, re-insertion, evolution carry-over
    /// and exact enumeration all keep; snapshot restore trusts the
    /// persisted store to have been written by them. Debug builds
    /// cross-check every decision against the full blocked-set test.
    pub fn maintain(
        &mut self,
        network: &MatchingNetwork,
        feedback: &Feedback,
        candidate: CandidateId,
        approved: bool,
    ) {
        self.maintain_with_index(network.index(), feedback, candidate, approved);
    }

    /// Index-level form of [`SampleStore::maintain`] (see
    /// [`SampleStore::with_index`]).
    pub fn maintain_with_index(
        &mut self,
        index: &ConflictIndex,
        feedback: &Feedback,
        candidate: CandidateId,
        approved: bool,
    ) {
        // the matrix row of `candidate` is exactly the survivor mask
        // (complemented for disapprovals): filter columns row-wise. The
        // whole filter runs on a copy-on-write overlay of the snapshot, so
        // forked stores sharing the old snapshot are untouched.
        {
            let data = Arc::make_mut(&mut self.data);
            let cols = data.matrix.sample_count();
            let mask = if approved {
                data.matrix.row(candidate).to_vec()
            } else {
                let mut mask = vec![0u64; data.matrix.row(candidate).len()];
                kernels::not_into(&mut mask, data.matrix.row(candidate), cols);
                mask
            };
            data.matrix.filter_columns(&mask);
            // survivors compact in place (order preserved, no clones)
            let total = data.samples.len();
            let mut dying: Vec<(BitSet, u64)> = Vec::new();
            let mut write = 0usize;
            for read in 0..total {
                if data.samples[read].contains(candidate) == approved {
                    if write != read {
                        data.samples.swap(write, read);
                        data.counts.swap(write, read);
                    }
                    write += 1;
                } else if !approved {
                    // the slot's content is dead either way; keep it
                    // only when disapproval re-insertion needs it
                    dying.push((
                        std::mem::replace(&mut data.samples[read], BitSet::new(0)),
                        data.counts[read],
                    ));
                }
            }
            data.samples.truncate(write);
            data.counts.truncate(write);
            debug_assert_eq!(data.matrix.sample_count(), data.samples.len());
            // distinct dying `J` give distinct `J \ {c}`, so a re-inserted
            // instance can only collide with a survivor; the survivor
            // index is built on the first maximal one
            let mut survivors: Option<HashSet<&BitSet>> = None;
            let mut reinserted: Vec<(BitSet, u64)> = Vec::new();
            for (mut inst, count) in dying {
                inst.remove(candidate);
                // every stored sample is a matching instance under the
                // pre-assertion feedback, so the local check applies
                let maximal = index.stays_maximal_without(&inst, candidate, feedback.disapproved());
                debug_assert_eq!(maximal, index.is_maximal(&inst, feedback.disapproved()));
                if maximal
                    && !survivors
                        .get_or_insert_with(|| data.samples.iter().collect())
                        .contains(&inst)
                {
                    // the shrunken instance inherits its ancestor's
                    // weight; the closing sync_matrix() appends its column
                    reinserted.push((inst, count));
                }
            }
            for (inst, count) in reinserted {
                data.samples.push(inst);
                data.counts.push(count);
            }
        }
        if !self.exhausted && self.data.samples.len() < self.config.n_min {
            self.fill(index, feedback);
        }
        self.sync_matrix();
    }
}

/// One emission of Algorithm 3: `walk_steps` random-walk steps from
/// `current`, each adding a random candidate, repairing, re-maximizing,
/// and accepting with probability `1 − e^{−Δ}`. `next` and `scratch` are
/// reusable buffers; no allocation per step.
fn walk(
    index: &ConflictIndex,
    feedback: &Feedback,
    config: &SamplerConfig,
    rng: &mut StdRng,
    current: &mut BitSet,
    next: &mut BitSet,
    scratch: &mut Scratch,
) {
    let n = index.candidate_count();
    for _ in 0..config.walk_steps {
        // `Rand(C \ F− \ I_i)`: rejection-sample a few times (cheap when
        // most candidates qualify), then fall back to a counted scan
        let valid = |c: CandidateId| !feedback.disapproved().contains(c) && !current.contains(c);
        let mut pick: Option<CandidateId> = None;
        for _ in 0..24 {
            let c = CandidateId::from_index(rng.random_range(0..n));
            if valid(c) {
                pick = Some(c);
                break;
            }
        }
        if pick.is_none() {
            let covered = current.count() + feedback.disapproved().count()
                - current.intersection_count(feedback.disapproved());
            let eligible = n - covered;
            if eligible > 0 {
                let k = rng.random_range(0..eligible);
                pick = (0..n).map(CandidateId::from_index).filter(|&c| valid(c)).nth(k);
            }
        }
        let Some(c) = pick else {
            return; // instance already covers every assertable candidate
        };
        // `next` starts as a copy of `current`, whose content the tracked
        // frontier (if valid) already matches
        next.copy_from(current);
        next.insert(c);
        scratch.note_insert(index, next, c);
        repair_in(index, next, c, feedback.approved(), rng, scratch);
        maximize_in(index, next, feedback.disapproved(), rng, scratch);
        let accept = if config.anneal {
            let delta = current.symmetric_difference_count(next);
            1.0 - (-(delta as f64)).exp()
        } else {
            1.0
        };
        if rng.random_bool(accept.clamp(0.0, 1.0)) {
            // the frontier matches `next`, which becomes `current`
            std::mem::swap(current, next);
        } else {
            // the frontier matches the rejected state — unwind the step's
            // mutation trail so it matches `current` again, which is far
            // cheaper than the full rebuild an invalidation would force
            scratch.unwind_step(index, next, c);
            debug_assert_eq!(next, current);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1_network;

    fn small_config() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 7, chains: 1 }
    }

    #[test]
    fn finds_all_fig1_instances_and_exhausts() {
        let net = fig1_network();
        let fb = Feedback::new(5);
        let store = SampleStore::new(&net, &fb, small_config());
        // only 4 instances exist < n_min → store must detect exhaustion
        assert!(store.is_exhausted());
        assert_eq!(store.len(), 4, "all four maximal instances found");
        for s in store.samples() {
            assert!(net.index().is_consistent(s));
            assert!(net.index().is_maximal(s, fb.disapproved()));
        }
    }

    #[test]
    fn samples_are_distinct() {
        let net = fig1_network();
        let store = SampleStore::new(&net, &Feedback::new(5), small_config());
        let mut seen = std::collections::HashSet::new();
        for s in store.samples() {
            assert!(seen.insert(s.clone()), "duplicate sample");
        }
    }

    #[test]
    fn matrix_transposes_membership() {
        let net = fig1_network();
        let store = SampleStore::new(&net, &Feedback::new(5), small_config());
        let m = store.matrix();
        assert_eq!(m.sample_count(), store.len());
        assert_eq!(m.candidate_count(), 5);
        for c in (0..5).map(CandidateId::from_index) {
            let by_scan = store.samples().iter().filter(|s| s.contains(c)).count();
            assert_eq!(m.membership_count(c), by_scan);
            for d in (0..5).map(CandidateId::from_index) {
                let co = store.samples().iter().filter(|s| s.contains(c) && s.contains(d)).count();
                assert_eq!(m.co_count(c, d), co);
            }
        }
    }

    #[test]
    fn pext_gathers_masked_bits() {
        // naive reference: collect bits of x at mask positions
        let naive = |x: u64, mask: u64| -> u64 {
            let mut out = 0u64;
            let mut pos = 0;
            for b in 0..64 {
                if mask & (1 << b) != 0 {
                    out |= ((x >> b) & 1) << pos;
                    pos += 1;
                }
            }
            out
        };
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let (x, mask) = (next(), next());
            assert_eq!(pext64(x, mask), naive(x, mask));
        }
        assert_eq!(pext64(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(pext64(u64::MAX, 0), 0);
    }

    #[test]
    fn filter_columns_matches_column_rebuild() {
        // push 150 pseudo-random sample columns over 90 candidates, filter
        // by a pseudo-random mask, and compare against a from-scratch
        // rebuild of the surviving columns
        let n = 90usize;
        let cols = 150usize;
        let mut state = 7u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<BitSet> = (0..cols)
            .map(|_| {
                BitSet::from_ids(n, (0..n).filter(|_| next() % 3 == 0).map(CandidateId::from_index))
            })
            .collect();
        let mut matrix = SampleMatrix::new(n);
        for s in &samples {
            matrix.push_sample(s);
        }
        let mut mask = vec![0u64; cols.div_ceil(64)];
        let survivors: Vec<usize> = (0..cols).filter(|_| next() % 2 == 0).collect();
        for &j in &survivors {
            mask[j / 64] |= 1 << (j % 64);
        }
        matrix.filter_columns(&mask);
        let mut expect = SampleMatrix::new(n);
        for &j in &survivors {
            expect.push_sample(&samples[j]);
        }
        assert_eq!(matrix.sample_count(), survivors.len());
        for c in (0..n).map(CandidateId::from_index) {
            assert_eq!(matrix.row(c), expect.row(c));
        }
    }

    #[test]
    fn append_samples_matches_per_column_push() {
        // batched transpose appends must land bit-identically to the
        // per-column scatter path, at every column-offset alignment
        let n = 90usize;
        let mut state = 11u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<BitSet> = (0..200)
            .map(|_| {
                BitSet::from_ids(n, (0..n).filter(|_| next() % 3 == 0).map(CandidateId::from_index))
            })
            .collect();
        // splits exercising: empty batch, sub-word batch, word-straddling
        // offsets (r != 0), exact 64-sample blocks, multi-block batches
        for split in [0usize, 1, 17, 63, 64, 65, 128, 150, 200] {
            let mut batched = SampleMatrix::new(n);
            batched.append_samples(&samples[..split]);
            batched.append_samples(&samples[split..]);
            let mut scatter = SampleMatrix::new(n);
            for s in &samples {
                scatter.push_sample(s);
            }
            assert_eq!(batched.sample_count(), scatter.sample_count(), "split={split}");
            for c in (0..n).map(CandidateId::from_index) {
                assert_eq!(batched.row(c), scatter.row(c), "split={split} c={c:?}");
            }
        }
    }

    #[test]
    fn matrix_follows_view_maintenance() {
        let net = fig1_network();
        let mut fb = Feedback::new(5);
        let mut store = SampleStore::new(&net, &fb, small_config());
        fb.approve(CandidateId(2));
        store.maintain(&net, &fb, CandidateId(2), true);
        let m = store.matrix();
        assert_eq!(m.sample_count(), store.len());
        assert_eq!(m.membership_count(CandidateId(2)), store.len(), "every survivor contains c2");
        for c in (0..5).map(CandidateId::from_index) {
            let by_scan = store.samples().iter().filter(|s| s.contains(c)).count();
            assert_eq!(m.membership_count(c), by_scan);
        }
    }

    #[test]
    fn maintain_approval_keeps_only_containing() {
        let net = fig1_network();
        let mut fb = Feedback::new(5);
        let mut store = SampleStore::new(&net, &fb, small_config());
        fb.approve(CandidateId(2));
        store.maintain(&net, &fb, CandidateId(2), true);
        for s in store.samples() {
            assert!(s.contains(CandidateId(2)));
        }
        // instances containing c2: {c0,c1,c2} and {c2,c3}
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn maintain_disapproval_keeps_only_excluding_and_remaximizes() {
        let net = fig1_network();
        let mut fb = Feedback::new(5);
        let mut store = SampleStore::new(&net, &fb, small_config());
        fb.disapprove(CandidateId(0));
        store.maintain(&net, &fb, CandidateId(0), false);
        for s in store.samples() {
            assert!(!s.contains(CandidateId(0)));
            assert!(net.index().is_maximal(s, fb.disapproved()));
        }
        // without c0: {c1,c2}, {c1,c4}, {c2,c3}, {c3,c4}
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn respects_feedback_in_fresh_sampling() {
        let net = fig1_network();
        let mut fb = Feedback::new(5);
        fb.approve(CandidateId(0));
        fb.disapprove(CandidateId(3));
        let store = SampleStore::new(&net, &fb, small_config());
        assert!(!store.is_empty());
        for s in store.samples() {
            assert!(s.contains(CandidateId(0)));
            assert!(!s.contains(CandidateId(3)));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = fig1_network();
        let fb = Feedback::new(5);
        let a = SampleStore::new(&net, &fb, small_config());
        let b = SampleStore::new(&net, &fb, small_config());
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn empty_network_is_trivially_exhausted() {
        use smn_constraints::ConstraintConfig;
        use smn_schema::{CandidateSet, CatalogBuilder, InteractionGraph};
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["x"]).unwrap();
        b.add_schema_with_attributes("B", ["y"]).unwrap();
        let cat = b.build();
        let cs = CandidateSet::new(&cat);
        let net = MatchingNetwork::new(
            cat,
            InteractionGraph::complete(2),
            cs,
            ConstraintConfig::default(),
        );
        let store = SampleStore::new(&net, &Feedback::new(0), small_config());
        assert!(store.is_exhausted());
        assert!(store.is_empty());
    }

    #[test]
    fn repeated_emissions_merge_their_counts() {
        let net = fig1_network();
        let config = small_config();
        let store = SampleStore::new(&net, &Feedback::new(5), config);
        // fig1 exhausts after two passes, each recording its start and
        // n_samples emissions
        let total: u64 = store.to_state().counts.iter().sum();
        assert_eq!(total, 2 * (config.n_samples as u64 + 1));
        assert!(store.len() < total as usize, "the walk revisits instances");
        let a = BitSet::from_ids(5, [CandidateId(2), CandidateId(3)]);
        let b = BitSet::from_ids(5, [CandidateId(1), CandidateId(4)]);
        let exact = SampleStore::from_instances(5, [a.clone(), b.clone(), a.clone()], config);
        assert_eq!(exact.samples(), [a, b]);
        assert_eq!(exact.to_state().counts, [2, 1]);
    }

    #[test]
    fn disapproval_reinsertion_never_duplicates_a_survivor() {
        // {c0,c1,c2} dies under ¬c0 and shrinks to {c1,c2}, which is
        // already stored; {c0,c3,c4} shrinks to the new {c3,c4}
        let net = fig1_network();
        let state = crate::persist::StoreState {
            config: small_config(),
            candidate_count: 5,
            exhausted: true,
            samples: vec![vec![0, 1, 2], vec![1, 2], vec![0, 3, 4]],
            counts: vec![3, 5, 7],
        };
        let mut store = SampleStore::from_state(&state).unwrap();
        let mut fb = Feedback::new(5);
        fb.disapprove(CandidateId(0));
        store.maintain(&net, &fb, CandidateId(0), false);
        let after = store.to_state();
        assert_eq!(after.samples, [vec![1, 2], vec![3, 4]]);
        assert_eq!(after.counts, [5, 7], "the survivor keeps its own count");
        assert_eq!(store.matrix().sample_count(), 2);
    }

    #[test]
    fn a_clone_maintains_and_refills_like_its_original() {
        // the walk buffers are per pass, so a clone taken after a fill
        // must take every later step to the same bits as its original
        let (net, _) = crate::testutil::perturbed_network(4, 8, 0.7, 0.9, 3);
        let config = SamplerConfig { n_samples: 120, n_min: 100, seed: 9, ..small_config() };
        let mut fb = Feedback::new(net.candidate_count());
        let mut original = SampleStore::new(&net, &fb, config);
        let mut copy = original.clone();
        let mut refilled = false;
        for step in 0..6 {
            let len = original.len();
            let Some(c) = (0..net.candidate_count()).map(CandidateId::from_index).find(|&c| {
                let m = original.matrix().membership_count(c);
                !fb.is_asserted(c) && m > 0 && m < len
            }) else {
                break;
            };
            let approved = step % 2 == 0 && net.index().can_add(fb.approved(), c);
            if approved {
                fb.approve(c);
            } else {
                fb.disapprove(c);
            }
            let before: u64 = original.to_state().counts.iter().sum();
            original.maintain(&net, &fb, c, approved);
            copy.maintain(&net, &fb, c, approved);
            // filtering and re-insertion never add emissions; a refill does
            refilled |= original.to_state().counts.iter().sum::<u64>() > before;
            assert_eq!(copy.to_state(), original.to_state(), "step {step}");
            for c in (0..net.candidate_count()).map(CandidateId::from_index) {
                assert_eq!(copy.matrix().row(c), original.matrix().row(c), "step {step}");
            }
        }
        assert!(refilled, "the sequence must exercise a refill");
    }

    #[test]
    fn from_state_refuses_a_duplicated_instance() {
        let state = crate::persist::StoreState {
            config: small_config(),
            candidate_count: 5,
            exhausted: true,
            samples: vec![vec![2, 3], vec![1, 4], vec![2, 3]],
            counts: vec![1, 1, 1],
        };
        let err = SampleStore::from_state(&state).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn larger_network_reaches_n_min() {
        let (net, _truth) = crate::testutil::perturbed_network(4, 8, 0.7, 0.9, 3);
        let store = SampleStore::new(&net, &Feedback::new(net.candidate_count()), small_config());
        assert!(
            store.is_exhausted() || store.len() >= 50,
            "either exhausted or reached n_min, got {}",
            store.len()
        );
    }
}
