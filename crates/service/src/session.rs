//! The session multiplexer: thousands of concurrent sessions over one
//! shared published snapshot, each with a sparse private view.
//!
//! A live session holds a *view*: the `Arc` of the published base it was
//! opened on plus an [`Echo`] of its own answers — a private copy of just
//! the components it answered into and their probabilities, nothing
//! else. Its *next* question therefore reflects what it already answered
//! even before the commit lanes fold the answer into the base, and a view
//! costs what its echoed shards cost: opening one is an `Arc` clone, and
//! the first answer into a component copies that one shard. Views open
//! lazily (only when a session selects a fresh question) and are capped at
//! `SessionManager::new(max_views)` live views with FIFO eviction — an
//! evicted session reopens a fresh view on the published snapshot and
//! forgets its echo, which is deterministic like everything else here.
//!
//! A view is **current or dead**: current exactly when its base is the
//! published `Arc` ([`Arc::ptr_eq`]), so a publish kills every older view.
//! A dead view takes no echo, since the session's next selection replaces
//! it unread; until then it keeps its FIFO slot and its `Arc`.
//!
//! Question selection is the paper's entropy-argmax restricted to what
//! serving can afford per event: `argmax H(p_c)` over the uncertain,
//! available candidates. Binary entropy is strictly decreasing in
//! `|p − ½|`, so the scan compares `|p − ½|` directly — same argmax,
//! no `log2` per candidate — and breaks ties toward the lowest id,
//! making the choice a pure function of the (deterministic) snapshot.
//!
//! The per-question scan is served from a **shared base-snapshot
//! cache**: the `(|p − ½|, id)`-sorted entry list of the published
//! snapshot is built once per published generation and shared by every
//! session, and each session overlays only the components its echo
//! holds (an assertion rewrites the owning component's probabilities and
//! nothing else). Selection walks the merged streams best first and stops
//! at the first available candidate, instead of rescanning all `|C|`
//! probabilities per question.
//!
//! **Claims** keep that walk short. The caller [`claim`](SessionManager::claim)s
//! every candidate it opens a question on and promises that a claimed
//! candidate stays unavailable until the next [`reset`](SessionManager::reset).
//! Claimed ids then leave the shared list for good: a rebuild drops them
//! and a head cursor steps past them, so a fresh selection no longer
//! re-skips every open and pending question at the head of the list.
//!
//! The merge is the same argmin over the same candidate set, so it picks
//! identically to the plain scan [`select_on`] over a fork carrying the
//! session's answers — which stays public as the differential reference.

use smn_constraints::BitSet;
use smn_core::feedback::Assertion;
use smn_core::{Echo, ProbabilisticNetwork};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use smn_schema::CandidateId;

/// One session's private view: the published base it was opened on, the
/// session's echo, and the ascending member ids of the echoed components
/// — the domain where the shared entry list is stale for this session and
/// the echo is consulted instead.
struct SessionView {
    base: Arc<ProbabilisticNetwork>,
    echo: Echo,
    overlay: Vec<u32>,
}

impl SessionView {
    fn fresh(base: &Arc<ProbabilisticNetwork>) -> Self {
        Self { base: Arc::clone(base), echo: Echo::new(), overlay: Vec::new() }
    }
}

/// The shared selection-entry cache of one published snapshot:
/// `(|p − ½|, id)` for every uncertain unclaimed candidate, ascending —
/// best question first — and the cursor past its claimed head. Built once
/// per published generation, shared by all sessions.
#[derive(Default)]
struct SharedEntries {
    generation: Option<u64>,
    entries: Vec<(f64, u32)>,
    head: usize,
}

/// Multiplexes concurrent sessions over the shared published snapshot.
pub struct SessionManager {
    views: HashMap<u64, SessionView>,
    view_fifo: VecDeque<u64>,
    max_views: usize,
    shared: SharedEntries,
    /// Candidates claimed since the last reset.
    claimed: BitSet,
}

impl SessionManager {
    /// A manager keeping at most `max_views` live session views (min 1).
    pub fn new(max_views: usize) -> Self {
        Self {
            views: HashMap::new(),
            view_fifo: VecDeque::new(),
            max_views: max_views.max(1),
            shared: SharedEntries::default(),
            claimed: BitSet::new(0),
        }
    }

    /// Live session views currently held.
    pub fn live_views(&self) -> usize {
        self.views.len()
    }

    /// Selects session `session`'s next question on its private view:
    /// the most uncertain candidate (`argmax H(p)` = `argmin |p − ½|`,
    /// ties to the lowest id) among those with `0 < p < 1` that the
    /// caller's `unavailable` filter admits; falls back to the first
    /// available unasserted candidate when every probability is pinned;
    /// `None` when nothing is available at all. Exactly [`select_on`]
    /// over a fork carrying the session's echo, served from the shared
    /// entry cache plus the session's overlay — provided every
    /// [`claim`](Self::claim)ed candidate is `unavailable`.
    ///
    /// Lazily opens a view on `published` for the session (replacing a
    /// dead one), evicting the oldest view at the cap.
    pub fn select(
        &mut self,
        session: u64,
        published: &Arc<ProbabilisticNetwork>,
        unavailable: &dyn Fn(CandidateId) -> bool,
    ) -> Option<CandidateId> {
        match self.views.get_mut(&session) {
            Some(view) if Arc::ptr_eq(&view.base, published) => {}
            // dead view: the base has moved — reopen on published (the
            // echo goes with it: the new base has no echoes yet)
            Some(view) => *view = SessionView::fresh(published),
            None => {
                // at the cap: evict the oldest holders to admit this one
                while self.views.len() >= self.max_views {
                    match self.view_fifo.pop_front() {
                        Some(old) => {
                            self.views.remove(&old);
                        }
                        None => break,
                    }
                }
                self.views.insert(session, SessionView::fresh(published));
                self.view_fifo.push_back(session);
            }
        }
        let claimed = &self.claimed;
        let is_claimed = |id: u32| claimed.contains(CandidateId(id));
        let shared = &mut self.shared;
        if shared.generation != Some(published.generation()) {
            let probs = published.probabilities();
            shared.entries = sorted_entries(
                (0..probs.len() as u32)
                    .filter(|&id| !is_claimed(id))
                    .map(|id| (id, probs[id as usize])),
            );
            shared.head = 0;
            shared.generation = Some(published.generation());
        }
        // claimed entries never come back within the epoch: step past them
        while shared.entries.get(shared.head).is_some_and(|&(_, id)| is_claimed(id)) {
            shared.head += 1;
        }
        let view = &self.views[&session];
        // overlay stream: the echoed components priced from the echo
        let private = sorted_entries(
            view.overlay
                .iter()
                .map(|&id| (id, view.base.echo_probability(&view.echo, CandidateId(id)))),
        );
        // merged best-first walk — first available candidate wins; shared
        // entries inside the overlay domain are masked (stale there)
        let mut shared = shared.entries[shared.head..]
            .iter()
            .filter(|&&(_, id)| view.overlay.binary_search(&id).is_err() && !is_claimed(id))
            .peekable();
        let mut private = private.iter().peekable();
        loop {
            let take_shared = match (shared.peek(), private.peek()) {
                (Some(&&s), Some(&&p)) => (s.0, s.1) <= (p.0, p.1),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let &(_, id) =
                if take_shared { shared.next().unwrap() } else { private.next().unwrap() };
            let c = CandidateId(id);
            if !unavailable(c) {
                return Some(c);
            }
        }
        // all pinned: validate the first available unasserted candidate
        (0..view.base.probabilities().len())
            .map(CandidateId::from_index)
            .find(|&c| !view.base.echo_is_asserted(&view.echo, c) && !unavailable(c))
    }

    /// Claims `c` for the rest of the epoch, dropping it from the shared
    /// entry list.
    ///
    /// Contract: from now until the next [`reset`](Self::reset), every
    /// `unavailable` predicate passed to [`select`](Self::select) returns
    /// `true` for `c`. `ServingCore` claims each candidate it opens a
    /// question on, and within an epoch such a candidate never returns
    /// to the pool: it goes open → pending → asserted in the base (a
    /// commit that skips it does so because it is already asserted).
    pub fn claim(&mut self, c: CandidateId) {
        if c.index() >= self.claimed.capacity() {
            self.claimed.grow(c.index() + 1);
        }
        self.claimed.insert(c);
    }

    /// Echoes `assertion` into the session's view if it is current (opened
    /// on `published`), so its next selection sees its own answer
    /// immediately. The authoritative integration happens in the commit
    /// lanes; a rejected or redundant echo, or one into a dead view, is
    /// simply dropped. The first mutating echo into a component adds that
    /// component's members to the session's overlay.
    pub fn observe(
        &mut self,
        session: u64,
        published: &Arc<ProbabilisticNetwork>,
        assertion: Assertion,
    ) {
        let Some(view) = self.views.get_mut(&session) else { return };
        if !Arc::ptr_eq(&view.base, published) {
            return; // dead: the session's next selection replaces it unread
        }
        let k = view.base.shard_of(assertion.candidate);
        let new_shard = !view.echo.contains_shard(k);
        if view.base.echo_assert(&mut view.echo, assertion) == Ok(true) && new_shard {
            view.overlay.extend(view.base.shard_members(k).iter().map(|c| c.0));
            view.overlay.sort_unstable();
        }
    }

    /// Drops every session view and claim — the evolution-epoch reset:
    /// ids may have been renumbered, so private views (and the shared
    /// entry cache) are all invalid.
    pub fn reset(&mut self) {
        self.views.clear();
        self.view_fifo.clear();
        self.shared = SharedEntries::default();
        self.claimed.clear();
    }
}

/// The `(|p − ½|, id)` entries of the uncertain `(id, p)` pairs,
/// ascending.
fn sorted_entries(probs: impl Iterator<Item = (u32, f64)>) -> Vec<(f64, u32)> {
    let mut entries: Vec<(f64, u32)> =
        probs.filter(|&(_, p)| p > 0.0 && p < 1.0).map(|(id, p)| ((p - 0.5).abs(), id)).collect();
    entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    entries
}

/// The plain selection scan on one view — the reference implementation
/// [`SessionManager::select`]'s cached merge must (and, per the
/// differential suite, does) reproduce pick for pick.
pub fn select_on(
    view: &ProbabilisticNetwork,
    unavailable: &dyn Fn(CandidateId) -> bool,
) -> Option<CandidateId> {
    let probs = view.probabilities();
    let mut best: Option<(f64, CandidateId)> = None;
    for (i, &p) in probs.iter().enumerate() {
        if p <= 0.0 || p >= 1.0 {
            continue;
        }
        let c = CandidateId::from_index(i);
        if unavailable(c) {
            continue;
        }
        let d = (p - 0.5).abs();
        // strict < keeps the lowest id on ties
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    if let Some((_, c)) = best {
        return Some(c);
    }
    // all pinned: validate the first available unasserted candidate
    (0..probs.len())
        .map(CandidateId::from_index)
        .find(|&c| !view.feedback().is_asserted(c) && !unavailable(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_testkit::{fig1_network, tiny_sampler, webform_federation};
    use std::collections::HashSet;

    fn published() -> Arc<ProbabilisticNetwork> {
        Arc::new(ProbabilisticNetwork::new_sharded(
            fig1_network(),
            tiny_sampler(5),
            smn_core::shard::ShardingConfig::default(),
        ))
    }

    #[test]
    fn selection_is_entropy_argmax_with_lowest_id_ties() {
        let base = published();
        let mut mgr = SessionManager::new(8);
        // fig1: all five candidates at p = 0.5 → lowest id wins
        let c = mgr.select(0, &base, &|_| false).expect("uncertain candidates exist");
        assert_eq!(c, CandidateId(0));
        // masking c0 moves to the next lowest
        let c = mgr.select(1, &base, &|c| c == CandidateId(0)).expect("more remain");
        assert_eq!(c, CandidateId(1));
    }

    #[test]
    fn observed_answers_steer_the_sessions_own_next_question() {
        let base = published();
        let mut mgr = SessionManager::new(8);
        assert_eq!(mgr.select(7, &base, &|_| false), Some(CandidateId(0)));
        mgr.observe(7, &base, Assertion { candidate: CandidateId(2), approved: true });
        // the private echo collapsed c2 (p=1) and c4 (p=0); both leave the
        // uncertain pool for THIS session only
        let c = mgr.select(7, &base, &|c| c == CandidateId(0)).expect("still uncertain");
        assert_ne!(c, CandidateId(2));
        assert_ne!(c, CandidateId(4));
        // an unrelated session still sees the published base untouched
        assert_eq!(mgr.select(8, &base, &|c| c == CandidateId(0)), Some(CandidateId(1)));
    }

    #[test]
    fn fork_cap_evicts_fifo_but_still_selects() {
        let base = published();
        let mut mgr = SessionManager::new(2);
        for s in 0..5u64 {
            assert!(mgr.select(s, &base, &|_| false).is_some());
        }
        assert!(mgr.live_views() <= 2, "cap must bound live views");
    }

    #[test]
    fn stale_forks_refresh_to_the_published_generation() {
        let base = published();
        let mut mgr = SessionManager::new(4);
        mgr.observe(3, &base, Assertion { candidate: CandidateId(2), approved: true });
        assert_eq!(mgr.select(3, &base, &|_| false), Some(CandidateId(0)));
        mgr.observe(3, &base, Assertion { candidate: CandidateId(2), approved: true });
        // bump the published generation: the session's view must refresh,
        // forgetting its private echo
        let mut fresh = base.as_ref().fork();
        fresh.assert_candidate(Assertion { candidate: CandidateId(0), approved: false }).unwrap();
        let fresh = Arc::new(fresh);
        let c = mgr.select(3, &fresh, &|_| false).expect("uncertain remain");
        assert_ne!(c, CandidateId(0), "refreshed view must see the published assertion");
    }

    /// The shards session `session`'s view holds echoes of, if it holds a
    /// view.
    fn echoed_shards(mgr: &SessionManager, session: u64) -> Option<Vec<usize>> {
        mgr.views.get(&session).map(|view| view.echo.shards().collect())
    }

    #[test]
    fn a_dead_view_takes_no_echo() {
        // a multi-shard base, so the two answers land in different shards
        let (net, _) = webform_federation(3, 21);
        let base = Arc::new(ProbabilisticNetwork::new_sharded(
            net,
            tiny_sampler(6),
            smn_core::shard::ShardingConfig::default(),
        ));
        let uncertain = base.uncertain_candidates();
        let a = uncertain[0];
        let b = *uncertain
            .iter()
            .find(|&&c| base.shard_of(c) != base.shard_of(a))
            .expect("uncertain candidates in a second shard");
        let mut mgr = SessionManager::new(4);
        assert!(mgr.select(0, &base, &|_| false).is_some());
        mgr.observe(0, &base, Assertion { candidate: a, approved: false });
        assert_eq!(echoed_shards(&mgr, 0), Some(vec![base.shard_of(a)]), "a current view echoes");
        // publish a new generation: the view is dead and takes no echo
        let mut next = base.as_ref().fork();
        next.assert_candidate(Assertion { candidate: a, approved: false }).unwrap();
        let next = Arc::new(next);
        mgr.observe(0, &next, Assertion { candidate: b, approved: false });
        assert_eq!(
            echoed_shards(&mgr, 0),
            Some(vec![base.shard_of(a)]),
            "a dead view must not echo the answer into a new shard"
        );
        assert_eq!(mgr.live_views(), 1, "the dead view keeps its slot");
        // its next selection replaces it with a fresh, echo-free view
        assert!(mgr.select(0, &next, &|_| false).is_some());
        assert_eq!(echoed_shards(&mgr, 0), Some(vec![]));
    }

    #[test]
    fn max_forks_one_evicts_then_readmits_with_consistent_selection() {
        // the eviction loop boundary: at max_forks = 1 every admission
        // evicts the single holder, and re-admitting an evicted session
        // must select exactly what it selected before
        let base = published();
        let mut mgr = SessionManager::new(1);
        let first = mgr.select(0, &base, &|_| false).expect("uncertain candidates exist");
        assert_eq!(mgr.live_views(), 1);
        // admitting session 1 evicts session 0's view but still selects
        let other = mgr.select(1, &base, &|_| false).expect("selection survives eviction");
        assert_eq!(mgr.live_views(), 1, "the cap holds through eviction");
        assert_eq!(first, other, "fresh views of the same base select identically");
        // re-admission of the evicted session: same base, same answer
        let again = mgr.select(0, &base, &|_| false).expect("re-admission selects");
        assert_eq!(first, again, "eviction then re-admission keeps selection consistent");
        assert_eq!(mgr.live_views(), 1);
        // and the re-admitted view is live: its private echo steers it
        mgr.observe(0, &base, Assertion { candidate: CandidateId(2), approved: true });
        let steered = mgr.select(0, &base, &|c| c == CandidateId(0)).expect("still uncertain");
        assert_ne!(steered, CandidateId(2));
        assert_ne!(steered, CandidateId(4));
    }

    #[test]
    fn reset_drops_every_fork() {
        let base = published();
        let mut mgr = SessionManager::new(4);
        for s in 0..3 {
            mgr.select(s, &base, &|_| false);
        }
        assert!(mgr.live_views() > 0);
        mgr.reset();
        assert_eq!(mgr.live_views(), 0);
    }

    #[test]
    fn cached_merge_matches_the_plain_scan_through_random_echo_streams() {
        // differential: the shared-entries + overlay merge must pick
        // exactly what a plain select_on over the session's fork picks,
        // through arbitrary interleavings of echoes and masks — here a
        // deterministic pseudo-random stream over two sessions
        let base = published();
        let mut mgr = SessionManager::new(8);
        let mut reference: HashMap<u64, ProbabilisticNetwork> = HashMap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for step in 0..40u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let session = state % 2;
            let view = reference.entry(session).or_insert_with(|| base.as_ref().fork()) as &mut _;
            let mask = CandidateId((state >> 17) as u32 % 5);
            let masked = move |c: CandidateId| c == mask;
            let got = mgr.select(session, &base, &masked);
            let want = select_on(view, &masked);
            assert_eq!(got, want, "step {step}: cached merge diverged from the plain scan");
            if state & 4 != 0 {
                let echo = Assertion {
                    candidate: CandidateId((state >> 23) as u32 % 5),
                    approved: state & 8 != 0,
                };
                mgr.observe(session, &base, echo);
                let _ = view.assert_candidate(echo);
            }
        }
    }

    /// The fork-per-view multiplexer the sparse views replaced, kept as
    /// the differential reference: each view is a full `fork()` of the
    /// published base, advanced by `assert_candidate`, and selection is
    /// the plain scan [`select_on`]. Admission, refresh and FIFO eviction
    /// follow the same rules as [`SessionManager`].
    struct ForkReference {
        forks: HashMap<u64, (ProbabilisticNetwork, u64)>,
        fifo: VecDeque<u64>,
        max: usize,
    }

    impl ForkReference {
        fn new(max: usize) -> Self {
            Self { forks: HashMap::new(), fifo: VecDeque::new(), max: max.max(1) }
        }

        fn select(
            &mut self,
            session: u64,
            published: &Arc<ProbabilisticNetwork>,
            generation: u64,
            unavailable: &dyn Fn(CandidateId) -> bool,
        ) -> Option<CandidateId> {
            match self.forks.get(&session) {
                Some(&(_, g)) if g >= generation => {}
                Some(_) => {
                    self.forks.insert(session, (published.as_ref().fork(), generation));
                }
                None => {
                    while self.forks.len() >= self.max {
                        match self.fifo.pop_front() {
                            Some(old) => {
                                self.forks.remove(&old);
                            }
                            None => break,
                        }
                    }
                    self.forks.insert(session, (published.as_ref().fork(), generation));
                    self.fifo.push_back(session);
                }
            }
            select_on(&self.forks[&session].0, unavailable)
        }

        fn observe(&mut self, session: u64, assertion: Assertion) {
            if let Some((fork, _)) = self.forks.get_mut(&session) {
                let _ = fork.assert_candidate(assertion);
            }
        }

        fn reset(&mut self) {
            self.forks.clear();
            self.fifo.clear();
        }
    }

    #[test]
    fn claims_and_sparse_views_match_the_fork_reference() {
        // differential: claim + select + observe against full forks and
        // the plain scan, on a multi-shard base, through commits that
        // bump the published generation, epoch resets and view caps 1–3.
        // As in ServingCore, every claimed candidate stays unavailable.
        let (net, _) = webform_federation(3, 21);
        let start = ProbabilisticNetwork::new_sharded(
            net,
            tiny_sampler(6),
            smn_core::shard::ShardingConfig::default(),
        );
        let n = start.network().candidate_count();
        for max_views in 1..=3 {
            let mut writer = start.fork();
            let mut published = Arc::new(writer.fork());
            let mut generation = writer.generation();
            let mut mgr = SessionManager::new(max_views);
            let mut reference = ForkReference::new(max_views);
            let mut claimed: HashSet<CandidateId> = HashSet::new();
            let mut state = 0x2545f4914f6cdd1du64 ^ max_views as u64;
            for step in 0..400u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = state >> 11;
                let session = r % 5;
                let c = CandidateId::from_index((r >> 8) as usize % n);
                match (r >> 4) % 16 {
                    0..=7 => {
                        let mask = CandidateId::from_index((r >> 24) as usize % n);
                        let (feedback, claims) = (writer.feedback(), &claimed);
                        let unavailable = |c: CandidateId| {
                            feedback.is_asserted(c) || claims.contains(&c) || c == mask
                        };
                        let got = mgr.select(session, &published, &unavailable);
                        let want = reference.select(session, &published, generation, &unavailable);
                        assert_eq!(got, want, "views {max_views} step {step}: selection diverged");
                        if let Some(c) = got.filter(|_| r & 1 == 1) {
                            mgr.claim(c);
                            claimed.insert(c);
                        }
                    }
                    8..=11 => {
                        let approved = r & 2 != 0;
                        mgr.observe(session, &published, Assertion { candidate: c, approved });
                        reference.observe(session, Assertion { candidate: c, approved });
                    }
                    12..=14 => {
                        // commit one claimed candidate and publish
                        let mut open: Vec<CandidateId> = claimed
                            .iter()
                            .copied()
                            .filter(|&c| !writer.feedback().is_asserted(c))
                            .collect();
                        open.sort();
                        if let Some(&c) = open.get((r >> 30) as usize % open.len().max(1)) {
                            let approved = r & 2 != 0;
                            if writer
                                .assert_candidate(Assertion { candidate: c, approved })
                                .is_err()
                            {
                                let _ = writer
                                    .assert_candidate(Assertion { candidate: c, approved: false });
                            }
                        }
                        if writer.generation() != generation {
                            published = Arc::new(writer.fork());
                            generation = writer.generation();
                        }
                    }
                    _ => {
                        // an epoch: every view and claim drops
                        mgr.reset();
                        reference.reset();
                        claimed.clear();
                    }
                }
                assert!(mgr.live_views() <= max_views, "the cap bounds live views");
                assert_eq!(mgr.live_views(), reference.forks.len(), "step {step}: admissions");
            }
        }
    }
}
