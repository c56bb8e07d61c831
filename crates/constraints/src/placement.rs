//! Component placement for the multi-process reconciliation mode.
//!
//! The conflict graph's components are statistically independent, so
//! they can live on different shard servers; the only question is *which
//! component goes where*. [`Placement`] answers it with consistent
//! hashing over component ids on a fixed ring of virtual nodes:
//!
//! * **Deterministic** — placement is a pure function of
//!   `(server_count, component id)`; every process (coordinator, shard
//!   servers, a replay months later) computes the same map with no
//!   negotiation, which is what keeps distributed runs byte-identical
//!   to single-process runs.
//! * **Stable under evolution** — components are renumbered when the
//!   network evolves (merge on extend, split on retire), but consistent
//!   hashing keeps unrelated components where they were: only ids whose
//!   ring position falls to a different server move, and changing the
//!   server count relocates roughly `1/n` of the components instead of
//!   reshuffling everything (the classic consistent-hashing bound,
//!   pinned by the tests below).
//!
//! The hash is SplitMix64 — the same mixer the sampler family uses for
//! seed derivation — applied to the component id for ring lookups and to
//! `(server, replica)` for ring points. No cryptographic strength is
//! needed: servers are trusted, the hash only needs uniform dispersion.

/// Virtual ring points per server. 64 keeps the expected per-server load
/// within a few percent of uniform at the component counts the
/// federation presets produce (hundreds), while the ring stays small
/// enough to rebuild on every epoch without showing up in profiles.
pub const VNODES_PER_SERVER: usize = 64;

/// SplitMix64: the finalizing mixer of Steele et al.'s splittable RNG —
/// a bijection on `u64` with full avalanche, cheap enough to apply per
/// lookup.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash placement of component ids onto `servers` shard
/// servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    servers: usize,
    /// Ring points sorted by position: `(hash, server)`.
    ring: Vec<(u64, usize)>,
}

impl Placement {
    /// Builds the ring for `servers` shard servers (min 1). The ring is
    /// a pure function of the server count — no seeds, no state — so
    /// every participant derives an identical placement independently.
    pub fn new(servers: usize) -> Self {
        let servers = servers.max(1);
        let mut ring = Vec::with_capacity(servers * VNODES_PER_SERVER);
        for server in 0..servers {
            for replica in 0..VNODES_PER_SERVER {
                // disambiguate (server, replica) injectively before mixing
                let point = splitmix64(((server as u64) << 32) | replica as u64);
                ring.push((point, server));
            }
        }
        // ties (astronomically unlikely) break toward the lower server id
        ring.sort_unstable();
        Self { servers, ring }
    }

    /// Shard servers this placement spreads over.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The server owning component `component`: the first ring point at
    /// or clockwise-after the component's hashed position (wrapping).
    pub fn server_of(&self, component: usize) -> usize {
        // the key hash must live in a different stream than the ring
        // points: `splitmix64(component)` would land component `c < 64`
        // exactly ON server 0's replica-`c` ring point (both hash the
        // same small integers), collapsing every small network onto one
        // server — hence the domain tag
        let h = splitmix64((component as u64) ^ 0xA076_1D64_78BD_642F);
        let idx = self.ring.partition_point(|&(point, _)| point < h);
        self.ring[idx % self.ring.len()].1
    }

    /// The full component → server map for `components` components.
    pub fn assign(&self, components: usize) -> Vec<usize> {
        (0..components).map(|c| self.server_of(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = Placement::new(4);
        let b = Placement::new(4);
        assert_eq!(a, b, "the ring is a pure function of the server count");
        for c in 0..1000 {
            let s = a.server_of(c);
            assert!(s < 4);
            assert_eq!(s, b.server_of(c));
        }
    }

    #[test]
    fn one_server_owns_everything_and_zero_clamps() {
        let one = Placement::new(1);
        let zero = Placement::new(0);
        for c in 0..100 {
            assert_eq!(one.server_of(c), 0);
            assert_eq!(zero.server_of(c), 0, "a zero-server placement clamps to one");
        }
    }

    #[test]
    fn small_component_ids_spread_over_small_clusters() {
        // regression: the key hash used to share splitmix64's input
        // domain with server 0's replica ring points, so every
        // component id below VNODES_PER_SERVER mapped to server 0 —
        // i.e. every small fixture "cluster" was secretly one server
        let assign = Placement::new(2).assign(12);
        assert!(
            assign.iter().any(|&s| s != assign[0]),
            "12 components all landed on server {}: {assign:?}",
            assign[0]
        );
    }

    #[test]
    fn load_spreads_roughly_uniformly() {
        let p = Placement::new(4);
        let n = 4096;
        let assign = p.assign(n);
        let mut counts = [0usize; 4];
        for &s in &assign {
            counts[s] += 1;
        }
        for (server, &count) in counts.iter().enumerate() {
            // within 2× of the uniform share — loose, but catches a
            // degenerate hash or a broken ring lookup immediately
            assert!(
                count > n / 8 && count < n / 2,
                "server {server} owns {count} of {n} components"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_fraction() {
        let n = 4096;
        let before = Placement::new(3).assign(n);
        let after = Placement::new(4).assign(n);
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        // consistent hashing: adding the 4th server should move ≈ 1/4 of
        // the keys; assert well under a full reshuffle (which would be
        // ≈ 3/4 under independent uniform re-assignment)
        assert!(
            moved < n / 2,
            "adding one server moved {moved} of {n} components — not consistent"
        );
        // and every component that moved landed on the new server
        for (c, (&a, &b)) in before.iter().zip(&after).enumerate() {
            if a != b {
                assert_eq!(b, 3, "component {c} moved to an old server");
            }
        }
    }
}
