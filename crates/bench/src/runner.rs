//! Parallel execution of independent experiment repetitions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Worker threads available on this machine (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}

/// Walk-chain count for the experiment bins: `SMN_CHAINS=k` if set (0 or
/// `auto` meaning all available cores), else 1 — the paper's single-chain
/// sampler stays the default so published numbers remain comparable.
///
/// A non-default count is announced once on stderr: multi-chain fills
/// discover a different (equally valid, still deterministic) Ω\* than the
/// single-chain walk, so runs with the knob active must be identifiable.
pub fn sampling_chains() -> usize {
    let chains = match std::env::var("SMN_CHAINS") {
        Ok(v) if v == "auto" || v == "0" => available_threads(),
        Ok(v) => v.parse().ok().filter(|&k| k >= 1).unwrap_or(1),
        Err(_) => 1,
    };
    if chains > 1 {
        static ANNOUNCED: std::sync::Once = std::sync::Once::new();
        ANNOUNCED
            .call_once(|| eprintln!("SMN_CHAINS={chains}: sampling with {chains} walk chains"));
    }
    chains
}

/// Runs `runs` seeded repetitions of `f` across `threads` worker threads
/// and returns the results ordered by seed. Determinism is preserved
/// because each repetition derives everything from its seed.
pub fn parallel_runs<T, F>(runs: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let results: Mutex<Vec<(u64, T)>> = Mutex::new(Vec::with_capacity(runs as usize));
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(runs as usize).max(1) {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= runs {
                    break;
                }
                let out = f(seed);
                results.lock().unwrap().push((seed, out));
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(seed, _)| *seed);
    results.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_seed_ordered() {
        let out = parallel_runs(16, 4, |seed| seed * 2);
        assert_eq!(out, (0..16).map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_runs(3, 1, |seed| seed);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn more_threads_than_runs() {
        let out = parallel_runs(2, 16, |seed| seed + 10);
        assert_eq!(out, vec![10, 11]);
    }
}
