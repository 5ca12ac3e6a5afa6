//! # socbus-exec — deterministic parallel execution
//!
//! The Monte-Carlo measurements behind the paper's reliability results
//! (eqs. (7)–(9), Figs. 8–15) and the soak/reliability/chaos campaigns
//! are embarrassingly parallel, but naive parallelism trades away the
//! property the whole harness is built on: byte-reproducible output.
//! This crate provides the one primitive that keeps both:
//!
//! 1. **Static shard decomposition** — work is split into a fixed shard
//!    list *before* any thread runs. The decomposition depends only on
//!    the workload (trial count, campaign grid), never on the thread
//!    count, so `--threads 1` and `--threads N` execute the exact same
//!    shards.
//! 2. **Seed splitting** — every shard derives its RNG seed from the
//!    root seed and its shard index via [SplitMix64]([`splitmix64`]),
//!    so shard streams are decorrelated yet fully determined by
//!    `(root seed, index)`.
//! 3. **Shard-order merge** — threads claim shards from an atomic work
//!    queue (dynamic load balance), but results are reassembled in shard
//!    order. Whatever the interleaving, the merged output is identical.
//!
//! The engine is dependency-free (`std::thread::scope`, no rayon): the
//! worker closure borrows the shard list, and all results are moved back
//! to the caller before [`run_shards`] returns.
//!
//! [`RunOpts`] is the one command-line parser the sharded entry points
//! share (`--smoke`, `--threads N`, `--trace-out`, `--health-out`, an
//! output path), so every bin rejects a bad flag the same way.
//!
//! # Example
//!
//! ```
//! use socbus_exec::{run_shards, shard_seed};
//!
//! // 8 shards, each hashing its own split seed; any thread count
//! // produces the same vector.
//! let shards: Vec<u64> = (0..8).collect();
//! let one = run_shards(1, &shards, |i, &s| shard_seed(42, s) ^ i as u64);
//! let many = run_shards(4, &shards, |i, &s| shard_seed(42, s) ^ i as u64);
//! assert_eq!(one, many);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The SplitMix64 increment ("golden gamma"); shard seeds advance the
/// root state by one gamma per shard index, exactly as a SplitMix64
/// stream would.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the SplitMix64 output function: mixes `state + gamma`
/// through the Stafford variant-13 finalizer. Statistically independent
/// outputs for adjacent states — the standard way to split one root seed
/// into decorrelated per-shard seeds.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed shard `index` of a run rooted at `root` must use: SplitMix64
/// applied to the root state advanced `index` gammas. Depends only on
/// `(root, index)` — never on the thread count — which is what makes the
/// sharded runs reproducible.
#[must_use]
pub fn shard_seed(root: u64, index: u64) -> u64 {
    splitmix64(root.wrapping_add(index.wrapping_mul(SPLITMIX64_GAMMA)))
}

/// The default worker count: `std::thread::available_parallelism`,
/// clamped to at least 1 (the query can fail on exotic platforms).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a `--threads` argument: a positive integer. `Some(n)` with
/// `n >= 1`, or `None` on anything else (callers print usage).
#[must_use]
pub fn parse_threads(s: &str) -> Option<usize> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// A parsed entry-point command line. Every bin declares the flags it
/// accepts in one list, e.g. `&["--smoke", "--threads", "--trace-out"]`;
/// anything else is rejected as unknown. `--smoke` is a switch, every
/// other flag takes one value: `--threads N` (default
/// [`default_threads`]), `--trace-out <path>`, `--health-out <path>`, and
/// bin-specific flags read back with [`RunOpts::value`].
#[derive(Debug, PartialEq, Eq)]
pub struct RunOpts {
    /// `--smoke` was given.
    pub smoke: bool,
    /// The worker count.
    pub threads: usize,
    /// The `--trace-out` path.
    pub trace_out: Option<String>,
    /// The `--health-out` path.
    pub health_out: Option<String>,
    /// The last positional argument (the output path).
    pub out: Option<String>,
    values: Vec<(String, String)>,
}

impl RunOpts {
    /// Parses `args` against the `accepted` flags. On a malformed or
    /// unaccepted flag prints `{bin}: <reason>` to stderr and returns
    /// `None`; the caller exits 2 before any work runs.
    #[must_use]
    pub fn parse(bin: &str, accepted: &[&str], args: &[String]) -> Option<RunOpts> {
        Self::try_parse(accepted, args)
            .map_err(|e| eprintln!("{bin}: {e}"))
            .ok()
    }

    fn try_parse(accepted: &[&str], args: &[String]) -> Result<RunOpts, String> {
        let mut opts = RunOpts {
            smoke: false,
            threads: default_threads(),
            trace_out: None,
            health_out: None,
            out: None,
            values: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            match arg.as_str() {
                path if !path.starts_with("--") => opts.out = Some(path.to_owned()),
                flag if !accepted.contains(&flag) => return Err(format!("unknown flag {flag}")),
                "--smoke" => opts.smoke = true,
                "--threads" => {
                    opts.threads =
                        parse_threads(&value()?).ok_or("--threads needs a positive integer")?;
                }
                "--trace-out" => opts.trace_out = Some(value()?),
                "--health-out" => opts.health_out = Some(value()?),
                flag => opts.values.push((flag.to_owned(), value()?)),
            }
        }
        Ok(opts)
    }

    /// The output path, or `default` when none was given.
    #[must_use]
    pub fn out_or<'a>(&'a self, default: &'a str) -> &'a str {
        self.out.as_deref().unwrap_or(default)
    }

    /// The last value given for the bin-specific flag `flag`.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// Runs `worker` over every shard in `shards` on up to `threads` OS
/// threads and returns the results **in shard order**.
///
/// Threads claim shard indices from a shared atomic counter (dynamic
/// load balancing — a slow shard never stalls the queue), but the output
/// vector is assembled by shard index, so the result is byte-identical
/// for every `threads >= 1`. With `threads == 1` (or a single shard) the
/// shards run inline on the caller's thread — same decomposition, same
/// seeds, no spawn overhead.
///
/// The worker receives `(shard index, &shard)`; anything it needs to
/// mutate (RNGs, simulators, telemetry recorders) must be constructed
/// *inside* the call — that is what lets non-`Send` simulation state
/// (e.g. `PathSim`'s `Rc`-based telemetry handles) ride on the engine:
/// shard-constructed, shard-dropped, only the `Send` result crosses
/// threads.
///
/// # Panics
///
/// Propagates worker panics (the scope joins all threads first), and
/// panics on a poisoned internal lock, which only a worker panic causes.
pub fn run_shards<I, R, F>(threads: usize, shards: &[I], worker: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let threads = threads.max(1).min(shards.len().max(1));
    if threads <= 1 {
        return shards
            .iter()
            .enumerate()
            .map(|(i, s)| worker(i, s))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(shards.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(shard) = shards.get(i) else { break };
                let result = worker(i, shard);
                done.lock().expect("worker panicked").push((i, result));
            });
        }
    });
    let mut done = done.into_inner().expect("worker panicked");
    debug_assert_eq!(done.len(), shards.len());
    // The claim order is racy; the merge order is not.
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference: Vigna's splitmix64.c seeded with 0 / 1.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn shard_seeds_are_a_splitmix_stream() {
        // shard_seed(root, i) is the (i+1)-th output of a SplitMix64
        // generator whose state starts at `root`.
        let root = 0xDEAD_BEEF;
        let mut state = root;
        for i in 0..8 {
            let expect = splitmix64(state);
            assert_eq!(shard_seed(root, i), expect);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
        }
    }

    #[test]
    fn shard_seeds_differ_across_indices_and_roots() {
        let mut seeds: Vec<u64> = (0..64).map(|i| shard_seed(7, i)).collect();
        seeds.extend((0..64).map(|i| shard_seed(8, i)));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 128, "no collisions in a small window");
    }

    #[test]
    fn results_come_back_in_shard_order_for_any_thread_count() {
        let shards: Vec<usize> = (0..37).collect();
        let baseline: Vec<usize> = shards.iter().map(|&s| s * s).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_shards(threads, &shards, |i, &s| {
                assert_eq!(i, s, "index matches the static decomposition");
                s * s
            });
            assert_eq!(got, baseline, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_shard_lists_work() {
        let none: Vec<u32> = run_shards(8, &[], |_, &s: &u32| s);
        assert!(none.is_empty());
        let one = run_shards(8, &[41u32], |_, &s| s + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn worker_sees_every_shard_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let shards: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        let _ = run_shards(4, &shards, |_, &s| {
            sum.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 99 * 100 / 2);
    }

    #[test]
    fn default_threads_is_positive_and_parse_rejects_junk() {
        assert!(default_threads() >= 1);
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
    }

    #[test]
    fn run_opts_parse_only_the_declared_flags() {
        let args = |a: &[&str]| a.iter().map(|&s| s.to_owned()).collect::<Vec<_>>();
        let accepts = &["--threads", "--trace-out", "--gate"];
        let opts = RunOpts::parse(
            "t",
            accepts,
            &args(&["a", "--threads", "2", "--gate", "1", "--gate", "5", "b"]),
        )
        .expect("declared flags parse");
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.out_or("default"), "b", "the last positional wins");
        assert_eq!(opts.value("--gate"), Some("5"), "the last value wins");
        assert!(!opts.smoke && opts.trace_out.is_none());
        let defaults = RunOpts::parse("t", accepts, &[]).expect("empty parses");
        assert_eq!(defaults.threads, default_threads());
        assert_eq!(defaults.out_or("default"), "default");
        for bad in [
            &["--smoke"][..],
            &["--health-out", "h"],
            &["--threads", "0"],
            &["--trace-out"],
            &["--gate"],
            &["--nope"],
        ] {
            assert_eq!(RunOpts::parse("t", accepts, &args(bad)), None, "{bad:?}");
        }
    }

    #[test]
    fn non_send_state_can_be_shard_constructed() {
        // The pattern the simulators use: Rc-holding state built inside
        // the worker, only the plain result crossing back.
        let shards: Vec<u64> = (0..16).collect();
        let got = run_shards(4, &shards, |i, &s| {
            let rc = std::rc::Rc::new(shard_seed(s, i as u64));
            *rc & 0xFF
        });
        let want: Vec<u64> = shards
            .iter()
            .enumerate()
            .map(|(i, &s)| shard_seed(s, i as u64) & 0xFF)
            .collect();
        assert_eq!(got, want);
    }
}
