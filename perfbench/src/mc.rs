//! `mc_sweep`: plain Monte-Carlo WER of every catalog scheme through
//! `word_error_rate_parallel` — the paper's reliability evaluation.
//!
//! The schemes split into two fixed lists that load different layers.
//! On the light list the channel sampler and the transpose dominate a
//! trial; on the heavy list the scalar-fallback codecs do. The lists are
//! fixed by name so they keep meaning the same inputs after later
//! changes move a scheme to another code path.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::montecarlo::{
    mc_shards, word_error_rate_parallel, word_error_rate_parallel_scalar, WordErrorEstimate,
    MC_SHARD_TRIALS,
};
use socbus_channel::BitFlipChannel;
use socbus_codes::{batch_build, Scheme, WordBlock, BLOCK_WORDS};
use socbus_exec::{run_shards, shard_seed};
use socbus_model::Word;

use crate::util::{
    item_seconds, median, ns, sample, secs, Measured, Metric, Sample, SpanLog, Tally, Timer,
    NO_SPAN, THREADS,
};

/// Data bits per word.
pub const K: usize = 16;
/// Per-wire flip probability.
pub const EPS: f64 = 1e-3;
/// Schemes whose trial cost is mostly channel sampling and transpose.
pub const LIGHT: [Scheme; 10] = [
    Scheme::Uncoded,
    Scheme::BusInvert(1),
    Scheme::BusInvert(8),
    Scheme::Shielding,
    Scheme::Duplication,
    Scheme::Ftc,
    Scheme::Parity,
    Scheme::Hamming,
    Scheme::ExtHamming,
    Scheme::Dap,
];
/// Schemes whose trial cost is mostly encode and decode.
pub const HEAVY: [Scheme; 7] = [
    Scheme::HammingX,
    Scheme::Bih,
    Scheme::FtcHc,
    Scheme::Bsc,
    Scheme::Dapx,
    Scheme::Dapbi,
    Scheme::BchDec,
];
/// Trials per light scheme per pass (16 shards).
pub const LIGHT_TRIALS: u64 = 16 * MC_SHARD_TRIALS;
/// Trials per heavy scheme per pass (4 shards): a heavy trial costs
/// about ten light ones, so both lists take similar host time.
pub const HEAVY_TRIALS: u64 = 4 * MC_SHARD_TRIALS;

/// Salt `word_error_rate` applies to a shard seed for its flip stream.
const FLIP_SEED_SALT: u64 = 0x5EED;
/// Spans kept per replica shard (the first ten blocks).
const SHARD_SPAN_CAP: usize = 64;
/// Layers of one trial block, in pipeline order.
const LAYERS: [&str; 6] = [
    "mc.data_draw",
    "mc.transpose",
    "mc.encode",
    "mc.channel",
    "mc.decode",
    "mc.compare",
];

struct Entry {
    scheme: Scheme,
    heavy: bool,
    trials: u64,
    root: u64,
}

fn entries(seed: u64) -> Vec<Entry> {
    LIGHT
        .iter()
        .map(|&s| (s, false))
        .chain(HEAVY.iter().map(|&s| (s, true)))
        .enumerate()
        .map(|(i, (scheme, heavy))| Entry {
            scheme,
            heavy,
            trials: if heavy { HEAVY_TRIALS } else { LIGHT_TRIALS },
            root: shard_seed(seed, i as u64),
        })
        .collect()
}

fn class(heavy: bool) -> &'static str {
    if heavy {
        "heavy"
    } else {
        "light"
    }
}

/// Set-up of one sweep: the shard plans plus a batch codec pair and a
/// scalar codec pair per scheme (the first build of a codebook fills
/// the process-wide cache).
pub fn setup(seed: u64) {
    for e in entries(seed) {
        black_box(mc_shards(e.trials, e.root));
        black_box((batch_build(e.scheme, K), batch_build(e.scheme, K)));
        black_box((e.scheme.build(K), e.scheme.build(K)));
    }
}

/// Untimed check: each scheme's first shard gives one estimate on the
/// batch path at 1 and at [`THREADS`] threads and on the scalar path.
fn first_shard_checks(entries: &[Entry]) -> Vec<Result<(), String>> {
    entries
        .iter()
        .map(|e| {
            let t1 = word_error_rate_parallel(e.scheme, K, EPS, MC_SHARD_TRIALS, e.root, 1);
            let tn = word_error_rate_parallel(e.scheme, K, EPS, MC_SHARD_TRIALS, e.root, THREADS);
            let scalar =
                word_error_rate_parallel_scalar(e.scheme, K, EPS, MC_SHARD_TRIALS, e.root, THREADS);
            if t1 == tn && t1 == scalar {
                Ok(())
            } else {
                Err(format!(
                    "mc {}: first shard differs: batch t1 {t1:?}, batch t{THREADS} {tn:?}, scalar {scalar:?}",
                    e.scheme.name()
                ))
            }
        })
        .collect()
}

/// One timed pass: a sample and the estimate per scheme.
fn pass(entries: &[Entry]) -> (Vec<Sample>, Vec<WordErrorEstimate>) {
    entries
        .iter()
        .map(|e| {
            let (est, s) = sample(THREADS, || {
                word_error_rate_parallel(e.scheme, K, EPS, e.trials, e.root, THREADS)
            });
            (s, est)
        })
        .unzip()
}

/// Folds the first-shard checks and pass-to-pass determinism into one
/// checked operation per scheme.
fn account(
    entries: &[Entry],
    checks: Vec<Result<(), String>>,
    first: &[WordErrorEstimate],
    later: &[Vec<WordErrorEstimate>],
    tally: &mut Tally,
) {
    for (i, (e, check)) in entries.iter().zip(checks).enumerate() {
        let repeat = later.iter().find(|p| p[i] != first[i]);
        let verdict = match (check, repeat) {
            (Err(msg), _) => Err(msg),
            (Ok(()), Some(p)) => Err(format!(
                "mc {}: pass estimates differ: {:?} vs {:?}",
                e.scheme.name(),
                first[i],
                p[i]
            )),
            (Ok(()), None) => Ok(()),
        };
        tally.check(verdict.is_ok(), || verdict.unwrap_err());
    }
}

/// The untraced measurement: checks, then passes for `seconds`.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally, det: &mut Vec<String>) -> Measured {
    let entries = entries(seed);
    let checks = first_shard_checks(&entries);
    let start = Instant::now();
    let mut m = Measured::default();
    let (mut first, mut later) = (Vec::new(), Vec::new());
    while m.samples.is_empty() || secs(start) < seconds {
        let (samples, ests) = pass(&entries);
        m.samples.push(samples);
        if first.is_empty() {
            first = ests;
        } else {
            later.push(ests);
        }
    }
    account(&entries, checks, &first, &later, tally);
    for (i, e) in entries.iter().enumerate() {
        let wall = item_seconds(&m.samples, std::iter::once(i), false);
        println!(
            "mc {:<12} {:<5} {:>9} trials  {:>8.1} ns/trial (wall, {THREADS} threads)",
            e.scheme.name(),
            class(e.heavy),
            e.trials,
            wall * 1e9 / e.trials as f64
        );
        det.push(format!(
            "mc {} trials={} failures={}",
            e.scheme.name(),
            e.trials,
            first[i].failures
        ));
        let (half, ops) = if e.heavy {
            (&mut m.heavy, &mut m.heavy_ops)
        } else {
            (&mut m.light, &mut m.light_ops)
        };
        half.push(i);
        *ops += e.trials as f64;
    }
    println!("mc passes: {}", m.samples.len());
    m
}

/// What one replica shard measured.
struct ShardOut {
    layer_ns: [u64; 6],
    flips: u64,
    failures: u64,
    busy_ns: u64,
    spans: SpanLog,
}

/// Re-drives one `word_error_rate` shard through the public calls it
/// makes, timing each layer per block of [`BLOCK_WORDS`] trials. Same
/// seeds and draw order, so its failure count must equal the library's.
fn replica_shard(scheme: Scheme, trials: u64, seed: u64, trace: u32, epoch: Instant) -> ShardOut {
    let begin = Instant::now();
    let mut spans = SpanLog::new(epoch, SHARD_SPAN_CAP);
    let root = spans.open("mc.shard", trace, NO_SPAN);
    let mut enc = batch_build(scheme, K);
    let mut dec = batch_build(scheme, K);
    let mut ch = BitFlipChannel::new(EPS, seed ^ FLIP_SEED_SALT);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words: Vec<Word> = Vec::with_capacity(BLOCK_WORDS);
    let (mut layer_ns, mut flips, mut failures) = ([0u64; 6], 0u64, 0u64);
    let mut done = 0u64;
    while done < trials {
        let n = usize::try_from((trials - done).min(BLOCK_WORDS as u64)).expect("n <= 64");
        let t0 = Instant::now();
        words.clear();
        words.extend((0..n).map(|_| Word::from_bits(rng.gen::<u128>(), K)));
        let t1 = Instant::now();
        let data = WordBlock::from_words(&words);
        let t2 = Instant::now();
        let sent = enc.encode(&data);
        let t3 = Instant::now();
        // The copy kept for the flip count is not channel work.
        let mut received = sent.clone();
        let t3c = Instant::now();
        ch.corrupt_block(&mut received);
        let t4 = Instant::now();
        let decoded = dec.decode(&received);
        let t5 = Instant::now();
        let fail_plane = (0..K).fold(0u64, |acc, i| acc | (decoded.lane(i) ^ data.lane(i)));
        failures += u64::from(fail_plane.count_ones());
        let t6 = Instant::now();
        let bounds = [(t0, t1), (t1, t2), (t2, t3), (t3c, t4), (t4, t5), (t5, t6)];
        for (l, &(a, b)) in bounds.iter().enumerate() {
            layer_ns[l] += ns(a, b);
            spans.leaf(LAYERS[l], trace, root, a, b);
        }
        flips += (0..received.width())
            .map(|i| u64::from((received.lane(i) ^ sent.lane(i)).count_ones()))
            .sum::<u64>();
        done += n as u64;
    }
    spans.close(root);
    ShardOut {
        layer_ns,
        flips,
        failures,
        busy_ns: ns(begin, Instant::now()),
        spans,
    }
}

/// Per-class sums over traced passes.
#[derive(Default)]
struct ClassSums {
    trials: u64,
    layer_ns: [u64; 6],
    flips: u64,
    failures: u64,
}

/// The traced profile: alternating untraced and traced passes for
/// `seconds`, the traced one re-driving every shard with spans.
pub fn profile(seed: u64, seconds: f64, tally: &mut Tally, spans: &mut SpanLog) -> Vec<Metric> {
    let entries = entries(seed);
    let checks = first_shard_checks(&entries);
    let epoch = spans.epoch();
    let start = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first = Vec::new();
    let mut later = Vec::new();
    let mut sums = [ClassSums::default(), ClassSums::default()];
    let (mut busy_ns, mut wall_ns, mut shards) = (0u64, 0u64, 0usize);
    let mut agrees = true;
    while traced_walls.is_empty() || secs(start) < seconds {
        let (samples, ests) = pass(&entries);
        plain_walls.push(samples.iter().map(Sample::normalized).sum::<f64>());
        let mut traced = 0.0;
        shards = 0;
        for (i, e) in entries.iter().enumerate() {
            let plan = mc_shards(e.trials, e.root);
            shards += plan.len();
            let trace = u32::try_from(i).expect("17 schemes");
            let top = spans.open("mc.scheme", trace, NO_SPAN);
            let mut timer = Timer::start(THREADS);
            let t = Instant::now();
            let outs = run_shards(THREADS, &plan, |_, &(n, s)| {
                replica_shard(e.scheme, n, s, trace, epoch)
            });
            let wall = Instant::now();
            traced += timer.lap().normalized();
            spans.close(top);
            wall_ns += ns(t, wall);
            let c = &mut sums[usize::from(e.heavy)];
            c.trials += e.trials;
            let mut failures = 0;
            for o in outs {
                for l in 0..LAYERS.len() {
                    c.layer_ns[l] += o.layer_ns[l];
                }
                c.flips += o.flips;
                failures += o.failures;
                busy_ns += o.busy_ns;
                spans.absorb(o.spans, top);
            }
            c.failures += failures;
            if failures != ests[i].failures {
                agrees = false;
                println!(
                    "trace mc {}: replica failures {failures} != word_error_rate_parallel {}",
                    e.scheme.name(),
                    ests[i].failures
                );
            }
        }
        traced_walls.push(traced);
        if first.is_empty() {
            first = ests;
        } else {
            later.push(ests);
        }
    }
    account(&entries, checks, &first, &later, tally);
    let passes = traced_walls.len() as f64;
    let mut out = Vec::new();
    for heavy in [false, true] {
        let c = &sums[usize::from(heavy)];
        let per_trial = |x: u64| x as f64 / c.trials as f64;
        for (l, name) in LAYERS.iter().enumerate() {
            out.push(Metric::new(
                format!("{name}.ns_per_trial.{}", class(heavy)),
                per_trial(c.layer_ns[l]),
                "ns",
            ));
        }
        out.push(Metric::new(
            format!("mc.channel.flips_per_trial.{}", class(heavy)),
            per_trial(c.flips),
            "count",
        ));
        out.push(Metric::new(
            format!("mc.failures.{}", class(heavy)),
            c.failures as f64 / passes,
            "count",
        ));
    }
    out.push(Metric::new(
        "trace.mc.replica_agrees",
        f64::from(u8::from(agrees)),
        "bool",
    ));
    out.push(Metric::new(
        "trace.mc.overhead_ratio",
        median(&traced_walls) / median(&plain_walls),
        "ratio",
    ));
    out.push(Metric::new(
        "exec.mc.busy_ratio",
        busy_ns as f64 / (THREADS as f64 * wall_ns as f64),
        "ratio",
    ));
    out.push(Metric::new("exec.mc.shards", shards as f64, "count"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_channel::montecarlo::word_error_rate;

    #[test]
    fn replica_matches_word_error_rate() {
        // Odd trial count: the last block is partial.
        for scheme in [Scheme::Hamming, Scheme::Dapbi, Scheme::BusInvert(8)] {
            let lib = word_error_rate(scheme, K, EPS, 20_001, 77);
            let rep = replica_shard(scheme, 20_001, 77, 0, Instant::now());
            assert_eq!(rep.failures, lib.failures, "{}", scheme.name());
            assert!(rep.flips > 0);
        }
    }

    #[test]
    fn lists_cover_the_catalog_once() {
        let mut listed: Vec<String> = LIGHT.iter().chain(&HEAVY).map(|s| s.name()).collect();
        let mut catalog: Vec<String> = Scheme::catalog().iter().map(|s| s.name()).collect();
        listed.sort();
        catalog.sort();
        assert_eq!(listed, catalog);
    }
}
