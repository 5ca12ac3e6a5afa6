//! `rare_grid`: `rare::certify` over the 48-cell oracle grid of
//! `bench::rare::sweep_cells(false)` — 16 schemes × {1e-2, 1e-3, deep ε}.
//!
//! The same codec and flip-sampling layers as `mc_sweep`, used another
//! way: buses of at most 12 wires and twisted ε of 0.02–0.5, so most
//! sampled words carry several flips. Every cell has an exact answer
//! from the enumeration oracle, which is the correctness check.

use std::hint::black_box;
use std::time::Instant;

use socbus_bench::rare::{sweep_cells, RareCell, MAX_WORDS_PER_CELL, TARGET_REL_CI};
use socbus_channel::rare::{
    certify, failure_profile, is_word_error, oracle_catalog, plan, Certification, Method,
    RareChannel,
};
use socbus_exec::shard_seed;

use crate::mc::HEAVY;
use crate::util::{
    median, ns, process_cpu_s, sample, secs, Measured, Metric, Sample, SpanLog, Tally, Timer,
    NO_SPAN, THREADS,
};

/// A cell passes when `|rate - exact| <= CI_TOLERANCE * ci95`. Four
/// half-widths stay robust to a change of RNG stream.
pub const CI_TOLERANCE: f64 = 4.0;
/// Words sampled when timing `is_word_error` at a cell's planned twist.
const TWIST_WORDS: u64 = 8_192;

fn cell_seed(seed: u64, i: usize) -> u64 {
    shard_seed(seed, i as u64)
}

fn heavy(cell: &RareCell) -> bool {
    HEAVY.contains(&cell.scheme)
}

fn channel(cell: &RareCell) -> RareChannel {
    RareChannel::Iid { eps: cell.eps }
}

/// Set-up: the grid, whose deep ε points come from the exact oracle.
pub fn setup() {
    black_box(sweep_cells(false));
}

/// Certifies one cell.
pub fn certify_cell(cell: &RareCell, seed: u64) -> Certification {
    certify(
        cell.scheme,
        cell.k,
        channel(cell),
        TARGET_REL_CI,
        MAX_WORDS_PER_CELL,
        seed,
        THREADS,
    )
}

/// The correctness check of one certification against the oracle.
pub fn cell_ok(cert: &Certification, exact: f64) -> bool {
    cert.converged && (cert.rate - exact).abs() <= CI_TOLERANCE * cert.ci95
}

fn method_label(method: &Method) -> String {
    match method {
        Method::Twist(t) => format!("twist(theta={},boost={})", t.theta, t.burst_boost),
        Method::Split(c) => format!("split(levels={:?},effort={})", c.levels, c.effort),
    }
}

fn check(tally: &mut Tally, cell: &RareCell, cert: &Certification, first: Option<&Certification>) {
    let repeats = first.is_none_or(|f| f == cert);
    tally.check(cell_ok(cert, cell.exact) && repeats, || {
        format!(
            "rare {} eps={:e}: rate {:e} ci95 {:e} exact {:e} converged {} repeats {repeats}",
            cell.scheme.name(),
            cell.eps,
            cert.rate,
            cert.ci95,
            cell.exact,
            cert.converged
        )
    });
}

/// One timed pass over the grid: a sample and the certification per cell.
fn pass(cells: &[RareCell], seed: u64) -> (Vec<Sample>, Vec<Certification>) {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            // The pilot and a first batch of one shard run on the calling
            // thread, and every cell here converges in its first batch:
            // calibrate on that one thread.
            let (cert, s) = sample(1, || certify_cell(cell, cell_seed(seed, i)));
            (s, cert)
        })
        .unzip()
}

/// The untraced measurement: passes over the grid for `seconds`; every
/// certification is a checked operation.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally, det: &mut Vec<String>) -> Measured {
    let cells = sweep_cells(false);
    let start = Instant::now();
    let mut m = Measured::default();
    let mut first: Vec<Certification> = Vec::new();
    while m.samples.is_empty() || secs(start) < seconds {
        let (samples, certs) = pass(&cells, seed);
        for (i, cert) in certs.iter().enumerate() {
            check(tally, &cells[i], cert, first.get(i));
        }
        m.samples.push(samples);
        if first.is_empty() {
            first = certs;
        }
    }
    for (i, (cell, cert)) in cells.iter().zip(&first).enumerate() {
        det.push(format!(
            "rare {} k={} eps={:e} method={} words={} rate={:e} ci95={:e} converged={}",
            cell.scheme.name(),
            cell.k,
            cell.eps,
            method_label(&cert.method),
            cert.words,
            cert.rate,
            cert.ci95,
            cert.converged
        ));
        let (half, ops) = if heavy(cell) {
            (&mut m.heavy, &mut m.heavy_ops)
        } else {
            (&mut m.light, &mut m.light_ops)
        };
        half.push(i);
        // Only certified cells count as work done.
        if cell_ok(cert, cell.exact) {
            *ops += 1.0;
        }
    }
    let words: u64 = first.iter().map(|c| c.words).sum();
    println!(
        "rare passes: {}  cells certified: {}/{}  words per pass: {words}",
        m.samples.len(),
        m.light_ops + m.heavy_ops,
        cells.len()
    );
    m
}

/// Per-class sums of the traced pass.
#[derive(Default)]
struct ClassSums {
    cells: u64,
    words: u64,
    twist_ns: u64,
    twist_words: u64,
}

/// The traced profile: untraced and traced passes alternate for
/// `seconds`. The traced pass times `plan` on its own, then `certify`
/// (which plans again inside), then `is_word_error` at the planned twist.
pub fn profile(seed: u64, seconds: f64, tally: &mut Tally, spans: &mut SpanLog) -> Vec<Metric> {
    let t = Instant::now();
    for (scheme, k) in oracle_catalog() {
        black_box(failure_profile(scheme, k));
    }
    let exact_s = secs(t);
    let cells = sweep_cells(false);
    let start = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first: Vec<Certification> = Vec::new();
    let mut sums = [ClassSums::default(), ClassSums::default()];
    let (mut plan_ns, mut certify_ns, mut plan_words, mut split_cells) = (0u64, 0u64, 0u64, 0u64);
    let (mut cert_cpu, mut cert_wall) = (0.0, 0.0);
    while traced_walls.is_empty() || secs(start) < seconds {
        let (samples, certs) = pass(&cells, seed);
        plain_walls.push(samples.iter().map(Sample::normalized).sum::<f64>());
        for (i, cert) in certs.iter().enumerate() {
            check(tally, &cells[i], cert, first.get(i));
        }
        if first.is_empty() {
            first = certs;
        }
        let mut traced = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let s = cell_seed(seed, i);
            let trace = u32::try_from(i).expect("48 cells");
            let top = spans.open("rare.cell", trace, NO_SPAN);
            let mut timer = Timer::start(1);
            let t0 = Instant::now();
            let planned = plan(cell.scheme, cell.k, channel(cell), s);
            let t1 = Instant::now();
            let cpu0 = process_cpu_s().unwrap_or(0.0);
            let cert = certify_cell(cell, s);
            let t2 = Instant::now();
            let cpu1 = process_cpu_s().unwrap_or(0.0);
            traced += timer.lap().normalized();
            spans.leaf("rare.plan", trace, top, t0, t1);
            spans.leaf("rare.certify", trace, top, t1, t2);
            plan_ns += ns(t0, t1);
            certify_ns += ns(t1, t2).saturating_sub(ns(t0, t1));
            cert_cpu += cpu1 - cpu0;
            cert_wall += t2.duration_since(t1).as_secs_f64();
            plan_words += planned.pilot_words;
            let c = &mut sums[usize::from(heavy(cell))];
            c.cells += 1;
            c.words += cert.words;
            match planned.method {
                Method::Twist(twist) => {
                    let a = Instant::now();
                    black_box(is_word_error(
                        cell.scheme,
                        cell.k,
                        channel(cell),
                        twist,
                        TWIST_WORDS,
                        s,
                    ));
                    let b = Instant::now();
                    spans.leaf("rare.twist", trace, top, a, b);
                    c.twist_ns += ns(a, b);
                    c.twist_words += TWIST_WORDS;
                }
                Method::Split(_) => split_cells += 1,
            }
            spans.close(top);
            check(tally, cell, &cert, first.get(i));
        }
        traced_walls.push(traced);
    }
    let passes = traced_walls.len() as f64;
    let [light, heavy_sums] = &sums;
    let per = |x: u64, n: u64| x as f64 / n as f64;
    vec![
        Metric::new("rare.plan.s", plan_ns as f64 / 1e9 / passes, "s"),
        Metric::new("rare.plan.words", plan_words as f64 / passes, "count"),
        Metric::new("rare.certify.s", certify_ns as f64 / 1e9 / passes, "s"),
        Metric::new(
            "rare.words_per_cell.light",
            per(light.words, light.cells),
            "count",
        ),
        Metric::new(
            "rare.words_per_cell.heavy",
            per(heavy_sums.words, heavy_sums.cells),
            "count",
        ),
        Metric::new(
            "rare.twist.ns_per_word.light",
            per(light.twist_ns, light.twist_words),
            "ns",
        ),
        Metric::new(
            "rare.twist.ns_per_word.heavy",
            per(heavy_sums.twist_ns, heavy_sums.twist_words),
            "ns",
        ),
        Metric::new("rare.split_cells", split_cells as f64 / passes, "count"),
        Metric::new("rare.exact.setup_s", exact_s, "s"),
        Metric::new(
            "exec.rare.busy_ratio",
            cert_cpu / (THREADS as f64 * cert_wall),
            "ratio",
        ),
        Metric::new(
            "trace.rare.overhead_ratio",
            median(&traced_walls) / median(&plain_walls),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_codes::Scheme;

    fn hamming_cell(scheme: Scheme) -> RareCell {
        let profile = failure_profile(Scheme::Hamming, 6);
        RareCell {
            scheme,
            k: 6,
            wires: profile.wires,
            eps: 1e-2,
            exact: profile.wer(1e-2),
            deep: false,
        }
    }

    #[test]
    fn hamming_certifies_against_its_own_oracle() {
        let cell = hamming_cell(Scheme::Hamming);
        assert!(cell_ok(&certify_cell(&cell, 3), cell.exact));
    }

    #[test]
    fn sabotaged_decoder_fails_against_hamming_oracle() {
        let cell = hamming_cell(Scheme::Sabotaged);
        let cert = certify_cell(&cell, 3);
        assert!(!cell_ok(&cert, cell.exact), "{cert:?}");
        let mut tally = Tally::default();
        check(&mut tally, &cell, &cert, None);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
