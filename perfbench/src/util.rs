//! Shared plumbing: metrics, operation accounting, statistics, host
//! counters read from `/proc`, the deterministic-section digest, and the
//! in-memory span log the traced run writes out at exit.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Worker threads for every parallel call (the 2-core reference host).
pub const THREADS: usize = 2;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations checked for correctness, and how many failed the check.
/// Failures are listed by name so the report says which ones.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// The timed passes of one workload: `samples[pass][item]`, which items
/// form its light and its heavy half, and the operations each half
/// completes per pass (see README.md for what they are per workload).
#[derive(Debug, Default)]
pub struct Measured {
    pub samples: Vec<Vec<Sample>>,
    pub light: Vec<usize>,
    pub heavy: Vec<usize>,
    pub light_ops: f64,
    pub heavy_ops: f64,
}

/// Operations per second of the light half, the heavy half and the
/// whole workload.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    pub light: f64,
    pub heavy: f64,
    pub all: f64,
}

impl Measured {
    /// Median over all samples of calibration time over its reference:
    /// how much slower than the reference the host ran (1 = as fast).
    pub fn slowdown(&self) -> f64 {
        let ratios: Vec<f64> = self
            .samples
            .iter()
            .flatten()
            .map(|s| s.calib / s.calib_ref)
            .collect();
        median(&ratios)
    }

    pub fn throughput(&self, normalized: bool) -> Throughput {
        let light_s = item_seconds(&self.samples, self.light.iter().copied(), normalized);
        let heavy_s = item_seconds(&self.samples, self.heavy.iter().copied(), normalized);
        Throughput {
            light: self.light_ops / light_s,
            heavy: self.heavy_ops / heavy_s,
            all: (self.light_ops + self.heavy_ops) / (light_s + heavy_s),
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Iterations of one calibration round per thread (about 2 ms).
const CALIB_ITERS: u32 = 10_000;
/// Chunks each thread's share of a calibration round is cut into.
const CALIB_CHUNKS: usize = 8;
/// Fixed times near one calibration round on 1 and on 2 threads on the
/// reference host: the host speed normalized times are expressed at.
const CALIB_REF_S: [f64; 2] = [1.95e-3, 1.75e-3];

/// [`CALIB_REF_S`] for a round on `threads` threads.
pub fn calib_ref_s(threads: usize) -> f64 {
    CALIB_REF_S[usize::from(threads > 1)]
}

/// One calibration round on `threads` threads at once, returning wall
/// seconds. The round is benchmark code no change to the program under
/// test reaches: ordered-map and queue churn driven by a fixed xorshift
/// stream. It allocates, chases pointers and branches like the
/// simulators do, so contention slows it as much as it slows them; an
/// integer-only loop tracked them about half as well. On several threads
/// the round is [`CALIB_CHUNKS`] chunks per thread claimed from a shared
/// counter, so, like the sharded workloads, a fast core takes over work
/// from a contended one.
pub fn calibrate(threads: usize) -> f64 {
    let t = Instant::now();
    if threads <= 1 {
        churn(CALIB_ITERS);
    } else {
        let chunks = threads * CALIB_CHUNKS;
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while next.fetch_add(1, Ordering::Relaxed) < chunks {
                        churn(CALIB_ITERS / CALIB_CHUNKS as u32);
                    }
                });
            }
        });
    }
    secs(t)
}

/// `iters` steps of ordered-map and queue churn.
fn churn(iters: u32) {
    let mut map = BTreeMap::new();
    let mut queue = VecDeque::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
        queue.push_back(x);
        if queue.len() > 64 {
            let old = queue.pop_front().expect("queue is not empty");
            map.remove(&(old % 4096));
        }
    }
    black_box(map.len());
}

/// One timed item (a scheme's estimate, a cell) and the mean of the
/// calibration rounds run on the same threads just before and after it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall: f64,
    pub calib: f64,
    /// `calib` of the same rounds on the reference host.
    pub calib_ref: f64,
}

impl Sample {
    /// The wall time at the reference host speed.
    pub fn normalized(&self) -> f64 {
        self.wall / self.calib * self.calib_ref
    }
}

/// Times consecutive stretches of work, each between two calibration
/// rounds on `threads` threads; the round after one stretch is the
/// round before the next.
pub struct Timer {
    threads: usize,
    before: f64,
    start: Instant,
}

impl Timer {
    pub fn start(threads: usize) -> Timer {
        let before = calibrate(threads);
        Timer {
            threads,
            before,
            start: Instant::now(),
        }
    }

    /// Ends the current stretch and starts the next.
    pub fn lap(&mut self) -> Sample {
        let wall = secs(self.start);
        let after = calibrate(self.threads);
        let s = Sample {
            wall,
            calib: (self.before + after) / 2.0,
            calib_ref: calib_ref_s(self.threads),
        };
        self.before = after;
        self.start = Instant::now();
        s
    }
}

/// Times `f` between two calibration rounds on `threads` threads.
pub fn sample<T>(threads: usize, f: impl FnOnce() -> T) -> (T, Sample) {
    let mut timer = Timer::start(threads);
    let out = f();
    (out, timer.lap())
}

/// Seconds of the given items, as measured (`normalized = false`: per
/// item the median wall time over passes) or at the reference host
/// speed (`normalized = true`: per item the median over passes of
/// `wall / calib`, times the round's reference time). `samples[pass][item]`.
///
/// A shared host can slow by up to half for seconds to minutes at a
/// time; a slowdown stretches the item and its calibration rounds
/// alike, so their ratio repeats where the wall time does not.
pub fn item_seconds(
    samples: &[Vec<Sample>],
    items: impl Iterator<Item = usize>,
    normalized: bool,
) -> f64 {
    items
        .map(|i| {
            let per_pass: Vec<f64> = samples
                .iter()
                .map(|pass| {
                    if normalized {
                        pass[i].normalized()
                    } else {
                        pass[i].wall
                    }
                })
                .collect();
            median(&per_pass)
        })
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds of this process, exited threads
/// included, from `/proc/self/stat` (clock ticks at the Linux default
/// `USER_HZ` of 100).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// FNV-1a 64 over the deterministic section's lines.
pub fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds from `a` to `b`.
pub fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Span id returned when the log is full; closing it is a no-op.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span: a layer call, timed from the benchmark's side.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// Groups the spans of one operation (a scheme or a cell).
    trace: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out once, at exit. Spans past
/// `cap` are counted, not kept, so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, cap: usize) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// The instant span times count from (shared with shard-local logs).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a parent span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, trace: u32, parent: u32) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_SPAN;
        }
        let start_ns = ns(self.epoch, Instant::now());
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len() - 1).expect("cap fits in u32")
    }

    pub fn close(&mut self, id: u32) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = ns(self.epoch, Instant::now());
        }
    }

    /// Records a finished leaf span.
    pub fn leaf(&mut self, name: &'static str, trace: u32, parent: u32, a: Instant, b: Instant) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: ns(self.epoch, a),
            end_ns: ns(self.epoch, b),
        });
    }

    /// Appends a log recorded on another thread; its root spans become
    /// children of `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: u32) {
        self.dropped += other.dropped;
        let offset = u32::try_from(self.spans.len()).expect("cap fits in u32");
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            s.parent = if s.parent == NO_SPAN {
                parent
            } else {
                s.parent + offset
            };
            self.spans.push(s);
        }
    }

    /// Writes the spans as a Chrome/Perfetto `trace_event` JSON file,
    /// one track per operation.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.trace,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
        let _ = writeln!(
            out,
            "],\"otherData\":{{\"spans\":{},\"dropped\":{}}}}}",
            self.spans.len(),
            self.dropped
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn full_span_log_counts_instead_of_growing() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 2);
        let root = log.open("root", 0, NO_SPAN);
        log.leaf("a", 0, root, epoch, Instant::now());
        log.leaf("b", 0, root, epoch, Instant::now());
        log.close(root);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.dropped, 1);
    }
}
