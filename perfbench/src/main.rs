//! The socbus benchmark: three closed-loop batch workloads, timed end to
//! end from an untraced run and layer by layer from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc_sweep|rare_grid|mesh_fabric> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of the named workload; with
//! `--trace 1` they are the per-layer ones of all three workloads (every
//! traced run reports every layer), and the spans are written to
//! `perfbench/out/`. See README.md for the workloads and the metrics.

mod mc;
mod mesh;
mod rare;
mod util;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use util::{digest, median, peak_rss_mib, Metric, SpanLog, Tally, THREADS};

const USAGE: &str = "usage: perfbench --workload <mc_sweep|rare_grid|mesh_fabric> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Fresh-process set-ups whose median is `setup_s`.
const SETUP_PROBES: usize = 7;
/// Spans kept in memory per profiled workload.
const SPAN_CAP: usize = 1 << 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    McSweep,
    RareGrid,
    MeshFabric,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::McSweep, Workload::RareGrid, Workload::MeshFabric];

    fn name(self) -> &'static str {
        match self {
            Workload::McSweep => "mc_sweep",
            Workload::RareGrid => "rare_grid",
            Workload::MeshFabric => "mesh_fabric",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn setup(self, seed: u64) {
        match self {
            Workload::McSweep => mc::setup(seed),
            Workload::RareGrid => rare::setup(),
            Workload::MeshFabric => mesh::setup(seed),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time one set-up in this fresh process and exit.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::McSweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes, so each
/// sample pays the cold costs (codebook caches, lazy tables) a user pays
/// once per run. Each probe runs a calibration round first, and its
/// time is expressed at the reference host speed like the throughputs.
fn setup_s(workload: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let probe = text.lines().last().and_then(|l| {
            let mut f = l.strip_prefix("setup_s ")?.split(' ');
            let wall = f.next()?.parse::<f64>().ok()?;
            let calib = f.next()?.parse::<f64>().ok()?;
            Some((wall, calib))
        });
        match (out.status.success(), probe) {
            (true, Some((wall, calib))) => samples.push(wall / calib * util::calib_ref_s(1)),
            _ => return Err(format!("setup probe failed: {}", out.status)),
        }
    }
    Ok(median(&samples))
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc {nproc}, threads {THREADS}, profile {profile}; workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    if args.trace {
        // Every traced run profiles all three workloads, so each reports
        // every per-layer metric; each gets a third of the time.
        let share = args.seconds / 3.0;
        let epoch = Instant::now();
        let mut spans = SpanLog::new(epoch, 3 * SPAN_CAP);
        type Profile = fn(u64, f64, &mut Tally, &mut SpanLog) -> Vec<Metric>;
        for profile in [mc::profile as Profile, rare::profile, mesh::profile] {
            let mut own = SpanLog::new(epoch, SPAN_CAP);
            metrics.extend(profile(args.seed, share, &mut tally, &mut own));
            spans.absorb(own, util::NO_SPAN);
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        match spans.write_chrome(&path) {
            Ok(()) => println!("spans: {} (dropped {})", path.display(), spans.dropped),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        for m in &metrics {
            println!("layer {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("note: mesh.self_ns_per_transfer.* is computed (step time per transfer minus link.transfer.ns), not measured");
    } else {
        let setup = setup_s(args.workload, args.seed)?;
        let mut det = Vec::new();
        let measured = match args.workload {
            Workload::McSweep => mc::measure(args.seed, args.seconds, &mut tally, &mut det),
            Workload::RareGrid => rare::measure(args.seed, args.seconds, &mut tally, &mut det),
            Workload::MeshFabric => mesh::measure(args.seed, args.seconds, &mut tally, &mut det),
        };
        let raw = measured.throughput(false);
        let tp = measured.throughput(true);
        println!(
            "as measured (median wall per item): ops_per_s {} light_ops_per_s {} heavy_ops_per_s {}",
            raw.all, raw.light, raw.heavy
        );
        println!(
            "host slowdown against the reference (median calibration ratio): {}",
            measured.slowdown()
        );
        println!(
            "at reference host speed (reported): ops_per_s {} light_ops_per_s {} heavy_ops_per_s {}",
            tp.all, tp.light, tp.heavy
        );
        println!("--- deterministic section ({}) ---", args.workload.name());
        for line in &det {
            println!("det {line}");
        }
        println!("digest {} {:016x}", args.workload.name(), digest(&det));
        let rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        metrics = vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("peak_rss_mib", rss, "MiB"),
            Metric::new("ops_per_s", tp.all, "1/s"),
            Metric::new("light_ops_per_s", tp.light, "1/s"),
            Metric::new("heavy_ops_per_s", tp.heavy, "1/s"),
        ];
    }
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let (_, s) = util::sample(1, || args.workload.setup(args.seed));
        println!("setup_s {} {}", s.wall, s.calib);
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok((tally, metrics)) => {
            println!("{}", json_line(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
