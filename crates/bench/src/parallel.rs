//! Parallel-engine wall-clock benchmark: times the three sharded hot
//! paths — Monte-Carlo word-error measurement, the reliability sweep,
//! and the soak smoke campaign — at `--threads 1` versus `--threads N`,
//! verifies the outputs are identical (the engine's core guarantee),
//! and records wall-clock plus speedup in `results/BENCH_parallel.json`
//! so the performance trajectory finally has data.
//!
//! Unlike every other results/ file this one holds *wall-clock* numbers:
//! it is machine-dependent by nature and is **not** expected to be
//! byte-reproducible. The determinism claims live in the JSON the
//! workloads themselves write (BENCH_soak.json, BENCH_reliability.json),
//! which CI byte-compares across thread counts.
//!
//! Run with `cargo run --release -p socbus-bench --bin parallel`
//! (`--threads N` to override the measured worker count, default
//! available parallelism).

use std::fmt::Write as _;
use std::time::Instant;

use crate::reliability::{render_json as render_sweep, run_sweep};
use socbus_channel::word_error_rate_parallel;
use socbus_chaos::build_case;
use socbus_chaos::campaign::{
    campaign_cells, render_json as render_campaign, run_cases, SMOKE_WORDS,
};
use socbus_codes::Scheme;
use socbus_exec::{default_threads, RunOpts};
use socbus_telemetry::{write_output, Observe};

/// Monte-Carlo trials for the `montecarlo` workload (≈31 shards).
const MC_TRIALS: u64 = 2_000_000;

/// Times `run` at 1 thread and at `threads`, asserting the outputs
/// (rendered to comparable strings by `fingerprint`) are identical.
fn measure<R>(
    name: &str,
    threads: usize,
    run: impl Fn(usize) -> R,
    fingerprint: impl Fn(&R) -> String,
) -> (String, f64, f64) {
    let start = Instant::now();
    let one = run(1);
    let secs_1t = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let many = run(threads);
    let secs_nt = start.elapsed().as_secs_f64();
    assert_eq!(
        fingerprint(&one),
        fingerprint(&many),
        "{name}: outputs must not depend on the thread count"
    );
    eprintln!(
        "{name:<18} 1t {secs_1t:>7.3}s  {threads}t {secs_nt:>7.3}s  speedup {:.2}x",
        secs_1t / secs_nt
    );
    (name.to_owned(), secs_1t, secs_nt)
}

/// The flags the `parallel` binary accepts.
pub const FLAGS: &[&str] = &["--threads"];

/// The `parallel` binary's entry point.
/// Args: `[--threads N] [out_path]`.
/// Returns the process exit code.
#[must_use]
pub fn main_with_args(args: &[String]) -> i32 {
    let Some(opts) = RunOpts::parse("parallel", FLAGS, args) else {
        return 2;
    };
    let threads = opts.threads;
    let out_path = opts.out_or("results/BENCH_parallel.json");

    let rows = [
        measure(
            "montecarlo",
            threads,
            |t| word_error_rate_parallel(Scheme::Dap, 16, 5e-3, MC_TRIALS, 17, t),
            |est| format!("{est:?}"),
        ),
        measure(
            "reliability_sweep",
            threads,
            |t| run_sweep(t, &Observe::Off).0,
            |runs| render_sweep(runs),
        ),
        measure(
            "soak_smoke",
            threads,
            |t| {
                let cells = campaign_cells(SMOKE_WORDS);
                run_cases(&cells, SMOKE_WORDS, build_case, t, &Observe::Off).0
            },
            |outcomes| render_campaign(SMOKE_WORDS, outcomes),
        ),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {},", default_threads());
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"workloads\": [\n");
    let mut first = true;
    for (name, secs_1t, secs_nt) in &rows {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"secs_1t\": {secs_1t:.3}, \"secs_nt\": {secs_nt:.3}, \
             \"speedup\": {:.3}}}",
            secs_1t / secs_nt
        );
    }
    json.push_str("\n  ]\n}\n");
    if let Err(e) = write_output(out_path, &json) {
        eprintln!("parallel: {e}");
        return 2;
    }
    eprintln!("parallel: wrote {out_path} ({threads} thread(s))");
    0
}
