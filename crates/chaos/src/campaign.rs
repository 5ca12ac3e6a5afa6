//! The soak campaign on the deterministic parallel engine.
//!
//! The campaign grid — every catalog scheme × every schedule family —
//! is a *static shard list*: one cell is one shard, named and seeded by
//! its grid position alone. Worker threads claim cells from the engine's
//! atomic queue, each cell constructs its own `PathSim` (and, when
//! observed, its own private recorder via [`Observe::cell`]) *inside*
//! the shard, and the outcomes merge in grid order. The rendered JSON
//! is therefore byte-identical for `--threads 1` and `--threads N` —
//! the property CI pins by running the bins at both and `cmp`-ing.
//!
//! This module is the single implementation behind `cargo run --bin
//! soak`, `cargo run --bin chaos -- run` and `chaos control` (the
//! controller campaign: the same runner over a different grid).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use socbus_codes::Scheme;
use socbus_exec::{run_shards, RunOpts};
use socbus_telemetry::json::sci;
use socbus_telemetry::{
    write_output, HealthAggregator, HealthConfig, HealthReport, Observation, Observe, Recorder,
    Telemetry,
};

use crate::cli::{
    build_case, build_control_case, replay_text_with, write_repro, DEFAULT_DATA_BITS,
};
use crate::monitor::InvariantKind;
use crate::runner::{run_case_with, CaseConfig, CaseOutcome};
use crate::schedule::ScheduleFamily;

/// Words per case in the default campaign.
pub const FULL_WORDS: u64 = 2_000;
/// Words per case in the `--smoke` campaign (CI).
pub const SMOKE_WORDS: u64 = 300;
/// Hops per case.
pub const HOPS: usize = 3;

/// The static shard list: one campaign cell per (scheme, family) grid
/// position, seeded deterministically from that position.
#[must_use]
pub fn campaign_cells(words: u64) -> Vec<(Scheme, ScheduleFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::catalog().into_iter().enumerate() {
        for (fi, family) in ScheduleFamily::all().into_iter().enumerate() {
            // The seed fixes the schedule AND the protocol flavour
            // (correcting schemes alternate FEC / backoff-ARQ by parity).
            let seed = (si * ScheduleFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    debug_assert!(words > 0);
    cells
}

/// One campaign cell: scheme, schedule family and seed.
type Cell = (Scheme, ScheduleFamily, u64);

/// Builds one case from a campaign cell: [`build_case`] for the soak
/// campaign, [`build_control_case`] for the controller campaign.
pub type CaseBuilder = fn(Scheme, ScheduleFamily, u64, u64, usize) -> CaseConfig;

/// The flags `soak`, `chaos run` and `chaos control` accept.
pub const FLAGS: &[&str] = &["--smoke", "--threads", "--trace-out", "--health-out"];

/// Runs `cells` (each case built by `build` at `words` words) on up to
/// `threads` workers under `observe`: one sub-run per cell, named after
/// the case. Outcomes, the merged recording and the incident report come
/// back in grid order, identical for every thread count (cells are
/// independent and self-seeded).
#[must_use]
pub fn run_cases(
    cells: &[(Scheme, ScheduleFamily, u64)],
    words: u64,
    build: CaseBuilder,
    threads: usize,
    observe: &Observe,
) -> (Vec<(String, CaseOutcome)>, Observation) {
    observe.merge(run_shards(threads, cells, |_, &(scheme, family, seed)| {
        let cfg = build(scheme, family, seed, words, HOPS);
        observe.cell(|obs| {
            let out = obs.run(&cfg.name, |sub| run_case_with(&cfg, sub.telemetry()));
            (cfg.name.clone(), out)
        })
    }))
}

/// Runs the campaign *sequentially* with one shared telemetry handle —
/// the overhead-gate hook (`bench --bin overhead` times every
/// instrumentation site dispatching into a single sink, which is
/// inherently a one-thread measurement). Parallel runs use
/// [`run_cases`] instead; its merged recording matches this one's.
#[must_use]
pub fn run_campaign_with(words: u64, tel: Telemetry) -> Vec<(String, CaseOutcome)> {
    campaign_cells(words)
        .into_iter()
        .map(|(scheme, family, seed)| {
            let cfg = build_case(scheme, family, seed, words, HOPS);
            let name = cfg.name.clone();
            (name, run_case_with(&cfg, tel.clone()))
        })
        .collect()
}

/// Renders the campaign JSON.
#[must_use]
pub fn render_json(words: u64, outcomes: &[(String, CaseOutcome)]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DEFAULT_DATA_BITS},");
    let _ = writeln!(json, "  \"hops\": {HOPS},");
    let _ = writeln!(json, "  \"words_per_case\": {words},");
    json.push_str("  \"cases\": [\n");
    let mut first = true;
    for (name, out) in outcomes {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let retransmits: u64 = out.report.per_hop.iter().map(|h| h.retransmits).sum();
        let transitions: usize = out.report.per_hop.iter().map(|h| h.transitions.len()).sum();
        json.push_str("    {");
        let _ = write!(json, "\"case\": \"{name}\", ");
        let _ = write!(json, "\"violations\": {}, ", out.violations.len());
        let _ = write!(json, "\"worst_word_cycles\": {}, ", out.worst_word_cycles);
        let _ = write!(json, "\"budget_cycles\": {}, ", out.budget_cycles);
        let _ = write!(json, "\"e2e_errors\": {}, ", out.report.end_to_end_errors);
        let control: usize = out.report.per_hop.iter().map(|h| h.control.len()).sum();
        let _ = write!(json, "\"retransmits\": {retransmits}, ");
        let _ = write!(json, "\"transitions\": {transitions}, ");
        let _ = write!(json, "\"control_transitions\": {control}, ");
        let _ = write!(
            json,
            "\"cycles_per_word\": {}",
            sci(out.report.cycles_per_word())
        );
        json.push('}');
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"invariants\": {\n");
    let mut first = true;
    for kind in InvariantKind::all() {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let (checked, violated) = outcomes
            .iter()
            .flat_map(|(_, out)| out.stats.iter())
            .filter(|(k, _)| *k == kind)
            .fold((0u64, 0u64), |(c, v), (_, s)| {
                (c + s.checked, v + s.violated)
            });
        let _ = write!(
            json,
            "    \"{}\": {{\"checked\": {checked}, \"violated\": {violated}}}",
            kind.name()
        );
    }
    json.push_str("\n  },\n");
    let worst = outcomes
        .iter()
        .map(|(_, out)| out.worst_word_cycles)
        .max()
        .unwrap_or(0);
    let violations: usize = outcomes.iter().map(|(_, out)| out.violations.len()).sum();
    let _ = writeln!(json, "  \"worst_word_cycles\": {worst},");
    let _ = writeln!(json, "  \"violations\": {violations}");
    json.push_str("}\n");
    json
}

/// The campaign entry point shared by `soak` and `chaos run`.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn campaign_main(args: &[String]) -> i32 {
    case_campaign_main(
        "soak",
        args,
        "results/BENCH_soak.json",
        build_case,
        |smoke| {
            let words = if smoke { SMOKE_WORDS } else { FULL_WORDS };
            (campaign_cells(words), words)
        },
    )
}

/// The body of [`campaign_main`] and [`control_main`]: `grid` picks the
/// cells and words per case for `--smoke` or the full run.
fn case_campaign_main(
    bin: &str,
    args: &[String],
    default_out: &str,
    build: CaseBuilder,
    grid: fn(bool) -> (Vec<Cell>, u64),
) -> i32 {
    let Some(opts) = RunOpts::parse(bin, FLAGS, args) else {
        return 2;
    };
    let (cells, words) = grid(opts.smoke);
    let observe = Observe::for_outputs(opts.trace_out.is_some(), opts.health_out.is_some());
    let started = std::time::Instant::now();
    let (outcomes, seen) = run_cases(&cells, words, build, opts.threads, &observe);
    let wall = started.elapsed();
    for (name, out) in &outcomes {
        let control: usize = out.report.per_hop.iter().map(|h| h.control.len()).sum();
        eprintln!(
            "{name:<30} latency {:>3}/{:<3}  e2e {:>4}  control {:>3}  violations {}",
            out.worst_word_cycles,
            out.budget_cycles,
            out.report.end_to_end_errors,
            control,
            out.violations.len()
        );
    }
    let out_path = opts.out_or(default_out);
    if let Err(e) = seen.write_artefacts(
        bin,
        out_path,
        &render_json(words, &outcomes),
        opts.trace_out.as_deref(),
        opts.health_out.as_deref(),
        &mut std::io::stderr(),
    ) {
        eprintln!("{bin}: {e}");
        return 2;
    }
    let violations: usize = outcomes.iter().map(|(_, out)| out.violations.len()).sum();
    eprintln!(
        "{bin}: {} cases x {words} words on {} thread(s) in {:.2}s -> {out_path} ({violations} violation(s))",
        outcomes.len(),
        opts.threads,
        wall.as_secs_f64()
    );
    if violations == 0 {
        return 0;
    }
    let first = cells
        .iter()
        .zip(&outcomes)
        .find_map(|(cell, (name, out))| Some((cell, name, out.violations.first()?)));
    if let Some((&(scheme, family, seed), name, v)) = first {
        let cfg = build(scheme, family, seed, words, HOPS);
        write_reproducer(
            bin,
            name,
            &v.detail,
            |dir| write_repro(&cfg, v, dir),
            |text, tel| replay_text_with(text, tel).is_ok(),
            None,
        );
    }
    1
}

/// The artefact tail of a campaign that found a violation: `shrink`
/// writes the shrunken reproducer of the first violating cell under
/// `results/repro/`, `replay` re-runs it under telemetry (false when the
/// file does not parse), and a Perfetto trace of the replay — plus, given
/// `health`, its incident report with one scope named `name` — lands
/// next to it.
pub(crate) fn write_reproducer(
    bin: &str,
    name: &str,
    detail: &str,
    shrink: impl FnOnce(&Path) -> Result<PathBuf, String>,
    replay: impl FnOnce(&str, Telemetry) -> bool,
    health: Option<&HealthConfig>,
) {
    eprintln!("{bin}: {name} violated: {detail}");
    let file = match shrink(Path::new("results/repro")) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("{bin}: shrink failed: {e}");
            return;
        }
    };
    eprintln!("{bin}: reproducer written to {}", file.display());
    let rec = Rc::new(Recorder::new());
    let replayed = std::fs::read_to_string(&file)
        .is_ok_and(|text| replay(&text, Telemetry::from_recorder(&rec)));
    if !replayed {
        return;
    }
    let mut written = vec![(
        "trace",
        format!("{}.trace.json", file.display()),
        rec.export_chrome_trace(),
    )];
    if let Some(cfg) = health {
        let mut report = HealthReport::new();
        report.push_scope(HealthAggregator::scope_from_recorder(name, cfg, &rec));
        written.push((
            "incident report",
            format!("{}.health.json", file.display()),
            report.serialize(),
        ));
    }
    for (what, path, contents) in written {
        match write_output(&path, &contents) {
            Ok(()) => eprintln!("{bin}: {what} written to {path}"),
            Err(e) => eprintln!("{bin}: {e}"),
        }
    }
}

/// The closed-loop controller campaign grid: every detecting scheme in
/// the catalog × every schedule family, seeded by grid position (the
/// non-detecting schemes give the controller no trouble signal and are
/// exercised by the soak campaign instead).
#[must_use]
pub fn control_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::detecting().into_iter().enumerate() {
        for (fi, family) in ScheduleFamily::all().into_iter().enumerate() {
            let seed = (si * ScheduleFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    cells
}

/// The `--smoke` subset of [`control_cells`]: one cell per schedule
/// family (each with a different detecting scheme), so CI covers all
/// four fault families without running the full grid.
#[must_use]
pub fn control_smoke_cells() -> Vec<(Scheme, ScheduleFamily, u64)> {
    let schemes = Scheme::detecting();
    let families = ScheduleFamily::all();
    families
        .into_iter()
        .enumerate()
        .map(|(fi, family)| {
            let si = fi % schemes.len();
            let seed = (si * families.len() + fi) as u64 + 1;
            (schemes[si], family, seed)
        })
        .collect()
}

/// The controller campaign entry point behind `chaos control`.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn control_main(args: &[String]) -> i32 {
    case_campaign_main(
        "chaos control",
        args,
        "results/BENCH_control.json",
        build_control_case,
        |smoke| {
            if smoke {
                (control_smoke_cells(), SMOKE_WORDS)
            } else {
                (control_cells(), FULL_WORDS)
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Campaign shards cross threads: the cell descriptor and the cell
    /// outcome must both be `Send` (the sims themselves are
    /// shard-constructed and never cross).
    #[test]
    fn campaign_shard_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<(Scheme, ScheduleFamily, u64)>();
        assert_send::<(String, CaseOutcome)>();
    }

    fn soak(threads: usize, observe: &Observe) -> (Vec<(String, CaseOutcome)>, Observation) {
        let cells = campaign_cells(SMOKE_WORDS);
        run_cases(&cells, SMOKE_WORDS, build_case, threads, observe)
    }

    /// The tentpole property at campaign level: outcomes and rendered
    /// JSON are identical across runs and thread counts, and the smoke
    /// campaign is clean — the exact properties the CI soak job
    /// re-checks with real runs.
    #[test]
    fn campaign_json_is_thread_count_invariant() {
        let (one, _) = soak(1, &Observe::Off);
        let (many, _) = soak(8, &Observe::Off);
        assert_eq!(
            render_json(SMOKE_WORDS, &one),
            render_json(SMOKE_WORDS, &many)
        );
        let first = one.iter().find_map(|(_, out)| out.violations.first());
        assert!(first.is_none(), "first violation: {first:?}");
    }

    /// Traced campaign: identical outcomes, and the merged recording is
    /// itself thread-count invariant (export byte-compare).
    #[test]
    fn traced_campaign_is_thread_count_invariant_and_matches_untraced() {
        let (plain, _) = soak(2, &Observe::Off);
        let (traced_one, seen_one) = soak(1, &Observe::Trace);
        let (traced_many, seen_many) = soak(8, &Observe::Trace);
        let rec_one = seen_one.recorder.expect("traced");
        let rec_many = seen_many.recorder.expect("traced");
        for ((pn, po), (tn, to)) in plain.iter().zip(&traced_one) {
            assert_eq!(pn, tn);
            assert_eq!(po.report, to.report, "{pn}: telemetry must not perturb");
            assert_eq!(po.violations, to.violations);
        }
        assert_eq!(
            traced_one
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            traced_many
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
        );
        assert_eq!(rec_one.export_jsonl(), rec_many.export_jsonl());
        assert_eq!(
            rec_one.export_chrome_trace(),
            rec_many.export_chrome_trace()
        );
    }

    /// The control campaign: byte-identical JSON across thread counts,
    /// full detecting-scheme coverage, and zero safe-state violations in
    /// the smoke grid.
    #[test]
    fn control_campaign_is_thread_count_invariant_and_safe() {
        let cells = control_smoke_cells();
        assert_eq!(cells.len(), ScheduleFamily::all().len());
        let (one, _) = run_cases(&cells, SMOKE_WORDS, build_control_case, 1, &Observe::Off);
        let (many, _) = run_cases(&cells, SMOKE_WORDS, build_control_case, 8, &Observe::Off);
        assert_eq!(
            render_json(SMOKE_WORDS, &one),
            render_json(SMOKE_WORDS, &many)
        );
        for (name, out) in &one {
            assert_eq!(
                out.violations,
                vec![],
                "{name} must hold every invariant: {:?}",
                out.violations.first()
            );
        }
        let full = control_cells();
        assert_eq!(
            full.len(),
            Scheme::detecting().len() * ScheduleFamily::all().len()
        );
        for &(scheme, ..) in &full {
            assert!(scheme.detects_errors());
        }
    }

    /// ISSUE 4 satellite: every catalog scheme (the sabotage self-test
    /// scheme stays excluded) appears in the soak campaign cell list, so
    /// a newly cataloged scheme cannot silently skip the soak matrix.
    #[test]
    fn campaign_covers_every_catalog_scheme() {
        let cells = campaign_cells(SMOKE_WORDS);
        for scheme in Scheme::catalog() {
            assert!(
                ScheduleFamily::all()
                    .iter()
                    .all(|family| cells.iter().any(|&(s, f, _)| s == scheme && f == *family)),
                "{} missing from the soak campaign",
                scheme.name()
            );
        }
        assert!(
            cells.iter().all(|&(s, _, _)| s != Scheme::Sabotaged),
            "the planted-fault scheme must stay out of the campaign"
        );
        assert_eq!(
            cells.len(),
            Scheme::catalog().len() * ScheduleFamily::all().len()
        );
        // Seeds are unique, so no two cells share a schedule stream.
        let mut seeds: Vec<u64> = cells.iter().map(|&(_, _, s)| s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len());
    }
}
