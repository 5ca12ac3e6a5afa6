//! `mesh_fabric`: the 4×4 uniform mesh at saturation rate 0.9 (600
//! injection cycles plus a drain of at most 8,000), every catalog scheme
//! under two scenarios, cells one after another on one thread.
//!
//! The link set-up is `bench::mesh`'s: `protocol_for(scheme,
//! bench::mesh::SEED)`. Each scheme gets its own simulation and traffic
//! seed from the workload seed, shared by its two scenarios, so the 17
//! cells of a scenario are independent draws and the pair differs only
//! in the downed link. This workload runs the scalar codecs inside
//! `LinkEngine`; it bypasses the batch codecs and the MC sampler.
//!
//! * `clean` mostly loads `noc::link` (one transfer per hop).
//! * `link_down` (directed link 0 down) mostly loads the `noc::mesh`
//!   timers and queues: rerouted traffic congests, and source NIs
//!   time out and retransmit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use socbus_bench::mesh::{
    CYCLES, DATA_BITS, DRAIN_CYCLES, HEIGHT, SATURATION_RATE, SEED as PROTOCOL_SEED, WIDTH,
};
use socbus_chaos::protocol_for;
use socbus_codes::Scheme;
use socbus_exec::shard_seed;
use socbus_model::Word;
use socbus_noc::link::{LinkConfig, LinkEngine, LinkReport};
use socbus_noc::mesh::{CycleReport, MeshConfig, MeshReport, MeshSim};
use socbus_telemetry::quantile::nearest_rank;

use crate::util::{
    median, ns, quantile, secs, Measured, Metric, Sample, SpanLog, Tally, Timer, NO_SPAN,
};

/// Cycles per timed stretch of a cell (about 20 ms of host time).
const CHUNK_CYCLES: u64 = 256;

/// One simulation: a scheme's link set-up under one scenario.
#[derive(Clone, Debug)]
pub struct Cell {
    pub link: LinkConfig,
    pub link_down: bool,
    pub sim_seed: u64,
    pub traffic_seed: u64,
}

impl Cell {
    fn scenario(&self) -> &'static str {
        if self.link_down {
            "linkdown"
        } else {
            "clean"
        }
    }

    fn label(&self) -> String {
        format!("{} {}", self.link.scheme.name(), self.scenario())
    }
}

/// The cells: every catalog scheme clean, then every scheme link_down.
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for link_down in [false, true] {
        for (i, scheme) in Scheme::catalog().into_iter().enumerate() {
            let sim_seed = shard_seed(seed, i as u64);
            out.push(Cell {
                link: LinkConfig::new(scheme, DATA_BITS, 0.0)
                    .with_protocol(protocol_for(scheme, PROTOCOL_SEED)),
                link_down,
                sim_seed,
                traffic_seed: sim_seed ^ 0xA5,
            });
        }
    }
    out
}

/// Builds a cell's mesh, with its scenario applied.
pub fn build(cell: &Cell) -> MeshSim {
    let cfg = MeshConfig::new(WIDTH, HEIGHT, cell.link.clone()).with_rate(SATURATION_RATE);
    let mut sim = MeshSim::new(&cfg, cell.sim_seed, cell.traffic_seed);
    if cell.link_down {
        sim.set_link_down(0, true);
    }
    sim
}

/// Set-up: every cell's mesh built.
pub fn setup(seed: u64) {
    for cell in cells(seed) {
        black_box(build(&cell));
    }
}

/// Injection, then drain until idle or the drain budget is spent.
fn drive(sim: &mut MeshSim, mut step: impl FnMut(&mut MeshSim, bool)) {
    for _ in 0..CYCLES {
        step(sim, true);
    }
    let mut drained = 0;
    while !sim.idle() && drained < DRAIN_CYCLES {
        step(sim, false);
        drained += 1;
    }
}

/// Runs a cell untraced on this thread, timed in stretches of
/// [`CHUNK_CYCLES`] cycles (set-up excluded): a cell can take a quarter
/// second, long enough for the host's speed to change within it.
pub fn run(cell: &Cell) -> (Vec<Sample>, MeshReport) {
    let mut sim = build(cell);
    let mut samples = Vec::new();
    let mut timer = Timer::start(1);
    let mut cycle = 0u64;
    drive(&mut sim, |s, inject| {
        black_box(s.step(inject));
        cycle += 1;
        if cycle.is_multiple_of(CHUNK_CYCLES) {
            samples.push(timer.lap());
        }
    });
    let report = sim.finish();
    samples.push(timer.lap());
    (samples, report)
}

/// The correctness check of one cell: exactly-once delivery with no
/// loss and no corrupt payload.
pub fn cell_ok(r: &MeshReport) -> bool {
    r.injected == r.delivered + r.flagged_lost && r.flagged_lost == 0 && r.delivered_corrupt == 0
}

fn check(tally: &mut Tally, cell: &Cell, r: &MeshReport, first: Option<&MeshReport>) {
    let repeats = first.is_none_or(|f| f == r);
    tally.check(cell_ok(r) && repeats, || {
        format!(
            "mesh {}: injected {} delivered {} flagged_lost {} corrupt {} repeats {repeats}",
            cell.label(),
            r.injected,
            r.delivered,
            r.flagged_lost,
            r.delivered_corrupt
        )
    });
}

/// Pooled first-accept latency quantile and delivered packets per cycle
/// of the given reports: simulated time, exact at a fixed seed.
fn sim_stats<'a>(reports: impl Iterator<Item = &'a MeshReport>) -> (u64, f64) {
    let mut hist = BTreeMap::new();
    let (mut delivered, mut cycles) = (0u64, 0u64);
    for r in reports {
        for (&l, &c) in &r.latency_hist {
            *hist.entry(l).or_insert(0u64) += c;
        }
        delivered += r.delivered;
        cycles += r.cycles;
    }
    let p99 = nearest_rank(hist, 0.99);
    (p99, delivered as f64 / cycles as f64)
}

fn linkdown_stats(cells: &[Cell], reports: &[MeshReport]) -> (u64, f64) {
    sim_stats(
        cells
            .iter()
            .zip(reports)
            .filter(|(c, _)| c.link_down)
            .map(|(_, r)| r),
    )
}

/// The untraced measurement: passes over all cells for `seconds`.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally, det: &mut Vec<String>) -> Measured {
    let cells = cells(seed);
    let start = Instant::now();
    let mut m = Measured::default();
    let mut first: Vec<MeshReport> = Vec::new();
    // Items are the cells' stretches; `owner[item]` is the cell.
    let mut owner = Vec::new();
    while m.samples.is_empty() || secs(start) < seconds {
        let mut samples = Vec::new();
        let mut owners = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let (s, report) = run(cell);
            check(tally, cell, &report, first.get(i));
            owners.extend(std::iter::repeat_n(i, s.len()));
            samples.extend(s);
            if m.samples.is_empty() {
                first.push(report);
            }
        }
        if m.samples.is_empty() {
            owner = owners;
        } else if owners != owner {
            // Only a run that failed its repeat check can get here; its
            // stretches no longer line up with the first pass.
            continue;
        }
        m.samples.push(samples);
    }
    for (item, &i) in owner.iter().enumerate() {
        if cells[i].link_down {
            m.heavy.push(item);
        } else {
            m.light.push(item);
        }
    }
    for (cell, r) in cells.iter().zip(&first) {
        det.push(format!(
            "mesh {} injected={} delivered={} flagged_lost={} duplicates={} delivered_corrupt={} \
             e2e_retransmits={} dropped_poisoned={} dropped_no_route={} cycles={} max_waited={} \
             links_down={} p50={} p99={} max={}",
            cell.label(),
            r.injected,
            r.delivered,
            r.flagged_lost,
            r.duplicates,
            r.delivered_corrupt,
            r.e2e_retransmits,
            r.dropped_poisoned,
            r.dropped_no_route,
            r.cycles,
            r.max_waited,
            r.links_down,
            r.latency_quantile(0.5),
            r.latency_quantile(0.99),
            r.max_latency()
        ));
        if cell.link_down {
            m.heavy_ops += r.delivered as f64;
        } else {
            m.light_ops += r.delivered as f64;
        }
    }
    let (p99, per_cycle) = linkdown_stats(&cells, &first);
    println!(
        "mesh passes: {}  link_down simulated p99 {p99} cycles, {per_cycle:.4} pkts/cycle",
        m.samples.len()
    );
    m
}

/// Per-scenario sums of the traced pass.
#[derive(Default)]
struct ScenarioSums {
    step_ns: Vec<f64>,
    step_total_ns: u64,
    transfers: u64,
    cycles: u64,
    backlog_sum: i64,
    retransmits: u64,
    injected: u64,
    replay_ns: u64,
    replayed: u64,
}

/// Runs a cell with every `MeshSim::step` timed, then replays the
/// words that entered each link through a standalone `LinkEngine` on
/// the same `LinkConfig`. The sample covers the stepping only.
fn traced_cell(
    cell: &Cell,
    trace: u32,
    sums: &mut ScenarioSums,
    spans: &mut SpanLog,
) -> (Sample, MeshReport) {
    let mut sim = build(cell);
    let top = spans.open("mesh.cell", trace, NO_SPAN);
    let mut entered: Vec<Word> = Vec::new();
    let mut backlog = 0i64;
    let mut timer = Timer::start(1);
    drive(&mut sim, |s, inject| {
        let a = Instant::now();
        let rep: CycleReport = s.step(inject);
        let b = Instant::now();
        spans.leaf("mesh.step", trace, top, a, b);
        let d = ns(a, b);
        sums.step_ns.push(d as f64);
        sums.step_total_ns += d;
        sums.transfers += rep.transfers.len() as u64;
        sums.cycles += 1;
        entered.extend(rep.transfers.iter().map(|x| x.entered));
        let first_accepts = rep.accepted.iter().filter(|x| !x.duplicate).count();
        backlog += rep.injected.len() as i64 - first_accepts as i64 - rep.gave_up.len() as i64;
        sums.backlog_sum += backlog;
    });
    let report = sim.finish();
    let stepping = timer.lap();
    sums.retransmits += report.e2e_retransmits;
    sums.injected += report.injected;
    let mut engine = LinkEngine::new(&cell.link, &[], cell.sim_seed);
    let mut link_report = LinkReport::default();
    let a = Instant::now();
    for &w in &entered {
        black_box(engine.transfer_traced(w, &mut link_report));
    }
    let b = Instant::now();
    spans.leaf("link.replay", trace, top, a, b);
    spans.close(top);
    sums.replay_ns += ns(a, b);
    sums.replayed += entered.len() as u64;
    (stepping, report)
}

/// The traced profile: untraced and traced passes alternate for
/// `seconds`.
pub fn profile(seed: u64, seconds: f64, tally: &mut Tally, spans: &mut SpanLog) -> Vec<Metric> {
    let cells = cells(seed);
    let start = Instant::now();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut first: Vec<MeshReport> = Vec::new();
    let mut sums = [ScenarioSums::default(), ScenarioSums::default()];
    while traced_walls.is_empty() || secs(start) < seconds {
        let mut plain = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let (s, report) = run(cell);
            check(tally, cell, &report, first.get(i));
            plain += s.iter().map(Sample::normalized).sum::<f64>();
            if plain_walls.is_empty() {
                first.push(report);
            }
        }
        plain_walls.push(plain);
        let mut traced = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let trace = u32::try_from(i).expect("34 cells");
            let s = &mut sums[usize::from(cell.link_down)];
            let (stepping, report) = traced_cell(cell, trace, s, spans);
            check(tally, cell, &report, first.get(i));
            traced += stepping.normalized();
        }
        traced_walls.push(traced);
    }
    let passes = traced_walls.len() as f64;
    let mut out = Vec::new();
    for (down, s) in sums.iter().enumerate() {
        let sc = if down == 1 { "linkdown" } else { "clean" };
        let link_ns = s.replay_ns as f64 / s.replayed as f64;
        out.extend([
            Metric::new(
                format!("mesh.step.us.p50.{sc}"),
                quantile(&s.step_ns, 0.5) / 1e3,
                "us",
            ),
            Metric::new(
                format!("mesh.step.us.p99.{sc}"),
                quantile(&s.step_ns, 0.99) / 1e3,
                "us",
            ),
            Metric::new(
                format!("mesh.step.samples.{sc}"),
                s.step_ns.len() as f64,
                "count",
            ),
            Metric::new(
                format!("mesh.transfers_per_cycle.{sc}"),
                s.transfers as f64 / s.cycles as f64,
                "count",
            ),
            Metric::new(
                format!("mesh.backlog_mean_pkts.{sc}"),
                s.backlog_sum as f64 / s.cycles as f64,
                "count",
            ),
            Metric::new(
                format!("mesh.cycles.{sc}"),
                s.cycles as f64 / passes,
                "cycles",
            ),
            Metric::new(
                format!("mesh.e2e_retransmits_per_pkt.{sc}"),
                s.retransmits as f64 / s.injected as f64,
                "count",
            ),
            Metric::new(format!("link.transfer.ns.{sc}"), link_ns, "ns"),
            // Computed, not measured: step time per transfer minus the
            // standalone link transfer time.
            Metric::new(
                format!("mesh.self_ns_per_transfer.{sc}"),
                s.step_total_ns as f64 / s.transfers as f64 - link_ns,
                "ns",
            ),
        ]);
    }
    let (p99, per_cycle) = linkdown_stats(&cells, &first);
    out.extend([
        Metric::new("mesh_linkdown_sim_p99_cycles", p99 as f64, "cycles"),
        Metric::new("mesh_linkdown_sim_pkts_per_cycle", per_cycle, "1/cycle"),
        Metric::new(
            "trace.mesh.overhead_ratio",
            median(&traced_walls) / median(&plain_walls),
            "ratio",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_cell(scheme: Scheme) -> Cell {
        Cell {
            link: LinkConfig::new(scheme, DATA_BITS, 1e-2)
                .with_protocol(protocol_for(scheme, PROTOCOL_SEED)),
            link_down: false,
            sim_seed: 5,
            traffic_seed: 5 ^ 0xA5,
        }
    }

    #[test]
    fn workload_cells_pass() {
        let cells = cells(1);
        assert_eq!(cells.len(), 2 * Scheme::catalog().len());
        for cell in [&cells[5], &cells[cells.len() - 1]] {
            let (_, report) = run(cell);
            assert!(cell_ok(&report), "{}: {report:?}", cell.label());
        }
    }

    #[test]
    fn sabotaged_link_fails_its_cell() {
        let cell = noisy_cell(Scheme::Sabotaged);
        let (_, report) = run(&cell);
        assert!(!cell_ok(&report));
        let mut tally = Tally::default();
        check(&mut tally, &cell, &report, None);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
