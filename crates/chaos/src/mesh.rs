//! Mesh chaos campaign: fault schedules against the 2D-mesh NoC.
//!
//! The link-level campaign ([`crate::campaign`]) soaks a single
//! multi-hop path; this module soaks the whole fabric. A mesh case runs
//! a [`MeshSim`] for a fixed number of injection cycles plus a drain
//! phase, while a cycle-domain fault schedule activates link faults and
//! takes links down/up, and a [`MeshMonitor`] holds the run to five
//! invariants no schedule may break:
//!
//! * **packet-conservation** — every injected packet is delivered
//!   exactly once or flagged lost; nothing vanishes, nothing is
//!   delivered that was never injected, duplicate accepts are
//!   suppressed before the ledger.
//! * **reroute-delivers** — on cells that arm it (clean links, a single
//!   permanent link failure), the fault-aware fallback must deliver
//!   *everything*: zero flagged losses.
//! * **bounded-progress** — every forwarded copy strictly decreases the
//!   live-topology distance to its destination (no livelock, never onto
//!   a downed link), and the mesh drains to idle within the budget.
//! * **mesh-silent-corruption** — per-link scoping of the path
//!   campaign's silent-corruption rule: a hop may never hand a changed
//!   word to the next router while the injected weight was within the
//!   decoder's advertised guarantees, and may never *drop as poisoned*
//!   a word whose weight was within the correction guarantee.
//! * **health-consistent** — the online health monitor's verdicts agree
//!   with the ledger: every auto-retired link is `Down` in the incident
//!   report and blamed by an incident, and no link is reported `Down`
//!   that the simulator never retired.
//!
//! Violating cells shrink to `socbus-mesh-repro v1` files (see
//! [`MeshRepro`]) with the same byte-canonical replay discipline as the
//! path repro format.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_channel::FaultSpec;
use socbus_codes::{DecodeStatus, Scheme};
use socbus_exec::{run_shards, RunOpts};
use socbus_noc::link::{LinkConfig, Protocol};
use socbus_noc::mesh::{
    CycleReport, EndToEnd, MeshConfig, MeshPattern, MeshReport, MeshSim, PacketKey,
};
use socbus_telemetry::json::sci;
use socbus_telemetry::{HealthConfig, Observation, Observe, ScopeReport, SubRun, Telemetry};

use crate::campaign::write_reproducer;
use crate::cli::{protocol_for, DEFAULT_DATA_BITS, SHRINK_BUDGET};
use crate::monitor::InvariantStats;
use crate::replay::{kv, parse_f64, parse_num, parse_protocol, parse_spec, spec_str};
use crate::runner::activation_seed;

/// Mesh side length of a campaign cell.
pub const MESH_WIDTH: usize = 3;
/// Mesh side length of a campaign cell.
pub const MESH_HEIGHT: usize = 3;
/// Injection cycles per case in the default campaign.
pub const FULL_MESH_CYCLES: u64 = 400;
/// Injection cycles per case in the `--smoke` campaign (CI).
pub const SMOKE_MESH_CYCLES: u64 = 150;
/// Drain budget after injection stops. A packet is given up after nine
/// end-to-end timer rounds with no live copy: 2,896 cycles at the
/// default knobs (96-cycle timeouts plus the capped exponential
/// backoffs), plus one more timeout for each round whose copy was
/// still queued when its timer fired and was dropped later. Copies
/// queue for a few cycles on the campaign's lightly loaded 3x3 mesh,
/// so this bound is generous: a case that fails to drain is
/// livelocked, not merely slow.
pub const MESH_DRAIN_CYCLES: u64 = 6_000;
/// Per-node injection probability per cycle.
pub const MESH_RATE: f64 = 0.1;
/// Consecutive poisoned transfers before a campaign mesh retires a link.
pub const MESH_AUTO_DOWN: u32 = 8;
/// Largest mesh side a case may ask for (the routing tables grow as
/// the square of the node count).
const MAX_MESH_SIDE: usize = 16;
/// Largest data width of a case's links; every catalog scheme builds
/// at every width up to it.
const MAX_MESH_DATA_BITS: usize = 64;
/// Cap on a case's injection plus drain cycles.
const MAX_MESH_CASE_CYCLES: u64 = 1_000_000;

// ---------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------

/// A cycle-domain fault action against the mesh.
#[derive(Clone, Debug, PartialEq)]
pub enum MeshAction {
    /// Push a fault spec onto one link's injector.
    Activate {
        /// Schedule-unique id (seeds the fault's random stream, and is
        /// how a later [`MeshAction::Deactivate`] finds the slot).
        id: u32,
        /// Target directed link.
        link: usize,
        /// The fault.
        spec: FaultSpec,
    },
    /// Disable a previously activated fault (unknown ids are a no-op,
    /// so the shrinker can drop activations freely).
    Deactivate {
        /// The activation to disable.
        id: u32,
    },
    /// Mark a directed link permanently down (until a `LinkUp`).
    LinkDown {
        /// Target directed link.
        link: usize,
    },
    /// Restore a downed link.
    LinkUp {
        /// Target directed link.
        link: usize,
    },
}

/// One scheduled action.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshEvent {
    /// Cycle the action fires before (0-based injection cycle).
    pub at_cycle: u64,
    /// The action.
    pub action: MeshAction,
}

/// A whole mesh schedule, kept sorted by `at_cycle` (stable, so events
/// sharing a cycle fire in insertion order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeshSchedule {
    /// The events, in firing order.
    pub events: Vec<MeshEvent>,
}

/// The shape of a random mesh schedule draw.
#[derive(Clone, Copy, Debug)]
pub struct MeshScheduleParams {
    /// Injection cycles the schedule is drawn for.
    pub cycles: u64,
    /// Directed links available for targeting.
    pub links: usize,
    /// Wire count of the coded bus (bounds hard-fault wire indices).
    pub wires: usize,
}

/// The five families of randomized mesh schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshFamily {
    /// Gilbert–Elliott burst windows on random links.
    LinkBursts,
    /// Supply-droop windows on random links.
    DroopStorm,
    /// Stuck-at and bridging defects that appear and heal.
    HardWindow,
    /// Exactly one permanent link failure from cycle zero — the
    /// reroute-delivers cell (links otherwise clean).
    SingleLinkDown,
    /// A burst, a hard defect, and a link-down window at once.
    MixedMesh,
}

impl MeshFamily {
    /// All families, in campaign order.
    #[must_use]
    pub fn all() -> [MeshFamily; 5] {
        [
            MeshFamily::LinkBursts,
            MeshFamily::DroopStorm,
            MeshFamily::HardWindow,
            MeshFamily::SingleLinkDown,
            MeshFamily::MixedMesh,
        ]
    }

    /// Stable name (used in reports and repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MeshFamily::LinkBursts => "link_bursts",
            MeshFamily::DroopStorm => "droop_storm",
            MeshFamily::HardWindow => "hard_window",
            MeshFamily::SingleLinkDown => "link_down",
            MeshFamily::MixedMesh => "mixed_mesh",
        }
    }

    /// Inverse of [`MeshFamily::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<MeshFamily> {
        MeshFamily::all().into_iter().find(|f| f.name() == name)
    }
}

/// A window `[at, at + len)` inside the injection phase, with room left
/// so the aftermath of a deactivation is still observed.
fn mesh_window(cycles: u64, rng: &mut StdRng) -> (u64, u64) {
    let cycles = cycles.max(4);
    let at = rng.gen_range(0..cycles * 3 / 4);
    let len = rng.gen_range(cycles / 20 + 1..=cycles / 4 + 1);
    (at, len)
}

fn push_link_bursts(
    events: &mut Vec<MeshEvent>,
    next_id: &mut u32,
    params: &MeshScheduleParams,
    rng: &mut StdRng,
    max_n: usize,
) {
    let n = rng.gen_range(1..=max_n);
    for _ in 0..n {
        let (at, len) = mesh_window(params.cycles, rng);
        let id = *next_id;
        *next_id += 1;
        events.push(MeshEvent {
            at_cycle: at,
            action: MeshAction::Activate {
                id,
                link: rng.gen_range(0..params.links),
                spec: FaultSpec::Burst {
                    eps_good: rng.gen_range(0.0..2e-3),
                    eps_bad: rng.gen_range(0.02..0.3),
                    p_enter: rng.gen_range(0.01..0.2),
                    p_exit: rng.gen_range(0.05..0.5),
                },
            },
        });
        events.push(MeshEvent {
            at_cycle: at + len,
            action: MeshAction::Deactivate { id },
        });
    }
}

fn push_link_droops(
    events: &mut Vec<MeshEvent>,
    next_id: &mut u32,
    params: &MeshScheduleParams,
    rng: &mut StdRng,
    max_n: usize,
) {
    let n = rng.gen_range(1..=max_n);
    for _ in 0..n {
        let (at, len) = mesh_window(params.cycles, rng);
        let id = *next_id;
        *next_id += 1;
        events.push(MeshEvent {
            at_cycle: at,
            action: MeshAction::Activate {
                id,
                link: rng.gen_range(0..params.links),
                spec: FaultSpec::Droop {
                    eps: rng.gen_range(1e-4..2e-3),
                    scale: rng.gen_range(30.0..300.0),
                    start: rng.gen_range(0..8u64),
                    duration: rng.gen_range(20..200u64),
                },
            },
        });
        events.push(MeshEvent {
            at_cycle: at + len,
            action: MeshAction::Deactivate { id },
        });
    }
}

fn push_link_hard_windows(
    events: &mut Vec<MeshEvent>,
    next_id: &mut u32,
    params: &MeshScheduleParams,
    rng: &mut StdRng,
    max_n: usize,
) {
    let n = rng.gen_range(1..=max_n);
    for _ in 0..n {
        let (at, len) = mesh_window(params.cycles, rng);
        let id = *next_id;
        *next_id += 1;
        let spec = if rng.gen_bool(0.5) {
            FaultSpec::StuckAt {
                wire: rng.gen_range(0..params.wires),
                value: rng.gen_bool(0.5),
            }
        } else {
            FaultSpec::Bridge {
                wire: rng.gen_range(0..params.wires.saturating_sub(1).max(1)),
                mode: if rng.gen_bool(0.5) {
                    socbus_channel::BridgeMode::And
                } else {
                    socbus_channel::BridgeMode::Or
                },
            }
        };
        events.push(MeshEvent {
            at_cycle: at,
            action: MeshAction::Activate {
                id,
                link: rng.gen_range(0..params.links),
                spec,
            },
        });
        events.push(MeshEvent {
            at_cycle: at + len,
            action: MeshAction::Deactivate { id },
        });
    }
}

fn push_link_down_window(
    events: &mut Vec<MeshEvent>,
    params: &MeshScheduleParams,
    rng: &mut StdRng,
) {
    let (at, len) = mesh_window(params.cycles, rng);
    let link = rng.gen_range(0..params.links);
    events.push(MeshEvent {
        at_cycle: at,
        action: MeshAction::LinkDown { link },
    });
    events.push(MeshEvent {
        at_cycle: at + len,
        action: MeshAction::LinkUp { link },
    });
}

impl MeshSchedule {
    /// Draws a seeded random schedule from `family`. The same
    /// `(family, params, seed)` triple always yields the same schedule.
    #[must_use]
    pub fn random(family: MeshFamily, params: &MeshScheduleParams, seed: u64) -> MeshSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut next_id = 0u32;
        match family {
            MeshFamily::LinkBursts => {
                push_link_bursts(&mut events, &mut next_id, params, &mut rng, 3);
            }
            MeshFamily::DroopStorm => {
                push_link_droops(&mut events, &mut next_id, params, &mut rng, 3);
            }
            MeshFamily::HardWindow => {
                push_link_hard_windows(&mut events, &mut next_id, params, &mut rng, 2);
            }
            MeshFamily::SingleLinkDown => {
                events.push(MeshEvent {
                    at_cycle: 0,
                    action: MeshAction::LinkDown {
                        link: rng.gen_range(0..params.links),
                    },
                });
            }
            MeshFamily::MixedMesh => {
                push_link_bursts(&mut events, &mut next_id, params, &mut rng, 1);
                push_link_hard_windows(&mut events, &mut next_id, params, &mut rng, 1);
                push_link_down_window(&mut events, params, &mut rng);
            }
        }
        let mut schedule = MeshSchedule { events };
        schedule.sort();
        schedule
    }

    /// Restores firing order after editing the event list (stable by
    /// `at_cycle`).
    pub fn sort(&mut self) {
        self.events.sort_by_key(|e| e.at_cycle);
    }
}

// ---------------------------------------------------------------------
// Invariants and the monitor
// ---------------------------------------------------------------------

/// The invariant families the mesh monitor checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshInvariant {
    /// Injected = delivered + flagged lost; no duplicates, no phantom
    /// deliveries, no silent losses after a clean drain.
    PacketConservation,
    /// Armed cells (single clean link failure) must deliver everything.
    RerouteDelivers,
    /// Every forward strictly decreases live-topology distance, never
    /// onto a downed link, and the mesh drains to idle in budget.
    BoundedProgress,
    /// Per-link guarantee scoping of delivered-changed / dropped-clean
    /// words.
    MeshSilentCorruption,
    /// The health monitor's verdicts agree with the simulator's ledger:
    /// the health report's `Down` links are exactly the auto-retired
    /// links, and every one of them is blamed by an incident — no
    /// silently downed link.
    HealthConsistent,
}

impl MeshInvariant {
    /// All kinds, in reporting order.
    #[must_use]
    pub fn all() -> [MeshInvariant; 5] {
        [
            MeshInvariant::PacketConservation,
            MeshInvariant::RerouteDelivers,
            MeshInvariant::BoundedProgress,
            MeshInvariant::MeshSilentCorruption,
            MeshInvariant::HealthConsistent,
        ]
    }

    /// Stable name (used in reports and repro files).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MeshInvariant::PacketConservation => "packet-conservation",
            MeshInvariant::RerouteDelivers => "reroute-delivers",
            MeshInvariant::BoundedProgress => "bounded-progress",
            MeshInvariant::MeshSilentCorruption => "mesh-silent-corruption",
            MeshInvariant::HealthConsistent => "health-consistent",
        }
    }

    /// Inverse of [`MeshInvariant::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<MeshInvariant> {
        MeshInvariant::all().into_iter().find(|k| k.name() == name)
    }
}

/// One observed mesh invariant violation.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshViolation {
    /// Which invariant broke.
    pub kind: MeshInvariant,
    /// The link it broke on, or `None` for an end-to-end violation.
    pub link: Option<usize>,
    /// The cycle at which it broke (for end-of-run audits, the total
    /// cycle count).
    pub cycle: u64,
    /// Human-readable evidence.
    pub detail: String,
}

impl MeshViolation {
    /// The identity the shrinker preserves: a shrunken schedule
    /// reproduces iff it violates the same invariant on the same link.
    #[must_use]
    pub fn key(&self) -> (MeshInvariant, Option<usize>) {
        (self.kind, self.link)
    }
}

/// Replicates [`MeshSim`]'s directed-link enumeration: node-major, and
/// East/West/North/South per node (edges only where a neighbour
/// exists). `links[l] = (from, to)`.
#[must_use]
pub fn mesh_topology(width: usize, height: usize) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for node in 0..width * height {
        let (x, y) = (node % width, node / width);
        if x + 1 < width {
            links.push((node, node + 1));
        }
        if x > 0 {
            links.push((node, node - 1));
        }
        if y + 1 < height {
            links.push((node, node + width));
        }
        if y > 0 {
            links.push((node, node - width));
        }
    }
    links
}

/// The online monitor for one mesh chaos case. It keeps its own shadow
/// topology (same enumeration as the simulator, independently derived)
/// and its own exactly-once ledger, so every identity in the final
/// [`MeshReport`] is re-derived rather than trusted.
pub struct MeshMonitor {
    links: Vec<(usize, usize)>,
    in_links: Vec<Vec<(usize, usize)>>,
    down: Vec<bool>,
    /// Lazily built shortest-distance tables over the live topology,
    /// one per destination; cleared whenever the down set changes.
    dist_cache: HashMap<usize, Vec<u32>>,
    expect_full_delivery: bool,
    injected: BTreeSet<PacketKey>,
    accepted: BTreeSet<PacketKey>,
    gave_up: BTreeSet<PacketKey>,
    duplicates: u64,
    /// Links the simulator auto-retired (reported via
    /// [`CycleReport::downed`]) — the ground truth the health monitor's
    /// `Down` verdicts are checked against.
    auto_downed: BTreeSet<usize>,
    violations: Vec<MeshViolation>,
    stats: [InvariantStats; 5],
    checks_flushed: [u64; 5],
    tel: Telemetry,
}

impl MeshMonitor {
    /// Builds a monitor for a `width` × `height` mesh. When
    /// `expect_full_delivery` is set the reroute-delivers invariant is
    /// armed: the run must end with zero flagged losses.
    #[must_use]
    pub fn new(width: usize, height: usize, expect_full_delivery: bool) -> Self {
        let links = mesh_topology(width, height);
        let mut in_links = vec![Vec::new(); width * height];
        for (l, &(from, to)) in links.iter().enumerate() {
            in_links[to].push((from, l));
        }
        let down = vec![false; links.len()];
        MeshMonitor {
            links,
            in_links,
            down,
            dist_cache: HashMap::new(),
            expect_full_delivery,
            injected: BTreeSet::new(),
            accepted: BTreeSet::new(),
            gave_up: BTreeSet::new(),
            duplicates: 0,
            auto_downed: BTreeSet::new(),
            violations: Vec::new(),
            stats: [InvariantStats::default(); 5],
            checks_flushed: [0; 5],
            tel: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle (same discipline as
    /// [`crate::monitor::Monitor::set_telemetry`]).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Mirrors a scheduled link state change into the shadow topology.
    /// Must be called *before* the step whose report is observed, in
    /// lockstep with [`MeshSim::set_link_down`].
    pub fn set_link_down(&mut self, link: usize, is_down: bool) {
        if self.down[link] != is_down {
            self.down[link] = is_down;
            self.dist_cache.clear();
        }
    }

    /// Live-topology hop distance from `node` to `dst` (`u32::MAX` if
    /// unreachable), from a BFS over the reverse adjacency.
    fn dist(&mut self, node: usize, dst: usize) -> u32 {
        if !self.dist_cache.contains_key(&dst) {
            let mut dist = vec![u32::MAX; self.in_links.len()];
            dist[dst] = 0;
            let mut frontier = std::collections::VecDeque::from([dst]);
            while let Some(at) = frontier.pop_front() {
                let d = dist[at];
                for &(from, link) in &self.in_links[at] {
                    if !self.down[link] && dist[from] == u32::MAX {
                        dist[from] = d + 1;
                        frontier.push_back(from);
                    }
                }
            }
            self.dist_cache.insert(dst, dist);
        }
        self.dist_cache[&dst][node]
    }

    fn check(
        &mut self,
        kind: MeshInvariant,
        link: Option<usize>,
        cycle: u64,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) {
        let idx = MeshInvariant::all()
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in all()");
        self.stats[idx].checked += 1;
        if !ok {
            self.stats[idx].violated += 1;
            if self.tel.is_enabled() {
                let link_label = link.map_or_else(|| "e2e".to_owned(), |l| l.to_string());
                let labels = [("invariant", kind.name()), ("at_link", link_label.as_str())];
                self.tel.counter("monitor.violations", &labels, 1);
                self.tel.event("monitor.violation", &labels, cycle);
            }
            self.violations.push(MeshViolation {
                kind,
                link,
                cycle,
                detail: detail(),
            });
        }
    }

    /// Observes one simulated cycle.
    pub fn observe(&mut self, report: &CycleReport) {
        let cycle = report.cycle;
        for key in &report.injected {
            let fresh = self.injected.insert(*key);
            self.check(
                MeshInvariant::PacketConservation,
                None,
                cycle,
                fresh,
                || format!("packet {key:?} injected twice"),
            );
        }
        // Auto-retired links are reported in the same cycle their last
        // transfer happened, so the monitor's shadow tables and the
        // simulator's diverge *within* this report; distance-descent
        // checks resume next cycle, once both sides agree again.
        let topology_stable = report.downed.is_empty();
        for t in &report.transfers {
            let weight = u64::from(t.trace.max_error_weight);
            let within_correction = weight <= t.trace.correctable_errors as u64;
            let claims_clean = matches!(
                t.trace.final_status,
                DecodeStatus::Clean | DecodeStatus::Unchecked
            );
            let within_detection = weight <= t.trace.detectable_errors as u64;
            let guaranteed_exact = within_correction || (within_detection && claims_clean);
            self.check(
                MeshInvariant::MeshSilentCorruption,
                Some(t.link),
                cycle,
                t.dropped || !guaranteed_exact || t.exited == t.entered,
                || {
                    format!(
                        "link {} changed {:?} -> {:?} inside its guarantee \
                         (weight {weight}, status {:?})",
                        t.link, t.entered, t.exited, t.trace.final_status
                    )
                },
            );
            self.check(
                MeshInvariant::MeshSilentCorruption,
                Some(t.link),
                cycle,
                !t.dropped || !within_correction,
                || {
                    format!(
                        "link {} dropped {:?} as poisoned at weight {weight} \
                         within its correction guarantee",
                        t.link, t.key
                    )
                },
            );
            if topology_stable && !t.dropped {
                let (from, to) = self.links[t.link];
                let dst = t.key.dst;
                let d_from = if from == dst { 0 } else { self.dist(from, dst) };
                let d_to = if to == dst { 0 } else { self.dist(to, dst) };
                let link_down = self.down[t.link];
                self.check(
                    MeshInvariant::BoundedProgress,
                    Some(t.link),
                    cycle,
                    !link_down && d_to < d_from,
                    || {
                        format!(
                            "link {} ({from} -> {to}) does not approach {dst}: \
                             dist {d_from} -> {d_to}{}",
                            t.link,
                            if link_down { " (link is down)" } else { "" }
                        )
                    },
                );
            }
        }
        for a in &report.accepted {
            if a.duplicate {
                self.duplicates += 1;
                let seen = self.accepted.contains(&a.key);
                self.check(MeshInvariant::PacketConservation, None, cycle, seen, || {
                    format!("duplicate accept of {:?} before any accept", a.key)
                });
            } else {
                let known = self.injected.contains(&a.key);
                let fresh = self.accepted.insert(a.key);
                self.check(
                    MeshInvariant::PacketConservation,
                    None,
                    cycle,
                    known && fresh,
                    || {
                        format!(
                            "accepted {:?} {}",
                            a.key,
                            if known {
                                "twice without the duplicate flag"
                            } else {
                                "which was never injected"
                            }
                        )
                    },
                );
            }
        }
        for key in &report.gave_up {
            self.gave_up.insert(*key);
        }
        for &link in &report.downed {
            self.auto_downed.insert(link);
            self.set_link_down(link, true);
        }
    }

    /// Cross-checks the health monitor's verdicts for this run against
    /// the monitor's own ledger (the **health-consistent** invariant):
    ///
    /// * every link the simulator auto-retired must be `Down` in the
    ///   health report *and* blamed by at least one incident — a downed
    ///   link no one was paged about is a silent failure of the
    ///   observability layer;
    /// * every link the health report claims `Down` must actually have
    ///   been auto-retired — no phantom outages.
    ///
    /// Scheduled `link-down` chaos actions are invisible to telemetry
    /// by design (they model an external hard fault, not a simulator
    /// decision), so only auto-retired links participate.
    pub fn check_health_agreement(&mut self, health: &ScopeReport) {
        let cycle = health.cycles;
        let health_down: BTreeSet<String> = health
            .down_entities()
            .into_iter()
            .filter(|e| e.starts_with("link:"))
            .collect();
        let blamed: BTreeSet<String> = health.blamed_entities().into_iter().collect();
        for link in self.auto_downed.clone() {
            let name = format!("link:{link}");
            let is_down = health_down.contains(&name);
            let is_blamed = blamed.contains(&name);
            self.check(
                MeshInvariant::HealthConsistent,
                Some(link),
                cycle,
                is_down && is_blamed,
                || {
                    if is_down {
                        format!("auto-retired link {link} is Down but no incident blames it")
                    } else {
                        format!("auto-retired link {link} is not Down in the health report")
                    }
                },
            );
        }
        for name in &health_down {
            let link: Option<usize> = name.strip_prefix("link:").and_then(|s| s.parse().ok());
            let agreed = link.is_some_and(|l| self.auto_downed.contains(&l));
            self.check(MeshInvariant::HealthConsistent, link, cycle, agreed, || {
                format!("health reports {name} Down but the simulator never auto-retired it")
            });
        }
    }

    /// Audits the final report against the monitor's own ledger.
    /// `drained_clean` is whether the simulator reached idle within the
    /// drain budget.
    pub fn finish(&mut self, report: &MeshReport, drained_clean: bool) {
        let cycle = report.cycles;
        let injected = self.injected.len() as u64;
        let accepted = self.accepted.len() as u64;
        let flagged: Vec<PacketKey> = self.injected.difference(&self.accepted).copied().collect();
        let duplicates = self.duplicates;
        let counts_ok = report.injected == injected
            && report.delivered == accepted
            && report.duplicates == duplicates
            && report.flagged_lost == flagged.len() as u64
            && report.injected == report.delivered + report.flagged_lost;
        self.check(
            MeshInvariant::PacketConservation,
            None,
            cycle,
            counts_ok,
            || {
                format!(
                    "ledger mismatch: report {}/{}/{} (injected/delivered/flagged) \
                     dup {} vs derived {injected}/{accepted}/{} dup {}",
                    report.injected,
                    report.delivered,
                    report.flagged_lost,
                    report.duplicates,
                    flagged.len(),
                    duplicates
                )
            },
        );
        if drained_clean {
            // After a clean drain every undelivered packet must have
            // been *reported* lost — silence is the violation.
            for key in &flagged {
                let reported = self.gave_up.contains(key);
                let idx = MeshInvariant::all()
                    .iter()
                    .position(|k| *k == MeshInvariant::PacketConservation)
                    .expect("kind is in all()");
                self.stats[idx].checked += 1;
                if !reported {
                    self.stats[idx].violated += 1;
                    self.violations.push(MeshViolation {
                        kind: MeshInvariant::PacketConservation,
                        link: None,
                        cycle,
                        detail: format!("packet {key:?} lost silently (never flagged)"),
                    });
                }
            }
        }
        self.check(
            MeshInvariant::BoundedProgress,
            None,
            cycle,
            drained_clean,
            || {
                "mesh failed to drain to idle within the budget — livelock or stuck packet"
                    .to_owned()
            },
        );
        if self.expect_full_delivery {
            self.check(
                MeshInvariant::RerouteDelivers,
                None,
                cycle,
                report.flagged_lost == 0,
                || {
                    format!(
                        "{} packet(s) flagged lost on a cell that must reroute and deliver",
                        report.flagged_lost
                    )
                },
            );
        }
    }

    /// Reports the `monitor.checks` counters accumulated since the last
    /// flush (safe to call repeatedly; each check is reported once).
    pub fn flush_telemetry(&mut self) {
        if !self.tel.is_enabled() {
            return;
        }
        for (idx, kind) in MeshInvariant::all().iter().enumerate() {
            let delta = self.stats[idx].checked - self.checks_flushed[idx];
            if delta > 0 {
                self.tel
                    .counter("monitor.checks", &[("invariant", kind.name())], delta);
                self.checks_flushed[idx] = self.stats[idx].checked;
            }
        }
    }

    /// Pass/fail tally for one invariant kind.
    #[must_use]
    pub fn stats(&self, kind: MeshInvariant) -> InvariantStats {
        let idx = MeshInvariant::all()
            .iter()
            .position(|k| *k == kind)
            .expect("kind is in all()");
        self.stats[idx]
    }

    /// Consumes the monitor, returning all violations.
    #[must_use]
    pub fn into_violations(self) -> Vec<MeshViolation> {
        self.violations
    }
}

// ---------------------------------------------------------------------
// Cases and the runner
// ---------------------------------------------------------------------

/// One mesh chaos case: a mesh shape, a coded-link configuration, the
/// end-to-end protocol knobs, and a fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct MeshCaseConfig {
    /// Display name.
    pub name: String,
    /// Coding scheme on every link.
    pub scheme: Scheme,
    /// Data bits per word.
    pub data_bits: usize,
    /// Mesh width.
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Baseline i.i.d. ε on every link.
    pub eps: f64,
    /// Link protocol.
    pub protocol: Protocol,
    /// Per-node injection probability per cycle.
    pub rate: f64,
    /// Traffic pattern.
    pub pattern: MeshPattern,
    /// Injection cycles.
    pub cycles: u64,
    /// Drain budget after injection stops.
    pub drain_cycles: u64,
    /// End-to-end retransmission knobs.
    pub e2e: EndToEnd,
    /// Retire a link after this many consecutive poisoned transfers.
    pub auto_down_after: Option<u32>,
    /// Arm the reroute-delivers invariant (zero flagged losses).
    pub expect_full_delivery: bool,
    /// Traffic seed.
    pub traffic_seed: u64,
    /// Sim seed.
    pub sim_seed: u64,
    /// The fault schedule.
    pub schedule: MeshSchedule,
}

/// `Err` unless `value` is a probability (NaN is not).
fn probability(what: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} {value:?} is not a probability in [0, 1]"))
    }
}

/// `Err` unless every probability a fault spec carries is one.
fn check_spec(spec: &FaultSpec) -> Result<(), String> {
    match *spec {
        FaultSpec::Iid { eps } => probability("iid eps", eps),
        FaultSpec::Burst {
            eps_good,
            eps_bad,
            p_enter,
            p_exit,
        } => {
            probability("burst eps_good", eps_good)?;
            probability("burst eps_bad", eps_bad)?;
            probability("burst p_enter", p_enter)?;
            probability("burst p_exit", p_exit)
        }
        FaultSpec::Droop { eps, scale, .. } => {
            probability("droop eps", eps)?;
            if scale.is_nan() || scale < 0.0 {
                return Err(format!("droop scale {scale:?} is negative"));
            }
            probability("droop scaled eps", eps * scale)
        }
        FaultSpec::StuckAt { .. } | FaultSpec::Bridge { .. } => Ok(()),
    }
}

impl MeshCaseConfig {
    /// Checks that the case describes a mesh the simulator can build and
    /// run in bounded time: sides in `2..=16`, data bits in `1..=64` (and
    /// at least a bus-invert scheme's sub-bus count), ε, rate and
    /// hotspot fraction probabilities, a hotspot node and every event's
    /// link inside the mesh, every activated fault's probabilities
    /// valid, and at most 1,000,000 injection plus drain cycles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first field out of range.
    pub fn validate(&self) -> Result<(), String> {
        let sides = 2..=MAX_MESH_SIDE;
        if !sides.contains(&self.width) || !sides.contains(&self.height) {
            return Err(format!(
                "mesh {}x{} is outside 2x2..={MAX_MESH_SIDE}x{MAX_MESH_SIDE}",
                self.width, self.height
            ));
        }
        if !(1..=MAX_MESH_DATA_BITS).contains(&self.data_bits) {
            return Err(format!(
                "data_bits {} is outside 1..={MAX_MESH_DATA_BITS}",
                self.data_bits
            ));
        }
        if let Scheme::BusInvert(groups) = self.scheme {
            if groups == 0 || groups > self.data_bits {
                return Err(format!(
                    "{} needs 1..={} sub-buses",
                    self.scheme.name(),
                    self.data_bits
                ));
            }
        }
        probability("eps", self.eps)?;
        probability("rate", self.rate)?;
        let nodes = self.width * self.height;
        if let MeshPattern::Hotspot { node, fraction } = self.pattern {
            if node >= nodes {
                return Err(format!("hotspot node {node} is outside 0..{nodes}"));
            }
            probability("hotspot fraction", fraction)?;
        }
        if self
            .cycles
            .checked_add(self.drain_cycles)
            .is_none_or(|total| total > MAX_MESH_CASE_CYCLES)
        {
            return Err(format!(
                "cycles {} + drain_cycles {} exceed {MAX_MESH_CASE_CYCLES}",
                self.cycles, self.drain_cycles
            ));
        }
        let links = mesh_topology(self.width, self.height).len();
        for event in &self.schedule.events {
            let link = match &event.action {
                MeshAction::Activate { link, spec, .. } => {
                    check_spec(spec)?;
                    *link
                }
                MeshAction::LinkDown { link } | MeshAction::LinkUp { link } => *link,
                MeshAction::Deactivate { .. } => continue,
            };
            if link >= links {
                return Err(format!(
                    "event at cycle {} names link {link}, outside 0..{links}",
                    event.at_cycle
                ));
            }
        }
        Ok(())
    }

    /// Assembles the [`MeshConfig`] this case runs.
    #[must_use]
    pub fn mesh_config(&self) -> MeshConfig {
        let link =
            LinkConfig::new(self.scheme, self.data_bits, self.eps).with_protocol(self.protocol);
        let mut cfg = MeshConfig::new(self.width, self.height, link)
            .with_pattern(self.pattern)
            .with_rate(self.rate)
            .with_e2e(self.e2e);
        if let Some(n) = self.auto_down_after {
            cfg = cfg.with_auto_down(n);
        }
        cfg
    }
}

/// Everything a finished mesh case yields.
pub struct MeshCaseOutcome {
    /// Violations, in detection order.
    pub violations: Vec<MeshViolation>,
    /// The simulator's final report.
    pub report: MeshReport,
    /// Pass/fail tallies per invariant.
    pub stats: [(MeshInvariant, InvariantStats); 5],
}

fn apply_mesh_event(
    action: &MeshAction,
    sim_seed: u64,
    sim: &mut MeshSim,
    monitor: &mut MeshMonitor,
    live: &mut HashMap<u32, (usize, usize)>,
) {
    match action {
        MeshAction::Activate { id, link, spec } => {
            let engine = sim.engine_mut(*link);
            // A droop window's `start` is relative to activation: pin it
            // to this link's event clock now (same contract as the path
            // runner's droop handling).
            let spec = match *spec {
                FaultSpec::Droop {
                    eps,
                    scale,
                    start,
                    duration,
                } => FaultSpec::Droop {
                    eps,
                    scale,
                    start: engine.injector().cycles().saturating_add(start),
                    duration,
                },
                ref other => other.clone(),
            };
            let slot = engine
                .injector_mut()
                .push_spec(&spec, activation_seed(sim_seed, *id));
            let swing = engine.swing();
            if swing != 1.0 {
                engine.injector_mut().rescale_swing_slot(slot, swing);
            }
            live.insert(*id, (*link, slot));
        }
        MeshAction::Deactivate { id } => {
            // Unknown ids are a no-op by contract (shrinker-safe).
            if let Some((link, slot)) = live.remove(id) {
                sim.engine_mut(link).injector_mut().set_enabled(slot, false);
            }
        }
        MeshAction::LinkDown { link } => {
            sim.set_link_down(*link, true);
            monitor.set_link_down(*link, true);
        }
        MeshAction::LinkUp { link } => {
            sim.set_link_down(*link, false);
            monitor.set_link_down(*link, false);
        }
    }
}

/// Runs one mesh case untraced.
#[must_use]
pub fn run_mesh_case(cfg: &MeshCaseConfig) -> MeshCaseOutcome {
    run_mesh_case_with(cfg, Telemetry::off())
}

/// Drives one mesh case to completion and returns the monitor (still
/// open for post-run cross-checks) and the final report. Every
/// telemetry handle the drive created is released on return: only the
/// monitor's own handle survives.
fn drive_mesh_case(cfg: &MeshCaseConfig, tel: Telemetry) -> (MeshMonitor, MeshReport) {
    let mesh_cfg = cfg.mesh_config();
    let mut sim =
        MeshSim::new_with_telemetry(&mesh_cfg, cfg.sim_seed, cfg.traffic_seed, tel.clone());
    let mut monitor = MeshMonitor::new(cfg.width, cfg.height, cfg.expect_full_delivery);
    monitor.set_telemetry(tel);
    let mut live: HashMap<u32, (usize, usize)> = HashMap::new();
    let events = &cfg.schedule.events;
    let mut next_event = 0;
    for cycle in 0..cfg.cycles {
        // Events fire *before* the step of their cycle, mirrored into
        // the monitor's shadow topology in the same order, so both
        // sides route and audit against the same live graph.
        while next_event < events.len() && events[next_event].at_cycle <= cycle {
            apply_mesh_event(
                &events[next_event].action,
                cfg.sim_seed,
                &mut sim,
                &mut monitor,
                &mut live,
            );
            next_event += 1;
        }
        let report = sim.step(true);
        monitor.observe(&report);
    }
    let mut drained = 0;
    while !sim.idle() && drained < cfg.drain_cycles {
        let report = sim.step(false);
        monitor.observe(&report);
        drained += 1;
    }
    let drained_clean = sim.idle();
    let report = sim.finish();
    monitor.finish(&report, drained_clean);
    monitor.flush_telemetry();
    (monitor, report)
}

/// Consumes a finished monitor into the case outcome.
fn finish_outcome(monitor: MeshMonitor, report: MeshReport) -> MeshCaseOutcome {
    let stats = MeshInvariant::all().map(|k| (k, monitor.stats(k)));
    MeshCaseOutcome {
        violations: monitor.into_violations(),
        report,
        stats,
    }
}

/// Runs one mesh case with a telemetry handle wired through both the
/// simulator (per-link and per-router tracks) and the monitor.
#[must_use]
pub fn run_mesh_case_with(cfg: &MeshCaseConfig, tel: Telemetry) -> MeshCaseOutcome {
    let (monitor, report) = drive_mesh_case(cfg, tel);
    finish_outcome(monitor, report)
}

/// Runs one mesh case as an observed sub-run. Under health
/// observation the sub-run's stream folds through the health aggregator
/// and the monitor cross-checks the health verdicts against its ledger
/// (the **health-consistent** invariant).
#[must_use]
pub fn run_mesh_case_observed(cfg: &MeshCaseConfig, sub: &mut SubRun<'_>) -> MeshCaseOutcome {
    let (mut monitor, report) = drive_mesh_case(cfg, sub.telemetry());
    // The health pass reads the recorder *before* the agreement check
    // runs, so the scope reflects exactly what the run emitted; the
    // agreement check's own monitor.* counters land after the snapshot.
    if let Some(scope) = sub.health_scope() {
        monitor.check_health_agreement(scope);
        monitor.flush_telemetry();
    }
    finish_outcome(monitor, report)
}

/// Whether `cfg` produces at least one violation with the given key —
/// the oracle the shrinker and the replay checker share.
#[must_use]
pub fn mesh_reproduces(cfg: &MeshCaseConfig, key: (MeshInvariant, Option<usize>)) -> bool {
    run_mesh_case(cfg).violations.iter().any(|v| v.key() == key)
}

// ---------------------------------------------------------------------
// Shrinking and the repro format
// ---------------------------------------------------------------------

/// A shrunken mesh case plus the violation it still produces.
pub struct MeshShrinkReport {
    /// The reduced case.
    pub case: MeshCaseConfig,
    /// The violation it reproduces.
    pub violation: MeshViolation,
}

fn first_matching(
    cfg: &MeshCaseConfig,
    key: (MeshInvariant, Option<usize>),
) -> Option<MeshViolation> {
    run_mesh_case(cfg)
        .violations
        .into_iter()
        .find(|v| v.key() == key)
}

/// Greedy delta-debugging over the schedule and the run length: drop
/// events one at a time, then halve the injection cycles (discarding
/// events past the new horizon), re-checking the violation key after
/// every candidate. `budget` bounds the number of candidate re-runs.
#[must_use]
pub fn shrink_mesh(
    cfg: &MeshCaseConfig,
    key: (MeshInvariant, Option<usize>),
    budget: usize,
) -> Option<MeshShrinkReport> {
    let spent = std::cell::Cell::new(0usize);
    let run = |candidate: &MeshCaseConfig| -> Option<MeshViolation> {
        spent.set(spent.get() + 1);
        first_matching(candidate, key)
    };
    let mut violation = run(cfg)?;
    let mut best = cfg.clone();
    // Pass 1: drop events. On success stay at the same index (the next
    // event shifted into it).
    let mut i = 0;
    while i < best.schedule.events.len() && spent.get() < budget {
        let mut candidate = best.clone();
        candidate.schedule.events.remove(i);
        if let Some(v) = run(&candidate) {
            best = candidate;
            violation = v;
        } else {
            i += 1;
        }
    }
    // Pass 2: halve the injection phase while the violation survives.
    while best.cycles > 25 && spent.get() < budget {
        let mut candidate = best.clone();
        candidate.cycles = (candidate.cycles / 2).max(25);
        candidate
            .schedule
            .events
            .retain(|e| e.at_cycle < candidate.cycles);
        if candidate == best {
            break;
        }
        if let Some(v) = run(&candidate) {
            best = candidate;
            violation = v;
        } else {
            break;
        }
    }
    Some(MeshShrinkReport {
        case: best,
        violation,
    })
}

/// The violation a mesh repro file promises to reproduce.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedMeshViolation {
    /// Invariant that must break.
    pub kind: MeshInvariant,
    /// Link it must break on (`None` = end-to-end, rendered `e2e`).
    pub link: Option<usize>,
    /// Cycle it broke at in the original run (informational; replay
    /// matches on `(kind, link)` only).
    pub cycle: u64,
}

/// A parsed (or to-be-written) mesh reproducer: the
/// `socbus-mesh-repro v1` format, byte-canonical like the path format
/// (`serialize(parse(text)) == text`).
#[derive(Clone, Debug, PartialEq)]
pub struct MeshRepro {
    /// The case to re-run.
    pub case: MeshCaseConfig,
    /// The violation it must produce.
    pub expect: ExpectedMeshViolation,
}

const MESH_HEADER: &str = "socbus-mesh-repro v1";

impl MeshRepro {
    /// Bundles a shrunken case with its violation.
    #[must_use]
    pub fn new(case: MeshCaseConfig, violation: &MeshViolation) -> MeshRepro {
        MeshRepro {
            case,
            expect: ExpectedMeshViolation {
                kind: violation.kind,
                link: violation.link,
                cycle: violation.cycle,
            },
        }
    }

    /// Renders the canonical file text.
    #[must_use]
    pub fn serialize(&self) -> String {
        let c = &self.case;
        let mut out = String::new();
        let _ = writeln!(out, "{MESH_HEADER}");
        let _ = writeln!(out, "name {}", c.name);
        let _ = writeln!(out, "scheme {}", c.scheme.name());
        let _ = writeln!(out, "data_bits {}", c.data_bits);
        let _ = writeln!(out, "width {}", c.width);
        let _ = writeln!(out, "height {}", c.height);
        let _ = writeln!(out, "eps {:?}", c.eps);
        match c.protocol {
            Protocol::Fec => {
                let _ = writeln!(out, "protocol fec");
            }
            Protocol::DetectRetransmit {
                rtt_cycles,
                max_retries,
            } => {
                let _ = writeln!(
                    out,
                    "protocol detect-retransmit rtt={rtt_cycles} max_retries={max_retries}"
                );
            }
            Protocol::ArqBackoff {
                timeout_cycles,
                backoff_base,
                backoff_cap,
                max_retries,
            } => {
                let _ = writeln!(
                    out,
                    "protocol arq-backoff timeout={timeout_cycles} base={backoff_base} \
                     cap={backoff_cap} max_retries={max_retries}"
                );
            }
        }
        let _ = writeln!(out, "rate {:?}", c.rate);
        match c.pattern {
            MeshPattern::Uniform => {
                let _ = writeln!(out, "pattern uniform");
            }
            MeshPattern::Hotspot { node, fraction } => {
                let _ = writeln!(out, "pattern hotspot node={node} fraction={fraction:?}");
            }
            MeshPattern::Transpose => {
                let _ = writeln!(out, "pattern transpose");
            }
        }
        let _ = writeln!(out, "cycles {}", c.cycles);
        let _ = writeln!(out, "drain_cycles {}", c.drain_cycles);
        let _ = writeln!(
            out,
            "e2e timeout={} base={} cap={} max_retries={} ack_latency={}",
            c.e2e.timeout,
            c.e2e.backoff_base,
            c.e2e.backoff_cap,
            c.e2e.max_retries,
            c.e2e.ack_latency
        );
        if let Some(n) = c.auto_down_after {
            let _ = writeln!(out, "auto_down {n}");
        }
        let _ = writeln!(
            out,
            "expect_full_delivery {}",
            u8::from(c.expect_full_delivery)
        );
        let _ = writeln!(out, "traffic_seed {}", c.traffic_seed);
        let _ = writeln!(out, "sim_seed {}", c.sim_seed);
        for e in &c.schedule.events {
            let _ = write!(out, "event at={} ", e.at_cycle);
            match &e.action {
                MeshAction::Activate { id, link, spec } => {
                    let _ = writeln!(out, "activate id={id} link={link} spec={}", spec_str(spec));
                }
                MeshAction::Deactivate { id } => {
                    let _ = writeln!(out, "deactivate id={id}");
                }
                MeshAction::LinkDown { link } => {
                    let _ = writeln!(out, "link-down link={link}");
                }
                MeshAction::LinkUp { link } => {
                    let _ = writeln!(out, "link-up link={link}");
                }
            }
        }
        let _ = writeln!(
            out,
            "expect invariant={} link={} cycle={}",
            self.expect.kind.name(),
            self.expect
                .link
                .map_or_else(|| "e2e".to_owned(), |l| l.to_string()),
            self.expect.cycle
        );
        out
    }

    /// Parses a mesh repro file and validates its case
    /// ([`MeshCaseConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a line-tagged message on any malformed or missing field,
    /// or the validation message for a case out of range.
    pub fn parse(text: &str) -> Result<MeshRepro, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty repro file")?;
        if first != MESH_HEADER {
            return Err(format!("bad header {first:?}; expected {MESH_HEADER:?}"));
        }
        let mut name = None;
        let mut scheme = None;
        let mut data_bits = None;
        let mut width = None;
        let mut height = None;
        let mut eps = None;
        let mut protocol = None;
        let mut rate = None;
        let mut pattern = None;
        let mut cycles = None;
        let mut drain_cycles = None;
        let mut e2e = None;
        let mut auto_down_after = None;
        let mut expect_full_delivery = None;
        let mut traffic_seed = None;
        let mut sim_seed = None;
        let mut events = Vec::new();
        let mut expect = None;
        for (lineno, line) in lines {
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            let (key, rest) = line
                .split_once(' ')
                .ok_or_else(|| at(format!("malformed line {line:?}")))?;
            match key {
                "name" => name = Some(rest.to_owned()),
                "scheme" => {
                    scheme = Some(
                        Scheme::from_name(rest)
                            .ok_or_else(|| at(format!("unknown scheme {rest:?}")))?,
                    );
                }
                "data_bits" => data_bits = Some(parse_num(rest).map_err(&at)?),
                "width" => width = Some(parse_num(rest).map_err(&at)?),
                "height" => height = Some(parse_num(rest).map_err(&at)?),
                "eps" => eps = Some(parse_f64(rest).map_err(&at)?),
                "protocol" => protocol = Some(parse_protocol(rest).map_err(&at)?),
                "rate" => rate = Some(parse_f64(rest).map_err(&at)?),
                "pattern" => pattern = Some(parse_pattern(rest).map_err(&at)?),
                "cycles" => cycles = Some(parse_num(rest).map_err(&at)?),
                "drain_cycles" => drain_cycles = Some(parse_num(rest).map_err(&at)?),
                "e2e" => {
                    let mut toks = rest.split_whitespace();
                    e2e = Some(EndToEnd {
                        timeout: kv(toks.next(), "timeout")
                            .and_then(parse_num)
                            .map_err(&at)?,
                        backoff_base: kv(toks.next(), "base").and_then(parse_num).map_err(&at)?,
                        backoff_cap: kv(toks.next(), "cap").and_then(parse_num).map_err(&at)?,
                        max_retries: kv(toks.next(), "max_retries")
                            .and_then(parse_num)
                            .map_err(&at)?,
                        ack_latency: kv(toks.next(), "ack_latency")
                            .and_then(parse_num)
                            .map_err(&at)?,
                    });
                }
                "auto_down" => auto_down_after = Some(parse_num(rest).map_err(&at)?),
                "expect_full_delivery" => {
                    expect_full_delivery = Some(match rest {
                        "0" => false,
                        "1" => true,
                        other => return Err(at(format!("bad expect_full_delivery {other:?}"))),
                    });
                }
                "traffic_seed" => traffic_seed = Some(parse_num(rest).map_err(&at)?),
                "sim_seed" => sim_seed = Some(parse_num(rest).map_err(&at)?),
                "event" => events.push(parse_mesh_event(rest).map_err(&at)?),
                "expect" => expect = Some(parse_mesh_expect(rest).map_err(&at)?),
                other => return Err(at(format!("unknown key {other:?}"))),
            }
        }
        let missing = |what: &str| format!("missing {what}");
        let repro = MeshRepro {
            case: MeshCaseConfig {
                name: name.ok_or_else(|| missing("name"))?,
                scheme: scheme.ok_or_else(|| missing("scheme"))?,
                data_bits: data_bits.ok_or_else(|| missing("data_bits"))?,
                width: width.ok_or_else(|| missing("width"))?,
                height: height.ok_or_else(|| missing("height"))?,
                eps: eps.ok_or_else(|| missing("eps"))?,
                protocol: protocol.ok_or_else(|| missing("protocol"))?,
                rate: rate.ok_or_else(|| missing("rate"))?,
                pattern: pattern.ok_or_else(|| missing("pattern"))?,
                cycles: cycles.ok_or_else(|| missing("cycles"))?,
                drain_cycles: drain_cycles.ok_or_else(|| missing("drain_cycles"))?,
                e2e: e2e.ok_or_else(|| missing("e2e"))?,
                auto_down_after,
                expect_full_delivery: expect_full_delivery
                    .ok_or_else(|| missing("expect_full_delivery"))?,
                traffic_seed: traffic_seed.ok_or_else(|| missing("traffic_seed"))?,
                sim_seed: sim_seed.ok_or_else(|| missing("sim_seed"))?,
                schedule: MeshSchedule { events },
            },
            expect: expect.ok_or_else(|| missing("expect"))?,
        };
        repro
            .case
            .validate()
            .map_err(|e| format!("invalid case: {e}"))?;
        Ok(repro)
    }
}

fn parse_pattern(rest: &str) -> Result<MeshPattern, String> {
    let mut toks = rest.split_whitespace();
    match toks.next() {
        Some("uniform") => Ok(MeshPattern::Uniform),
        Some("hotspot") => Ok(MeshPattern::Hotspot {
            node: kv(toks.next(), "node").and_then(parse_num)?,
            fraction: kv(toks.next(), "fraction").and_then(parse_f64)?,
        }),
        Some("transpose") => Ok(MeshPattern::Transpose),
        other => Err(format!("unknown pattern {other:?}")),
    }
}

fn parse_mesh_event(rest: &str) -> Result<MeshEvent, String> {
    let mut toks = rest.split_whitespace();
    let at_cycle = kv(toks.next(), "at").and_then(parse_num)?;
    let action = match toks.next() {
        Some("activate") => {
            let id = kv(toks.next(), "id").and_then(parse_num)?;
            let link = kv(toks.next(), "link").and_then(parse_num)?;
            let spec_tag = kv(toks.next(), "spec")?;
            let joined = format!("{spec_tag} {}", toks.collect::<Vec<_>>().join(" "));
            let mut spec_toks = joined.split_whitespace();
            MeshAction::Activate {
                id,
                link,
                spec: parse_spec(&mut spec_toks)?,
            }
        }
        Some("deactivate") => MeshAction::Deactivate {
            id: kv(toks.next(), "id").and_then(parse_num)?,
        },
        Some("link-down") => MeshAction::LinkDown {
            link: kv(toks.next(), "link").and_then(parse_num)?,
        },
        Some("link-up") => MeshAction::LinkUp {
            link: kv(toks.next(), "link").and_then(parse_num)?,
        },
        other => return Err(format!("unknown event action {other:?}")),
    };
    Ok(MeshEvent { at_cycle, action })
}

fn parse_mesh_expect(rest: &str) -> Result<ExpectedMeshViolation, String> {
    let mut toks = rest.split_whitespace();
    let kind_name = kv(toks.next(), "invariant")?;
    let kind = MeshInvariant::from_name(&kind_name)
        .ok_or_else(|| format!("unknown invariant {kind_name:?}"))?;
    let link_str = kv(toks.next(), "link")?;
    let link = if link_str == "e2e" {
        None
    } else {
        Some(parse_num(&link_str)?)
    };
    let cycle = kv(toks.next(), "cycle").and_then(parse_num)?;
    Ok(ExpectedMeshViolation { kind, link, cycle })
}

/// Shrinks a violating mesh case and writes the reproducer file.
/// Returns the path written.
///
/// # Errors
///
/// Returns a message if shrinking fails to reproduce or the file cannot
/// be written.
pub fn write_mesh_repro(
    cfg: &MeshCaseConfig,
    violation: &MeshViolation,
    dir: &Path,
) -> Result<std::path::PathBuf, String> {
    let report = shrink_mesh(cfg, violation.key(), SHRINK_BUDGET)
        .ok_or_else(|| format!("case {} does not reproduce {violation:?}", cfg.name))?;
    let repro = MeshRepro::new(report.case, &report.violation);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file = dir.join(format!(
        "{}.txt",
        cfg.name.replace(['/', '(', ')', '+'], "_")
    ));
    std::fs::write(&file, repro.serialize())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    Ok(file)
}

/// Replays a mesh reproducer file: parses it, re-checks the canonical
/// form, re-runs the case, and reports whether the recorded violation
/// fired.
///
/// # Errors
///
/// Returns a message when the file does not parse or its case is out
/// of range; `Ok(None)` means the case ran but the violation did *not*
/// reproduce.
pub fn replay_mesh_text(text: &str) -> Result<Option<MeshViolation>, String> {
    replay_mesh_text_with(text, Telemetry::off())
}

/// [`replay_mesh_text`] with a telemetry handle wired through the
/// replayed case.
///
/// # Errors
///
/// Returns a message when the file does not parse or its case is out
/// of range; `Ok(None)` means the case ran but the violation did *not*
/// reproduce.
pub fn replay_mesh_text_with(text: &str, tel: Telemetry) -> Result<Option<MeshViolation>, String> {
    let repro = MeshRepro::parse(text)?;
    if repro.serialize() != text {
        return Err("file is not in canonical form (was it hand-edited?)".into());
    }
    let key = (repro.expect.kind, repro.expect.link);
    Ok(run_mesh_case_with(&repro.case, tel)
        .violations
        .into_iter()
        .find(|v| v.key() == key))
}

// ---------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------

/// The static shard list: one mesh cell per (scheme, family) grid
/// position, seeded deterministically from that position.
#[must_use]
pub fn mesh_cells() -> Vec<(Scheme, MeshFamily, u64)> {
    let mut cells = Vec::new();
    for (si, scheme) in Scheme::catalog().into_iter().enumerate() {
        for (fi, family) in MeshFamily::all().into_iter().enumerate() {
            let seed = (si * MeshFamily::all().len() + fi) as u64 + 1;
            cells.push((scheme, family, seed));
        }
    }
    cells
}

/// The `--smoke` subset of [`mesh_cells`]: one cell per fault family
/// (each with a different scheme), so CI covers all five families
/// without running the full grid.
#[must_use]
pub fn mesh_smoke_cells() -> Vec<(Scheme, MeshFamily, u64)> {
    let schemes = Scheme::catalog();
    let families = MeshFamily::all();
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

/// Assembles the [`MeshCaseConfig`] for one `(scheme, family, seed)`
/// cell — the single source of truth shared by the CLI, the campaign,
/// and the tests. Links run clean (`eps = 0`) at baseline: the schedule
/// carries all the chaos, so the single-link-down family can arm
/// reroute-delivers (any flagged loss there is a routing bug, not
/// noise).
#[must_use]
pub fn build_mesh_case(
    scheme: Scheme,
    family: MeshFamily,
    seed: u64,
    cycles: u64,
) -> MeshCaseConfig {
    let wires = scheme.build(DEFAULT_DATA_BITS).wires();
    let links = mesh_topology(MESH_WIDTH, MESH_HEIGHT).len();
    let params = MeshScheduleParams {
        cycles,
        links,
        wires,
    };
    let schedule = MeshSchedule::random(family, &params, seed);
    MeshCaseConfig {
        name: format!("{}/{}", scheme.name(), family.name()),
        scheme,
        data_bits: DEFAULT_DATA_BITS,
        width: MESH_WIDTH,
        height: MESH_HEIGHT,
        eps: 0.0,
        protocol: protocol_for(scheme, seed),
        rate: MESH_RATE,
        pattern: MeshPattern::Uniform,
        cycles,
        drain_cycles: MESH_DRAIN_CYCLES,
        e2e: EndToEnd::default(),
        auto_down_after: Some(MESH_AUTO_DOWN),
        expect_full_delivery: family == MeshFamily::SingleLinkDown,
        traffic_seed: seed ^ 0xA5A5,
        sim_seed: seed,
        schedule,
    }
}

/// Runs the mesh campaign over `cells` on up to `threads` workers under
/// `observe`, one sub-run per cell named after the case. Under
/// [`Observe::Health`] every cell's stream folds into its own
/// incident-report scope and the health-consistent invariant is checked
/// cell by cell. Outcomes, the merged recording and the incident report
/// come back in grid order, byte-identical for every thread count.
#[must_use]
pub fn run_mesh_campaign(
    cells: &[(Scheme, MeshFamily, u64)],
    cycles: u64,
    threads: usize,
    observe: &Observe,
) -> (Vec<(String, MeshCaseOutcome)>, Observation) {
    observe.merge(run_shards(threads, cells, |_, &(scheme, family, seed)| {
        let cfg = build_mesh_case(scheme, family, seed, cycles);
        observe.cell(|obs| {
            let out = obs.run(&cfg.name, |sub| run_mesh_case_observed(&cfg, sub));
            (cfg.name.clone(), out)
        })
    }))
}

/// Renders the mesh campaign JSON.
#[must_use]
pub fn render_mesh_json(cycles: u64, outcomes: &[(String, MeshCaseOutcome)]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"data_bits\": {DEFAULT_DATA_BITS},");
    let _ = writeln!(json, "  \"mesh\": \"{MESH_WIDTH}x{MESH_HEIGHT}\",");
    let _ = writeln!(json, "  \"cycles_per_case\": {cycles},");
    json.push_str("  \"cases\": [\n");
    let mut first = true;
    for (name, out) in outcomes {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str("    {");
        let _ = write!(json, "\"case\": \"{name}\", ");
        let _ = write!(json, "\"violations\": {}, ", out.violations.len());
        let _ = write!(json, "\"injected\": {}, ", out.report.injected);
        let _ = write!(json, "\"delivered\": {}, ", out.report.delivered);
        let _ = write!(json, "\"flagged_lost\": {}, ", out.report.flagged_lost);
        let _ = write!(json, "\"duplicates\": {}, ", out.report.duplicates);
        let _ = write!(
            json,
            "\"e2e_retransmits\": {}, ",
            out.report.e2e_retransmits
        );
        let _ = write!(
            json,
            "\"dropped_poisoned\": {}, ",
            out.report.dropped_poisoned
        );
        let _ = write!(json, "\"links_down\": {}, ", out.report.links_down);
        let _ = write!(json, "\"throughput\": {}, ", sci(out.report.throughput()));
        let _ = write!(
            json,
            "\"p50_latency\": {}, ",
            out.report.latency_quantile(0.5)
        );
        let _ = write!(
            json,
            "\"p99_latency\": {}",
            out.report.latency_quantile(0.99)
        );
        json.push('}');
    }
    json.push_str("\n  ],\n");
    json.push_str("  \"invariants\": {\n");
    let mut first = true;
    for kind in MeshInvariant::all() {
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
    let violations: usize = outcomes.iter().map(|(_, out)| out.violations.len()).sum();
    let _ = writeln!(json, "  \"violations\": {violations}");
    json.push_str("}\n");
    json
}

/// The mesh campaign entry point behind `chaos mesh`. Every cell runs
/// under the health monitor, so the campaign always produces an
/// incident timeline and always checks the health-consistent invariant.
/// Args: `[--smoke] [--threads N] [--trace-out <path>]
/// [--health-out <path>] [out_path]`.
/// Returns the process exit code (nonzero iff any invariant violated).
#[must_use]
pub fn mesh_main(args: &[String]) -> i32 {
    const BIN: &str = "chaos mesh";
    let Some(opts) = RunOpts::parse(BIN, crate::campaign::FLAGS, args) else {
        return 2;
    };
    let (cells, cycles) = if opts.smoke {
        (mesh_smoke_cells(), SMOKE_MESH_CYCLES)
    } else {
        (mesh_cells(), FULL_MESH_CYCLES)
    };
    let health_cfg = HealthConfig::default();
    let observe = Observe::Health(health_cfg.clone());
    let started = std::time::Instant::now();
    let (outcomes, seen) = run_mesh_campaign(&cells, cycles, opts.threads, &observe);
    let wall = started.elapsed();
    let scopes = &seen.health.as_ref().expect("health observation").scopes;
    for ((name, out), scope) in outcomes.iter().zip(scopes) {
        eprintln!(
            "{name:<26} injected {:>4}  delivered {:>4}  lost {:>2}  retx {:>4}  \
             incidents {}  violations {}",
            out.report.injected,
            out.report.delivered,
            out.report.flagged_lost,
            out.report.e2e_retransmits,
            scope.incidents.len(),
            out.violations.len()
        );
    }
    let out_path = opts.out_or("results/BENCH_mesh_chaos.json");
    // The incident report is always written: every cell runs under the
    // health monitor.
    let health_out = opts.health_out.as_deref();
    if let Err(e) = seen.write_artefacts(
        BIN,
        out_path,
        &render_mesh_json(cycles, &outcomes),
        opts.trace_out.as_deref(),
        Some(health_out.unwrap_or("results/BENCH_mesh_chaos.health.json")),
        &mut std::io::stderr(),
    ) {
        eprintln!("{BIN}: {e}");
        return 2;
    }
    let violations: usize = outcomes.iter().map(|(_, out)| out.violations.len()).sum();
    eprintln!(
        "{BIN}: {} cases x {cycles} cycles on {} thread(s) in {:.2}s -> {out_path} ({violations} violation(s))",
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
        let cfg = build_mesh_case(scheme, family, seed, cycles);
        write_reproducer(
            BIN,
            name,
            &v.detail,
            |dir| write_mesh_repro(&cfg, v, dir),
            |text, tel| replay_mesh_text_with(text, tel).is_ok(),
            Some(&health_cfg),
        );
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_noc::mesh::Direction;
    use socbus_telemetry::health::EntitySummary;

    #[test]
    fn mesh_schedules_are_deterministic_per_seed() {
        let params = MeshScheduleParams {
            cycles: 200,
            links: 24,
            wires: 21,
        };
        for family in MeshFamily::all() {
            let a = MeshSchedule::random(family, &params, 9);
            let b = MeshSchedule::random(family, &params, 9);
            assert_eq!(a, b, "{}", family.name());
            assert!(!a.events.is_empty(), "{}", family.name());
            let c = MeshSchedule::random(family, &params, 10);
            assert_ne!(a, c, "{} must vary with the seed", family.name());
        }
    }

    #[test]
    fn single_link_down_schedules_down_exactly_one_link_at_cycle_zero() {
        let params = MeshScheduleParams {
            cycles: 200,
            links: 24,
            wires: 21,
        };
        for seed in 0..20 {
            let s = MeshSchedule::random(MeshFamily::SingleLinkDown, &params, seed);
            assert_eq!(s.events.len(), 1);
            assert_eq!(s.events[0].at_cycle, 0);
            assert!(matches!(
                s.events[0].action,
                MeshAction::LinkDown { link } if link < 24
            ));
        }
    }

    #[test]
    fn shadow_topology_matches_the_simulator() {
        for (w, h) in [(3, 3), (2, 4)] {
            let cfg = MeshConfig::new(w, h, LinkConfig::new(Scheme::Dap, 16, 0.0));
            let sim = MeshSim::new(&cfg, 1, 2);
            let shadow = mesh_topology(w, h);
            assert_eq!(shadow.len(), sim.link_count());
            for (l, &(from, to)) in shadow.iter().enumerate() {
                let (sf, st, _dir) = sim.link_endpoints(l);
                assert_eq!((from, to), (sf, st), "link {l} on {w}x{h}");
            }
        }
    }

    #[test]
    fn monitor_distances_respect_downed_links() {
        let mut m = MeshMonitor::new(3, 3, false);
        // Full topology: Manhattan distances.
        assert_eq!(m.dist(0, 8), 4);
        assert_eq!(m.dist(8, 0), 4);
        // Down node 0's east link (link 0: 0 -> 1); 0 -> 1 now detours.
        let shadow = mesh_topology(3, 3);
        assert_eq!(shadow[0], (0, 1));
        m.set_link_down(0, true);
        assert_eq!(m.dist(0, 1), 3);
        assert_eq!(m.dist(1, 0), 1, "reverse direction is unaffected");
        m.set_link_down(0, false);
        assert_eq!(m.dist(0, 1), 1);
    }

    fn quick_case(seed: u64) -> MeshCaseConfig {
        let mut cfg = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, seed, 60);
        // Tight e2e knobs keep debug-mode tests fast without changing
        // any semantics under test.
        cfg.e2e = EndToEnd {
            timeout: 12,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 3,
            ack_latency: 2,
        };
        cfg.drain_cycles = 800;
        cfg
    }

    #[test]
    fn mesh_case_runs_are_deterministic() {
        let cfg = quick_case(5);
        let a = run_mesh_case(&cfg);
        let b = run_mesh_case(&cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.violations, b.violations);
        assert!(a.report.injected > 0);
    }

    #[test]
    fn smoke_grid_has_zero_violations() {
        for (scheme, family, seed) in mesh_smoke_cells() {
            let mut cfg = build_mesh_case(scheme, family, seed, 80);
            cfg.e2e = EndToEnd {
                timeout: 12,
                backoff_base: 2,
                backoff_cap: 16,
                max_retries: 6,
                ack_latency: 2,
            };
            cfg.drain_cycles = 2_000;
            let out = run_mesh_case(&cfg);
            assert_eq!(
                out.violations,
                vec![],
                "{} must hold every invariant: {:?}",
                cfg.name,
                out.violations.first()
            );
            assert!(out.report.injected > 0, "{}", cfg.name);
            assert_eq!(
                out.report.injected,
                out.report.delivered + out.report.flagged_lost,
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn auto_retired_links_page_and_agree_with_health() {
        // An always-detected fault on link 0 (every wire flips, odd
        // weight, parity always sees it) retires the link after three
        // consecutive poisoned transfers; the health monitor must mark
        // it Down and open an incident that blames it.
        let mut cfg = quick_case(5);
        cfg.scheme = Scheme::Parity;
        cfg.protocol = Protocol::Fec;
        cfg.rate = 0.5;
        cfg.auto_down_after = Some(3);
        cfg.expect_full_delivery = false;
        cfg.schedule = MeshSchedule {
            events: vec![MeshEvent {
                at_cycle: 0,
                action: MeshAction::Activate {
                    id: 0,
                    link: 0,
                    spec: FaultSpec::Iid { eps: 1.0 },
                },
            }],
        };
        let observe = Observe::Health(HealthConfig::default());
        let cell = observe.cell(|obs| obs.run("t", |sub| run_mesh_case_observed(&cfg, sub)));
        let (outs, seen) = observe.merge(vec![cell]);
        let out = &outs[0];
        let scope = &seen.health.expect("health observation").scopes[0];
        assert!(out.report.links_down >= 1, "the storm must retire link 0");
        let hc = out
            .stats
            .iter()
            .find(|(k, _)| *k == MeshInvariant::HealthConsistent)
            .expect("stats cover every invariant")
            .1;
        assert!(hc.checked >= 1, "agreement must actually be checked");
        assert_eq!(hc.violated, 0, "{:?}", out.violations);
        assert!(
            scope.down_entities().iter().any(|e| e == "link:0"),
            "health must mark link 0 Down: {:?}",
            scope.entities
        );
        assert!(
            scope.blamed_entities().iter().any(|e| e == "link:0"),
            "an incident must blame link 0: {:?}",
            scope.incidents
        );
    }

    #[test]
    fn health_agreement_rejects_silent_and_phantom_downs() {
        let scope = |entities: Vec<EntitySummary>, incidents| ScopeReport {
            scope: "t".into(),
            cycles: 10,
            events: 0,
            ring_dropped: 0,
            entities,
            incidents,
            alerts: vec![],
            slos: vec![],
            samples: vec![],
        };
        let down_entity = |name: &str| EntitySummary {
            entity: name.to_owned(),
            kind: "link".into(),
            state: socbus_telemetry::health::HealthState::Down,
            strain: 9,
            last_cycle: 10,
        };
        // Phantom: health says link 3 is Down, simulator never retired it.
        let mut m = MeshMonitor::new(3, 3, false);
        m.check_health_agreement(&scope(vec![down_entity("link:3")], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("never auto-retired"));
        // Silent: link 2 auto-retired but health never marked it Down.
        let mut m = MeshMonitor::new(3, 3, false);
        m.auto_downed.insert(2);
        m.check_health_agreement(&scope(vec![], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("not Down"));
        // Unblamed: Down in the report, but no incident pages anyone.
        let mut m = MeshMonitor::new(3, 3, false);
        m.auto_downed.insert(2);
        m.check_health_agreement(&scope(vec![down_entity("link:2")], vec![]));
        assert_eq!(m.violations.len(), 1);
        assert!(m.violations[0].detail.contains("no incident blames"));
    }

    #[test]
    fn mesh_health_campaign_is_thread_count_invariant() {
        let cells: Vec<_> = mesh_smoke_cells().into_iter().take(2).collect();
        let observe = Observe::Health(HealthConfig::default());
        let (o1, s1) = run_mesh_campaign(&cells, 40, 1, &observe);
        let (o8, s8) = run_mesh_campaign(&cells, 40, 8, &observe);
        let (h1, h8) = (s1.health.expect("health"), s8.health.expect("health"));
        assert_eq!(h1.serialize(), h8.serialize());
        let (r1, r8) = (s1.recorder.expect("traced"), s8.recorder.expect("traced"));
        assert_eq!(r1.export_jsonl(), r8.export_jsonl());
        assert_eq!(render_mesh_json(40, &o1), render_mesh_json(40, &o8));
    }

    #[test]
    fn mesh_campaign_json_is_thread_count_invariant() {
        let cells: Vec<_> = mesh_smoke_cells().into_iter().take(2).collect();
        let (one, _) = run_mesh_campaign(&cells, 40, 1, &Observe::Off);
        let (many, _) = run_mesh_campaign(&cells, 40, 8, &Observe::Off);
        assert_eq!(render_mesh_json(40, &one), render_mesh_json(40, &many));
    }

    #[test]
    fn mesh_campaign_covers_every_catalog_scheme_and_family() {
        let cells = mesh_cells();
        assert_eq!(
            cells.len(),
            Scheme::catalog().len() * MeshFamily::all().len()
        );
        for scheme in Scheme::catalog() {
            for family in MeshFamily::all() {
                assert!(
                    cells.iter().any(|&(s, f, _)| s == scheme && f == family),
                    "{}/{} missing from the mesh campaign",
                    scheme.name(),
                    family.name()
                );
            }
        }
        let smoke = mesh_smoke_cells();
        assert_eq!(smoke.len(), MeshFamily::all().len());
    }

    fn sample_mesh_repro() -> MeshRepro {
        let mut cfg = build_mesh_case(Scheme::Dap, MeshFamily::MixedMesh, 3, 120);
        cfg.pattern = MeshPattern::Hotspot {
            node: 4,
            fraction: 0.4,
        };
        cfg.schedule.events.push(MeshEvent {
            at_cycle: 7,
            action: MeshAction::Activate {
                id: 42,
                link: 5,
                spec: FaultSpec::Iid { eps: 1.5e-3 },
            },
        });
        cfg.schedule.sort();
        MeshRepro {
            case: cfg,
            expect: ExpectedMeshViolation {
                kind: MeshInvariant::BoundedProgress,
                link: Some(3),
                cycle: 99,
            },
        }
    }

    #[test]
    fn mesh_repro_round_trips_byte_identically() {
        let repro = sample_mesh_repro();
        let text = repro.serialize();
        let back = MeshRepro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text, "canonical form must be stable");
    }

    #[test]
    fn every_event_kind_and_pattern_round_trips() {
        let mut repro = sample_mesh_repro();
        repro.case.pattern = MeshPattern::Transpose;
        repro.case.auto_down_after = None;
        repro.expect.link = None;
        repro.case.schedule = MeshSchedule {
            events: vec![
                MeshEvent {
                    at_cycle: 0,
                    action: MeshAction::LinkDown { link: 2 },
                },
                MeshEvent {
                    at_cycle: 3,
                    action: MeshAction::Activate {
                        id: 0,
                        link: 1,
                        spec: FaultSpec::Burst {
                            eps_good: 1e-4,
                            eps_bad: 0.25,
                            p_enter: 0.05,
                            p_exit: 0.3,
                        },
                    },
                },
                MeshEvent {
                    at_cycle: 5,
                    action: MeshAction::Deactivate { id: 0 },
                },
                MeshEvent {
                    at_cycle: 9,
                    action: MeshAction::LinkUp { link: 2 },
                },
            ],
        };
        let text = repro.serialize();
        assert!(text.contains("pattern transpose"));
        assert!(!text.contains("auto_down"));
        let back = MeshRepro::parse(&text).expect("parses");
        assert_eq!(back, repro);
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn malformed_mesh_repros_are_rejected_with_context() {
        assert!(MeshRepro::parse("").is_err());
        assert!(MeshRepro::parse("socbus-chaos-repro v1\n").is_err());
        let missing = "socbus-mesh-repro v1\nname x\n";
        let err = MeshRepro::parse(missing).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let full = sample_mesh_repro().serialize();
        let broken = full.replace("invariant=bounded-progress", "invariant=vibes");
        assert!(MeshRepro::parse(&broken).unwrap_err().contains("vibes"));
        // Hand-edited text that still parses (a trailing override line)
        // is refused by the canonical-form re-check.
        let padded = format!("{full}sim_seed 999\n");
        assert!(replay_mesh_text(&padded).unwrap_err().contains("canonical"));
    }

    /// The canonical sample repro with the line starting `key ` replaced
    /// by `line`, or with `line` inserted before the `expect` line when
    /// no line starts with `key `.
    fn mutant(key: &str, line: &str) -> String {
        let text = sample_mesh_repro().serialize();
        let prefix = format!("{key} ");
        let mut out = String::new();
        let mut replaced = false;
        for l in text.lines() {
            if !replaced && l.starts_with(&prefix) {
                replaced = true;
                out.push_str(line);
            } else {
                if !replaced && l.starts_with("expect ") {
                    replaced = true;
                    out.push_str(line);
                    out.push('\n');
                }
                out.push_str(l);
            }
            out.push('\n');
        }
        assert!(replaced, "no line to mutate for {key}");
        out
    }

    /// A mutant must be refused by both the parser and replay, with a
    /// message naming the bad field.
    fn assert_rejected(key: &str, line: &str, needle: &str) {
        let text = mutant(key, line);
        let err = MeshRepro::parse(&text).expect_err(line);
        assert!(err.contains(needle), "{line}: {err}");
        assert!(replay_mesh_text(&text).is_err(), "{line}");
    }

    #[test]
    fn mesh_repro_rejects_a_one_wide_mesh() {
        assert_rejected("width", "width 1", "mesh 1x3");
    }

    #[test]
    fn mesh_repro_rejects_a_zero_wide_mesh() {
        assert_rejected("width", "width 0", "mesh 0x3");
    }

    #[test]
    fn mesh_repro_rejects_a_nan_rate() {
        assert_rejected("rate", "rate NaN", "rate NaN");
    }

    #[test]
    fn mesh_repro_rejects_a_rate_above_one() {
        assert_rejected("rate", "rate 2.0", "rate 2.0");
    }

    #[test]
    fn mesh_repro_rejects_zero_data_bits() {
        assert_rejected("data_bits", "data_bits 0", "data_bits 0");
    }

    #[test]
    fn mesh_repro_rejects_too_many_data_bits() {
        assert_rejected("data_bits", "data_bits 300", "data_bits 300");
    }

    #[test]
    fn mesh_repro_rejects_eps_above_one() {
        assert_rejected("eps", "eps 2.0", "eps 2.0");
    }

    #[test]
    fn mesh_repro_rejects_a_nan_eps() {
        // Used to replay to Ok(None): "no violation" on a case that
        // simulated nothing meaningful.
        assert_rejected("eps", "eps NaN", "eps NaN");
    }

    #[test]
    fn mesh_repro_rejects_a_hotspot_outside_the_mesh() {
        assert_rejected(
            "pattern",
            "pattern hotspot node=99 fraction=0.4",
            "hotspot node 99",
        );
    }

    #[test]
    fn mesh_repro_rejects_an_event_on_a_missing_link() {
        assert_rejected("event", "event at=0 link-down link=999", "link 999");
    }

    #[test]
    fn mesh_case_validation_caps_cycles_and_checks_faults() {
        let mut cfg = sample_mesh_repro().case;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.drain_cycles = u64::MAX;
        assert!(cfg.validate().unwrap_err().contains("drain_cycles"));
        cfg.drain_cycles = MAX_MESH_CASE_CYCLES - cfg.cycles;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.scheme = Scheme::BusInvert(0);
        assert!(cfg.validate().unwrap_err().contains("sub-buses"));
        cfg.scheme = Scheme::Dap;
        cfg.schedule.events.push(MeshEvent {
            at_cycle: 1,
            action: MeshAction::Activate {
                id: 7,
                link: 0,
                spec: FaultSpec::Iid { eps: 1.5 },
            },
        });
        assert!(cfg.validate().unwrap_err().contains("iid eps 1.5"));
        cfg.schedule.events.pop();
        cfg.schedule.events.push(MeshEvent {
            at_cycle: 1,
            action: MeshAction::Activate {
                id: 7,
                link: 0,
                spec: FaultSpec::Droop {
                    eps: 0.0,
                    scale: -1.0,
                    start: 0,
                    duration: 5,
                },
            },
        });
        assert!(cfg.validate().unwrap_err().contains("droop scale"));
    }

    #[test]
    fn every_valid_data_width_builds_and_steps() {
        // validate() promises a runnable mesh: every scheme it accepts
        // must build its links and step without panicking.
        let mut schemes = Scheme::catalog();
        schemes.extend([Scheme::Sabotaged, Scheme::BusInvert(3)]);
        for scheme in schemes {
            for data_bits in [1, 2, 3, 7, 8, 9, 16, 33, 63, MAX_MESH_DATA_BITS] {
                let mut cfg = build_mesh_case(scheme, MeshFamily::SingleLinkDown, 1, 4);
                cfg.data_bits = data_bits;
                if cfg.validate().is_err() {
                    assert!(
                        matches!(scheme, Scheme::BusInvert(g) if g > data_bits),
                        "{} at {data_bits} bits",
                        scheme.name()
                    );
                    continue;
                }
                let out = run_mesh_case(&cfg);
                assert!(out.report.cycles >= 4, "{} at {data_bits}", scheme.name());
            }
        }
    }

    /// End-to-end harness self-test: strand node 0 by downing both of
    /// its out-links on a cell that arms reroute-delivers, then shrink
    /// the violation and replay the reproducer.
    #[test]
    fn planted_partition_shrinks_to_a_replayable_repro() {
        // Links 0 and 1 are node 0's east and north out-links (the only
        // two it has), so packets *from* node 0 can never leave.
        let shadow = mesh_topology(3, 3);
        assert_eq!(shadow[0], (0, 1));
        assert_eq!(shadow[1], (0, 3));
        let cfg = MeshCaseConfig {
            name: "planted/partition".into(),
            scheme: Scheme::Dap,
            data_bits: 16,
            width: 3,
            height: 3,
            eps: 0.0,
            protocol: Protocol::Fec,
            rate: 0.2,
            pattern: MeshPattern::Uniform,
            cycles: 40,
            drain_cycles: 600,
            e2e: EndToEnd {
                timeout: 8,
                backoff_base: 2,
                backoff_cap: 8,
                max_retries: 2,
                ack_latency: 2,
            },
            auto_down_after: None,
            expect_full_delivery: true,
            traffic_seed: 11,
            sim_seed: 7,
            schedule: MeshSchedule {
                events: vec![
                    MeshEvent {
                        at_cycle: 0,
                        action: MeshAction::LinkDown { link: 0 },
                    },
                    MeshEvent {
                        at_cycle: 0,
                        action: MeshAction::LinkDown { link: 1 },
                    },
                ],
            },
        };
        let out = run_mesh_case(&cfg);
        let v = out
            .violations
            .iter()
            .find(|v| v.kind == MeshInvariant::RerouteDelivers)
            .expect("stranding a node must break reroute-delivers");
        assert!(out.report.flagged_lost > 0);
        assert_eq!(
            out.report.injected,
            out.report.delivered + out.report.flagged_lost,
            "conservation must hold even while reroute-delivers breaks"
        );
        let shrunk = shrink_mesh(&cfg, v.key(), 60).expect("shrink reproduces");
        assert!(
            shrunk.case.schedule.events.len() == 2,
            "neither link-down is droppable: {:?}",
            shrunk.case.schedule.events
        );
        assert!(shrunk.case.cycles <= cfg.cycles);
        let repro = MeshRepro::new(shrunk.case, &shrunk.violation);
        let text = repro.serialize();
        let replayed = replay_mesh_text(&text).expect("parses");
        let replayed = replayed.expect("reproduces");
        assert_eq!(replayed.kind, MeshInvariant::RerouteDelivers);
    }

    /// A single downed link (the campaign's link_down family) must NOT
    /// violate anything: the fallback reroutes and delivers everything.
    #[test]
    fn single_link_down_cell_delivers_everything() {
        let mut cfg = build_mesh_case(Scheme::Parity, MeshFamily::SingleLinkDown, 16, 60);
        cfg.e2e = EndToEnd {
            timeout: 12,
            backoff_base: 2,
            backoff_cap: 16,
            max_retries: 6,
            ack_latency: 2,
        };
        cfg.drain_cycles = 1_500;
        assert!(cfg.expect_full_delivery);
        let out = run_mesh_case(&cfg);
        assert_eq!(out.violations, vec![], "{:?}", out.violations.first());
        assert_eq!(out.report.flagged_lost, 0);
        assert_eq!(out.report.delivered, out.report.injected);
    }

    #[test]
    fn direction_enumeration_assumption_holds() {
        // mesh_topology's E/W/N/S per-node order replicates
        // Direction::all(); if the simulator ever reorders it, the
        // shadow-topology test above fails — this pins the contract.
        assert_eq!(
            Direction::all(),
            [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South
            ]
        );
    }
}
