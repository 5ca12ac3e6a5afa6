//! Routing-delivery properties of the 2D-mesh NoC (ISSUE 7 satellite).
//!
//! Two layers:
//!
//! * **Exhaustive** over small meshes: every (source, destination) pair
//!   reaches its destination by walking the routing function — on the
//!   fault-free mesh (where the rule must also coincide with XY), and
//!   under *every* single permanent directed-link failure.
//! * **Property-based** full simulations: random mesh shapes, seeds,
//!   and a random failed link must still satisfy the exactly-once
//!   ledger with zero flagged losses (clean links mean the first copy
//!   that routes through always arrives).

use proptest::prelude::*;
use socbus_codes::Scheme;
use socbus_noc::link::LinkConfig;
use socbus_noc::mesh::{MeshConfig, MeshSim};

fn mesh(width: usize, height: usize) -> MeshSim {
    let cfg = MeshConfig::new(width, height, LinkConfig::new(Scheme::Dap, 16, 0.0));
    MeshSim::new(&cfg, 1, 2)
}

/// Walks the routing function from `src` to `dst`, asserting arrival
/// within `bound` hops. Returns the hop count.
fn walk(sim: &mut MeshSim, src: usize, dst: usize, bound: usize) -> usize {
    let mut at = src;
    let mut hops = 0;
    while at != dst {
        let dir = sim
            .next_hop(at, dst)
            .unwrap_or_else(|| panic!("no route {at} -> {dst}"));
        let link = (0..sim.link_count())
            .find(|&l| {
                let (from, _, d) = sim.link_endpoints(l);
                from == at && d == dir
            })
            .expect("direction maps to a link");
        assert!(
            !sim.is_link_down(link),
            "router chose the downed link {link}"
        );
        at = sim.link_endpoints(link).1;
        hops += 1;
        assert!(hops <= bound, "{src} -> {dst} exceeded {bound} hops");
    }
    hops
}

#[test]
fn xy_delivers_all_pairs_on_fault_free_meshes() {
    for (w, h) in [(2, 2), (3, 3), (2, 4), (4, 3)] {
        let mut sim = mesh(w, h);
        let n = w * h;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                // XY is minimal: exactly the Manhattan distance.
                let manhattan = (src % w).abs_diff(dst % w) + (src / w).abs_diff(dst / w);
                let hops = walk(&mut sim, src, dst, manhattan);
                assert_eq!(hops, manhattan, "{src} -> {dst} on {w}x{h}");
            }
        }
    }
}

#[test]
fn fallback_delivers_all_pairs_under_every_single_link_failure() {
    // Exhaustive: every directed link down, every (src, dst) pair. A
    // single directed failure cannot disconnect a >= 2x2 mesh, so the
    // fallback must always find a route; n*n hops is a generous bound
    // for a shortest-path descent.
    for (w, h) in [(2, 2), (3, 3), (2, 4), (4, 3)] {
        let n = w * h;
        let links = mesh(w, h).link_count();
        for dead in 0..links {
            let mut sim = mesh(w, h);
            sim.set_link_down(dead, true);
            for src in 0..n {
                for dst in 0..n {
                    if src != dst {
                        let _ = walk(&mut sim, src, dst, n * n);
                    }
                }
            }
        }
    }
}

#[test]
fn fallback_matches_xy_when_links_recover() {
    // Downing and restoring a link must leave routing exactly XY again.
    let mut sim = mesh(3, 3);
    sim.set_link_down(4, true);
    sim.set_link_down(4, false);
    for src in 0..9 {
        for dst in 0..9 {
            if src != dst {
                let xy = sim.xy_next(src, dst);
                assert_eq!(sim.next_hop(src, dst), Some(xy), "{src} -> {dst}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full simulation on a clean random mesh: every injected packet is
    /// delivered exactly once — no flagged losses, no duplicates
    /// surviving to the ledger, no silent drops.
    #[test]
    fn clean_mesh_simulation_delivers_exactly_once(
        w in 2usize..5,
        h in 2usize..4,
        sim_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
    ) {
        let cfg = MeshConfig::new(w, h, LinkConfig::new(Scheme::Dap, 16, 0.0))
            .with_rate(0.15);
        let report = socbus_noc::mesh::simulate_mesh(&cfg, 200, 5_000, sim_seed, traffic_seed);
        prop_assert!(report.injected > 0);
        prop_assert_eq!(report.delivered, report.injected);
        prop_assert_eq!(report.flagged_lost, 0);
        prop_assert_eq!(report.delivered_corrupt, 0);
        prop_assert_eq!(report.dropped_no_route, 0);
    }

    /// Full simulation with one random permanent directed-link failure
    /// from cycle zero: the fault-aware fallback must still deliver
    /// everything (links are clean, so the first arriving copy is
    /// always intact) — the mesh analogue of "reroute still delivers".
    #[test]
    fn single_permanent_link_failure_still_delivers_everything(
        w in 2usize..5,
        h in 2usize..4,
        dead_pick in any::<u64>(),
        sim_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
    ) {
        let cfg = MeshConfig::new(w, h, LinkConfig::new(Scheme::Dap, 16, 0.0))
            .with_rate(0.15);
        let mut sim = MeshSim::new(&cfg, sim_seed, traffic_seed);
        #[allow(clippy::cast_possible_truncation)]
        let dead = (dead_pick % sim.link_count() as u64) as usize;
        sim.set_link_down(dead, true);
        for _ in 0..200 {
            let _ = sim.step(true);
        }
        let mut drained = 0;
        while !sim.idle() && drained < 10_000 {
            let _ = sim.step(false);
            drained += 1;
        }
        let report = sim.finish();
        prop_assert!(report.injected > 0);
        prop_assert_eq!(report.flagged_lost, 0, "link {} down lost packets", dead);
        prop_assert_eq!(report.delivered, report.injected);
    }

    /// Clean links at a loaded rate with one random directed link down:
    /// rerouting congests the fabric, but no copy is ever dropped, so
    /// the sources must never retransmit and no duplicate may arrive.
    #[test]
    fn a_downed_link_causes_no_spurious_retransmission(
        w in 2usize..5,
        h in 2usize..5,
        rate in 0.3f64..0.95,
        dead_pick in any::<u64>(),
        sim_seed in any::<u64>(),
        traffic_seed in any::<u64>(),
    ) {
        let cfg = MeshConfig::new(w, h, LinkConfig::new(Scheme::Dap, 16, 0.0))
            .with_rate(rate);
        let mut sim = MeshSim::new(&cfg, sim_seed, traffic_seed);
        #[allow(clippy::cast_possible_truncation)]
        let dead = (dead_pick % sim.link_count() as u64) as usize;
        sim.set_link_down(dead, true);
        for _ in 0..200 {
            let _ = sim.step(true);
        }
        let mut drained = 0;
        while !sim.idle() && drained < 10_000 {
            let _ = sim.step(false);
            drained += 1;
        }
        let report = sim.finish();
        prop_assert!(report.injected > 0);
        prop_assert_eq!(report.e2e_retransmits, 0, "link {} down", dead);
        prop_assert_eq!(report.duplicates, 0, "link {} down", dead);
        prop_assert_eq!(report.delivered, report.injected);
    }
}
