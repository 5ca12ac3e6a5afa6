//! Golden digests of the mesh fabric's observable behaviour.
//!
//! Each case runs the 4×4 mesh at injection rate 0.9 (saturation) and
//! hashes, with 64-bit FNV-1a, the `Debug` rendering of every
//! [`CycleReport`] the simulator returns plus the final [`MeshReport`].
//! The stream digest pins every transfer (payloads, word traces, wait
//! times, drops), every accept, injection and give-up, cycle by cycle;
//! the report digest pins the ledger, the latency histogram, the flows
//! and each link's report, energy included.
//!
//! A refactor of `noc::mesh` or of anything the link path calls must
//! leave every digest unchanged. A deliberate behaviour change
//! re-records only the cases it is meant to move.

use socbus_channel::FaultSpec;
use socbus_codes::Scheme;
use socbus_noc::link::{LinkConfig, Protocol};
use socbus_noc::mesh::{MeshConfig, MeshSim};

const CYCLES: u64 = 300;
const DRAIN_CYCLES: u64 = 8_000;
const RATE: f64 = 0.9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Runs one case; returns `(stream digest, report digest, cycles)`.
fn run(link: LinkConfig, link_down: bool) -> (u64, u64, u64) {
    let cfg = MeshConfig::new(4, 4, link).with_rate(RATE);
    let mut sim = MeshSim::new(&cfg, 23, 23 ^ 0xA5);
    if link_down {
        sim.set_link_down(0, true);
    }
    let mut stream = Fnv::new();
    for _ in 0..CYCLES {
        stream.write(&format!("{:?}\n", sim.step(true)));
    }
    let mut drained = 0;
    while !sim.idle() && drained < DRAIN_CYCLES {
        stream.write(&format!("{:?}\n", sim.step(false)));
        drained += 1;
    }
    let report = sim.finish();
    let mut summary = Fnv::new();
    summary.write(&format!("{report:?}"));
    (stream.0, summary.0, report.cycles)
}

fn check(name: &str, link: LinkConfig, link_down: bool, expect: (u64, u64, u64)) {
    let got = run(link, link_down);
    assert_eq!(
        got, expect,
        "{name}: (stream, report, cycles) digest changed; got ({:#018x}, {:#018x}, {})",
        got.0, got.1, got.2
    );
}

fn scheme(s: Scheme) -> LinkConfig {
    LinkConfig::new(s, 16, 0.0)
}

#[test]
fn uncoded_clean() {
    check(
        "Uncoded clean",
        scheme(Scheme::Uncoded),
        false,
        (0x3677236ed65ff816, 0x9565366940feff1b, 329),
    );
}

#[test]
fn uncoded_link_down() {
    check(
        "Uncoded link_down",
        scheme(Scheme::Uncoded),
        true,
        (0x25f98d5fa2865a5b, 0xa49023c19c378df8, 445),
    );
}

#[test]
fn dap_clean() {
    check(
        "DAP clean",
        scheme(Scheme::Dap),
        false,
        (0xfeb8f158222d1515, 0x64dc86cc72613bae, 329),
    );
}

#[test]
fn dap_link_down() {
    check(
        "DAP link_down",
        scheme(Scheme::Dap),
        true,
        (0x7a8bcf724b200c7c, 0x02596c9ec9609a55, 445),
    );
}

#[test]
fn bih_arq_clean() {
    let link = scheme(Scheme::Bih).with_protocol(Protocol::DetectRetransmit {
        rtt_cycles: 2,
        max_retries: 3,
    });
    check(
        "BIH arq clean",
        link,
        false,
        (0xfeb8f158222d1515, 0x0d0f4d833ccd8688, 329),
    );
}

#[test]
fn bih_arq_link_down() {
    let link = scheme(Scheme::Bih).with_protocol(Protocol::DetectRetransmit {
        rtt_cycles: 2,
        max_retries: 3,
    });
    check(
        "BIH arq link_down",
        link,
        true,
        (0x7a8bcf724b200c7c, 0x6f060e8ca21dc371, 445),
    );
}

#[test]
fn parity_noisy_links() {
    // Detect-only links with no link-level retry: every detected word
    // is dropped at its router and recovered end to end.
    let link = scheme(Scheme::Parity)
        .with_protocol(Protocol::Fec)
        .with_fault(FaultSpec::Iid { eps: 2e-3 });
    check(
        "Parity noisy",
        link,
        false,
        (0xdf1c971a75181247, 0xcafceb1ccad30b46, 541),
    );
}
