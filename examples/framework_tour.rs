//! A tour of the unified framework composer (paper Fig. 4): building
//! custom joint codes from CAC × LPC × ECC components, and seeing the
//! composition-legality rules reject the combinations the paper proves
//! unsound.
//!
//! Run with `cargo run --release --example framework_tour`.

use socbus::codes::framework::{CacChoice, EccChoice, Framework, LpcChoice, LxcChoice};
use socbus::codes::{analysis, BusCode};
use socbus::model::Word;

fn main() {
    let k = 8;

    // 1. A custom joint code the paper never tabulates: FPC-based CAC
    //    (denser than duplication) + extended Hamming + shielded parity.
    let mut custom = Framework::new(k)
        .cac(CacChoice::Fpc)
        .ecc(EccChoice::ExtendedHamming)
        .lxc2(LxcChoice::Shielding)
        .build()
        .expect("legal composition");
    println!(
        "custom code {}: {} wires for {} bits (rate {:.2}), corrects {}",
        custom.name(),
        custom.wires(),
        custom.data_bits(),
        custom.rate(),
        custom.correctable_errors()
    );
    let d = Word::from_bits(0xB7, k);
    let mut cw = custom.encode(d);
    cw.set_bit(5, !cw.bit(5));
    assert_eq!(custom.decode(cw), d);
    println!("  -> single wire error corrected through the composed stack\n");

    // 2. The generic DAPBI: every framework slot occupied.
    let full = Framework::new(k)
        .cac(CacChoice::Duplication)
        .lpc(LpcChoice::BusInvert(1))
        .lxc1(LxcChoice::Duplication)
        .ecc(EccChoice::Parity)
        .lxc2(LxcChoice::Duplication)
        .build()
        .expect("legal composition");
    let mut full_code = full.clone();
    let e = analysis::average_energy(&mut full_code, 60_000);
    println!(
        "all-slots code {}: {} wires (2k code, 2 invert, 2 parity), avg energy {:.2} + {:.2}L",
        full.name(),
        full.wires(),
        e.self_coeff,
        e.coupling_coeff
    );
    println!("  (compare the hand-optimized DAPBI: 2k+3 = 19 wires)\n");

    // 3. The rules in action: every rejection the paper's conditions imply.
    println!("compositions the framework rejects (paper's conditions 2/3/5):");
    let attempts = [
        (
            "bus-invert over FTC (inversion breaks the FT condition)",
            Framework::new(k)
                .cac(CacChoice::Ftc)
                .lpc(LpcChoice::BusInvert(1))
                .lxc1(LxcChoice::Shielding)
                .build()
                .err(),
        ),
        (
            "invert bits without LXC1 under a CAC guarantee",
            Framework::new(k)
                .cac(CacChoice::Duplication)
                .lpc(LpcChoice::BusInvert(1))
                .ecc(EccChoice::Parity)
                .lxc2(LxcChoice::Duplication)
                .build()
                .err(),
        ),
        (
            "parity bits without LXC2 under a CAC guarantee",
            Framework::new(k)
                .cac(CacChoice::Shielding)
                .ecc(EccChoice::Hamming)
                .build()
                .err(),
        ),
    ];
    for (what, err) in attempts {
        let err = err.expect("must be rejected");
        println!("  {what}\n    -> {err}");
    }
}
