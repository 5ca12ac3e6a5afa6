//! Golden pins for the paper's joint codes.
//!
//! Each of the seven joint schemes (DAP, DAPX, DAPBI, BIH, HammingX,
//! FTC+HC, BSC) is hashed at every width in [`WIDTHS`]: its metadata
//! (name, widths, statefulness, correction and detection counts, delay
//! class), the encoder's output over a fixed data stream with a reset in
//! the middle, and `decode_checked` (data and status) over received words
//! with known error patterns — every pattern of weight 0, 1 and 2 on the
//! first words of the stream at `k <= 5`, one seeded pattern of weight
//! 0 to 3 per word at larger `k`. The constants below were recorded from
//! the scalar codecs and pin their observable behaviour bit for bit: any
//! rewrite of a joint code must leave every hash unchanged.

use socbus_codes::{DecodeStatus, Scheme};
use socbus_model::Word;

/// Data widths every scheme is pinned at.
const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 8, 16, 32];

/// Words in the encoder stream (the encoder is reset after half of them).
const STREAM: usize = 4096;

/// Leading stream words whose every weight-≤2 error pattern is decoded
/// at `k <= 5`.
const EXHAUSTIVE_WORDS: usize = 128;

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: Word) {
        self.u64(w.width() as u64);
        for l in 0..Word::LIMB_COUNT {
            self.u64(w.limb(l));
        }
    }

    fn status(&mut self, s: DecodeStatus) {
        self.u64(match s {
            DecodeStatus::Unchecked => 0,
            DecodeStatus::Clean => 1,
            DecodeStatus::Corrected => 2,
            DecodeStatus::Detected => 3,
        });
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

/// SplitMix64: a self-contained seeded stream, so the pins do not depend
/// on any RNG crate's algorithm.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn word(&mut self, width: usize) -> Word {
        let limbs = std::array::from_fn(|_| self.next());
        Word::from_limbs(limbs, width)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn flip(w: Word, i: usize) -> Word {
    w.with_bit(i, !w.bit(i))
}

/// The three hashes of one (scheme, k) cell: metadata, encoder stream,
/// checked decodes.
fn golden(scheme: Scheme, k: usize) -> [u64; 3] {
    let code = scheme.build(k);
    let mut meta = Fnv::new();
    meta.str(&code.name());
    meta.u64(code.data_bits() as u64);
    meta.u64(code.wires() as u64);
    meta.u64(u64::from(code.is_stateful()));
    meta.u64(code.correctable_errors() as u64);
    meta.u64(code.detectable_errors() as u64);
    meta.u64(u64::from(code.guaranteed_delay_class().multiplier()));

    let mut rng = SplitMix(0x5eed_0000 ^ ((k as u64) << 8));
    let data: Vec<Word> = (0..STREAM).map(|_| rng.word(k)).collect();
    let mut enc = code.clone();
    let mut enc_hash = Fnv::new();
    let mut coded = Vec::with_capacity(STREAM);
    for (t, &d) in data.iter().enumerate() {
        if t == STREAM / 2 {
            enc.reset();
        }
        let cw = enc.encode(d);
        enc_hash.word(cw);
        coded.push(cw);
    }

    let mut dec = code.clone();
    let mut dec_hash = Fnv::new();
    let n = code.wires();
    for (t, &cw) in coded.iter().enumerate() {
        if t == STREAM / 2 {
            dec.reset();
        }
        if k <= 5 && t < EXHAUSTIVE_WORDS {
            // Every pattern of weight 0, 1, 2 against a snapshot of the
            // decoder state; the stream decoder then advances on the
            // clean word.
            let mut patterns = vec![cw];
            for i in 0..n {
                patterns.push(flip(cw, i));
                for j in i + 1..n {
                    patterns.push(flip(flip(cw, i), j));
                }
            }
            for bus in patterns {
                let (d, s) = dec.clone_box().decode_checked(bus);
                dec_hash.word(d);
                dec_hash.status(s);
            }
            let _ = dec.decode_checked(cw);
        } else {
            let mut bus = cw;
            for _ in 0..rng.below(4) {
                bus = flip(bus, rng.below(n));
            }
            let (d, s) = dec.decode_checked(bus);
            dec_hash.word(d);
            dec_hash.status(s);
        }
    }
    [meta.0, enc_hash.0, dec_hash.0]
}

const SCHEMES: [Scheme; 7] = [
    Scheme::Dap,
    Scheme::Dapx,
    Scheme::Dapbi,
    Scheme::Bih,
    Scheme::HammingX,
    Scheme::FtcHc,
    Scheme::Bsc,
];

/// `(scheme name, k, [meta, encode, decode])`, recorded from the scalar
/// codecs.
const PINS: &[(&str, usize, [u64; 3])] = &[
    (
        "DAP",
        1,
        [0x9131baf240cac3b3, 0xfdb069762a3ecb82, 0x296329c52af9a7a5],
    ),
    (
        "DAP",
        2,
        [0x71fb5a680c9759b6, 0x787f60a188b50576, 0xe27cc87ed7228165],
    ),
    (
        "DAP",
        3,
        [0x78338feb03537eb5, 0x1c9af0b0ea9c3f95, 0x05217655e11e1567],
    ),
    (
        "DAP",
        4,
        [0x265a6111a511703c, 0x81d49889ac30df9d, 0x2a2fa9ea14a5658e],
    ),
    (
        "DAP",
        5,
        [0xa9f8abb327fd7bbf, 0xd9c8b155e28fdd89, 0x874ebb4062ca5a7b],
    ),
    (
        "DAP",
        8,
        [0x6ba0388431f0d428, 0x887d328ef45e23eb, 0xbd8e63fa95108ddc],
    ),
    (
        "DAP",
        16,
        [0x5179dfe9d5ba8040, 0xc38d9221893296a2, 0xdcf2abe3fee0166c],
    ),
    (
        "DAP",
        32,
        [0x475bea498448f7d0, 0x1584e285fd6a8ec3, 0x58106562bf44f041],
    ),
    (
        "DAPX",
        1,
        [0x8849153ee5f7edcb, 0x40a0593a1da170ca, 0x9f94b011d79170c6],
    ),
    (
        "DAPX",
        2,
        [0x435dd52ca923d58a, 0xe90f5e25e29e78d6, 0x21a789e3c63ad4e5],
    ),
    (
        "DAPX",
        3,
        [0x23e12b27973f4c45, 0x18c3464316ea14d5, 0x832f681a245b7980],
    ),
    (
        "DAPX",
        4,
        [0x1198b9648479d880, 0x6f9da4041dc814e1, 0x127949628ec3706d],
    ),
    (
        "DAPX",
        5,
        [0x64626ad1955a0ac7, 0xdac7ea4b043b2c45, 0xc90c58833d69834a],
    ),
    (
        "DAPX",
        8,
        [0xcc52e1f1f79a7494, 0x7b8559f40f9a984f, 0x7f9ea8a148b4fde2],
    ),
    (
        "DAPX",
        16,
        [0xe6793a8c53d0c87c, 0x97d9b9f4dc573466, 0x896edd60c3ef8357],
    ),
    (
        "DAPX",
        32,
        [0x6428241e3216d02c, 0xa65450e2281faac9, 0x5d30da8bad7e1f2a],
    ),
    (
        "DAPBI",
        1,
        [0x276a2422bd475f99, 0xff756fbb7f3002b9, 0x18c8131c26522e04],
    ),
    (
        "DAPBI",
        2,
        [0x6b8f08949ad88318, 0x4d0061f51e1a23d9, 0x262be2f44058efa7],
    ),
    (
        "DAPBI",
        3,
        [0x96f1c7e6756b2c17, 0xd3d105ea316fef92, 0x447dc64f9a0db2c6],
    ),
    (
        "DAPBI",
        4,
        [0x60a6892e87b1e512, 0x9f472298e9cf9c19, 0x0f2824da520c1d61],
    ),
    (
        "DAPBI",
        5,
        [0x038379b56ca97c95, 0x0e9e7df08d9985ef, 0x7e15e1bd1bd4f35e],
    ),
    (
        "DAPBI",
        8,
        [0x47df986da07f2d06, 0xce8bb4de20c08c43, 0x8f504ed22d1d18d3],
    ),
    (
        "DAPBI",
        16,
        [0xbd53e98886c0652e, 0xa022a4e6d6cafa81, 0x9489e559f33af30e],
    ),
    (
        "DAPBI",
        32,
        [0x3fa4fff6a87a5d7e, 0x02f0fa2a1cec24f6, 0x913fbfca0bf203fd],
    ),
    (
        "BIH",
        1,
        [0x482667edcd39e024, 0xc654e924423b61f3, 0x8ba783b94bb919e7],
    ),
    (
        "BIH",
        2,
        [0x473f4d6071387a84, 0xe754ea0fe7c2b83b, 0xca267e0a5baba0e5],
    ),
    (
        "BIH",
        3,
        [0x9ce1ab8f8fe39c64, 0xe9971692bfb2ce01, 0xd8ddf3100e77f800],
    ),
    (
        "BIH",
        4,
        [0xfaaffeea3e405ced, 0x1c0ab23b4b2f1bd9, 0xd314847c7350302f],
    ),
    (
        "BIH",
        5,
        [0x8d8a6eae4290b40f, 0xf65c85df0e4b6316, 0xd61713346703aa18],
    ),
    (
        "BIH",
        8,
        [0x02334e6137a5f165, 0x27ff1afd06754822, 0x6fce8cf24847fd99],
    ),
    (
        "BIH",
        16,
        [0xd5963861a981d586, 0xbdb8a0c66f06052b, 0x2b7a378f4a055a45],
    ),
    (
        "BIH",
        32,
        [0xf9c7e4b63361c967, 0xa72037913e3339d4, 0x46dbb4f154fbf085],
    ),
    (
        "HammingX",
        1,
        [0xedd6bda9da25287d, 0x0c05bcf3d82f144e, 0xfb12e3c7d883fc67],
    ),
    (
        "HammingX",
        2,
        [0xa8eb7d979d51103c, 0x5b81c29d98f67330, 0x8ad33d97dbf34925],
    ),
    (
        "HammingX",
        3,
        [0x53491f687ea5ee5c, 0x0b6babd776288201, 0x7696210fc78397c2],
    ),
    (
        "HammingX",
        4,
        [0xb5d96c5ebebf0674, 0x5c4f1acc94167ea5, 0xf9dbb8c7183e3b21],
    ),
    (
        "HammingX",
        5,
        [0x9d6f1fc485b919d6, 0x12abe85c6f51e326, 0x3c28628773bf72c2],
    ),
    (
        "HammingX",
        8,
        [0x3e7b3d03b5a5983e, 0x612602f856362f8e, 0xa27d2caa6b56183a],
    ),
    (
        "HammingX",
        16,
        [0xdad7105fc9279d9f, 0xc5173caed915e96f, 0xbf3d976c00160de8],
    ),
    (
        "HammingX",
        32,
        [0x1ce6fa8300a752d1, 0xabdac1989cd32057, 0xc0a46c5557a9b6ee],
    ),
    (
        "FTC+HC",
        1,
        [0xddc0cda4e6359ad9, 0xb346382d713c962c, 0x26f1398a57787b46],
    ),
    (
        "FTC+HC",
        2,
        [0x1d5af2c1884ef3bb, 0x6acf27f650c8246c, 0xdc3bf2b4723d2765],
    ),
    (
        "FTC+HC",
        3,
        [0x89058a03238bde99, 0x55ab1b294e11520e, 0xc0d3860e0731c3c6],
    ),
    (
        "FTC+HC",
        4,
        [0x2c43dbc3b223321a, 0xb8c83357966513a2, 0x2e113ad24b6ad484],
    ),
    (
        "FTC+HC",
        5,
        [0x2306a5177314fec5, 0x8a2c5acb13fad248, 0xc3d6f52952df957f],
    ),
    (
        "FTC+HC",
        8,
        [0x16ffd0ddada86e2d, 0x13cf5a3e9504efc9, 0x71e10e619635d8da],
    ),
    (
        "FTC+HC",
        16,
        [0x668e63c37ea27ba4, 0xd98e891cc4e175ca, 0x7d833fb0dda9fe77],
    ),
    (
        "FTC+HC",
        32,
        [0xc64fc4b29e0377d1, 0xde87adab4c221580, 0xd280c36bd8f3483d],
    ),
    (
        "BSC",
        1,
        [0xc8a4ced47c6f3c15, 0xfdb069762a3ecb82, 0x296329c52af9a7a5],
    ),
    (
        "BSC",
        2,
        [0x3bd0176014096d90, 0x5a3fd903f3fe27a7, 0xc0a5adf78adf81c4],
    ),
    (
        "BSC",
        3,
        [0xe1a2f9dbb9e68113, 0x1b8bcb1dea9a6440, 0x44686e1ade8bd046],
    ),
    (
        "BSC",
        4,
        [0x71319d5da8b9011a, 0x3fa8e1afbdb9aebd, 0x4693fcbacbd68765],
    ),
    (
        "BSC",
        5,
        [0x999e6abac2662e19, 0xec0ed5190a48e63a, 0xc2439553de8b6b80],
    ),
    (
        "BSC",
        8,
        [0xfe44c9aad6d42b0e, 0xf2e5ed9b282b9566, 0xfcadba1dc13e9135],
    ),
    (
        "BSC",
        16,
        [0xe41e71107a9dd726, 0x13fd93cccbc6bc3a, 0x8bbed9b50826d105],
    ),
    (
        "BSC",
        32,
        [0x666f877e9c57cf76, 0x2344176682e8c220, 0x1de7d2c2ae28dc6e],
    ),
];

#[test]
fn joint_codes_match_their_golden_hashes() {
    let mut got = Vec::new();
    for scheme in SCHEMES {
        for k in WIDTHS {
            got.push((scheme.name(), k, golden(scheme, k)));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(name, k, h)| {
            format!(
                "    (\"{name}\", {k}, [0x{:016x}, 0x{:016x}, 0x{:016x}]),",
                h[0], h[1], h[2]
            )
        })
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "pin table out of date; current hashes:\n{}",
        rendered.join("\n")
    );
    let mut diverged = Vec::new();
    for ((name, k, h), (pin_name, pin_k, pin)) in got.iter().zip(PINS) {
        assert_eq!((name.as_str(), *k), (*pin_name, *pin_k), "pin order");
        for (part, (a, b)) in ["metadata", "encode", "decode_checked"]
            .iter()
            .zip(h.iter().zip(pin))
        {
            if a != b {
                diverged.push(format!("{name} k={k}: {part}"));
            }
        }
    }
    assert!(diverged.is_empty(), "diverged from the pins: {diverged:?}");
}
