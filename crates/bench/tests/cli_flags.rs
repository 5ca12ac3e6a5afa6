//! Flag handling of every entry point that parses its command line with
//! `RunOpts`, in one table: malformed or unaccepted flags exit 2 before
//! any workload runs, and every flag a bin documents parses.

use socbus_exec::RunOpts;

struct Entry {
    bin: &'static str,
    main: fn(&[String]) -> i32,
    flags: &'static [&'static str],
    /// A command line using every flag the bin accepts.
    accepted: &'static [&'static str],
    /// Flags the bin does not take; each must be refused.
    refused: &'static [&'static [&'static str]],
}

const ALL_OUTPUT_FLAGS: &[&str] = &[
    "--smoke",
    "--threads",
    "3",
    "--trace-out",
    "t.jsonl",
    "--health-out",
    "h.json",
    "out.json",
];

fn entries() -> Vec<Entry> {
    vec![
        Entry {
            bin: "soak",
            main: socbus_chaos::campaign::campaign_main,
            flags: socbus_chaos::campaign::FLAGS,
            accepted: ALL_OUTPUT_FLAGS,
            refused: &[&["--runs", "2"]],
        },
        Entry {
            bin: "chaos control",
            main: socbus_chaos::campaign::control_main,
            flags: socbus_chaos::campaign::FLAGS,
            accepted: ALL_OUTPUT_FLAGS,
            refused: &[&["--gate", "3"]],
        },
        Entry {
            bin: "chaos mesh",
            main: socbus_chaos::mesh::mesh_main,
            flags: socbus_chaos::campaign::FLAGS,
            accepted: ALL_OUTPUT_FLAGS,
            refused: &[&["--reps", "2"]],
        },
        Entry {
            bin: "mesh",
            main: socbus_bench::mesh::main_with_args,
            flags: socbus_bench::mesh::FLAGS,
            accepted: &[
                "--threads",
                "3",
                "--trace-out",
                "t.jsonl",
                "--health-out",
                "h.json",
                "out.json",
            ],
            refused: &[&["--smoke"]],
        },
        Entry {
            bin: "dvs",
            main: socbus_bench::dvs::main_with_args,
            flags: socbus_bench::dvs::FLAGS,
            accepted: &[
                "--threads",
                "3",
                "--trace-out",
                "t.jsonl",
                "--health-out",
                "h.json",
                "out.json",
            ],
            refused: &[&["--smoke"]],
        },
        Entry {
            bin: "reliability",
            main: socbus_bench::reliability::main_with_args,
            flags: socbus_bench::reliability::FLAGS,
            accepted: &["--threads", "3", "--trace-out", "t.jsonl", "out.json"],
            refused: &[&["--smoke"], &["--health-out", "h.json"]],
        },
        Entry {
            bin: "rare",
            main: socbus_bench::rare::main_with_args,
            flags: socbus_bench::rare::FLAGS,
            accepted: &[
                "--smoke",
                "--threads",
                "3",
                "--trace-out",
                "t.jsonl",
                "out.json",
            ],
            refused: &[&["--health-out", "h.json"]],
        },
        Entry {
            bin: "health",
            main: socbus_bench::health::main_with_args,
            flags: socbus_bench::health::FLAGS,
            accepted: &[
                "--smoke", "--runs", "2", "--reps", "3", "--gate", "4.5", "out.json",
            ],
            refused: &[
                &["--threads", "2"],
                &["--trace-out", "t.jsonl"],
                &["--health-out", "h.json"],
            ],
        },
        Entry {
            bin: "parallel",
            main: socbus_bench::parallel::main_with_args,
            flags: socbus_bench::parallel::FLAGS,
            accepted: &["--threads", "3", "out.json"],
            refused: &[
                &["--smoke"],
                &["--trace-out", "t.jsonl"],
                &["--health-out", "h.json"],
            ],
        },
    ]
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|&a| a.to_owned()).collect()
}

/// Every malformed command line exits 2 without running the workload.
/// A positional output path inside the temp dir comes first, so a case
/// that wrongly parsed would never write over a checked-in result.
#[test]
fn bad_flags_exit_2_before_any_work() {
    let out = std::env::temp_dir().join(format!("socbus-cli-flags-{}.json", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    let common: &[&[&str]] = &[
        &["--no-such-flag"],
        &["--threads", "0"],
        &["--threads", "x"],
        &["--threads"],
        &["--trace-out"],
        &["--health-out"],
    ];
    for entry in entries() {
        for bad in common.iter().chain(entry.refused) {
            let mut args = vec![out.to_owned()];
            args.extend(strings(bad));
            assert_eq!((entry.main)(&args), 2, "{} {bad:?}", entry.bin);
        }
        assert!(
            !std::path::Path::new(out).exists(),
            "{}: a refused command line ran the workload",
            entry.bin
        );
    }
}

/// Every flag each bin took before the shared parser still parses, with
/// its value.
#[test]
fn documented_flags_still_parse() {
    for entry in entries() {
        let opts = RunOpts::parse(entry.bin, entry.flags, &strings(entry.accepted))
            .unwrap_or_else(|| panic!("{} refused {:?}", entry.bin, entry.accepted));
        assert_eq!(opts.out.as_deref(), Some("out.json"), "{}", entry.bin);
        let has = |flag: &str| entry.accepted.contains(&flag);
        assert_eq!(opts.smoke, has("--smoke"), "{}", entry.bin);
        if has("--threads") {
            assert_eq!(opts.threads, 3, "{}", entry.bin);
        }
        assert_eq!(
            opts.trace_out.is_some(),
            has("--trace-out"),
            "{}",
            entry.bin
        );
        assert_eq!(
            opts.health_out.is_some(),
            has("--health-out"),
            "{}",
            entry.bin
        );
        let standard = ["--smoke", "--threads", "--trace-out", "--health-out"];
        for flag in entry.flags.iter().filter(|f| !standard.contains(f)) {
            assert!(opts.value(flag).is_some(), "{} {flag}", entry.bin);
        }
    }
}

/// An output path under a regular file is a usage error (exit 2), not a
/// panic — checked on the cheapest campaign.
#[test]
fn unwritable_output_path_exits_2() {
    let dir = std::env::temp_dir().join(format!("socbus-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("plain");
    std::fs::write(&file, "x").expect("write");
    let out = file.join("out.json");
    let args = strings(&["--smoke", "--threads", "1", out.to_str().expect("utf-8")]);
    assert_eq!(socbus_chaos::campaign::control_main(&args), 2);
    let _ = std::fs::remove_dir_all(dir);
}
