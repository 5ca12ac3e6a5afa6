//! Thin wrapper over [`socbus_bench::parallel`] — the parallel-engine
//! wall-clock benchmark.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(socbus_bench::parallel::main_with_args(&args));
}
