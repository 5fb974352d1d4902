//! `duet-kernel-floor` — CI perf floor for the vectorized kernel engine.
//!
//! Runs the per-family kernel microbenchmarks (see
//! `experiments/kernels.rs`) with the seed and vectorized engines
//! alternating on successive trials in one process, and fails if the
//! speedup ever regresses below the floor: a geometric mean of 2x across
//! the suite, and no individual kernel below 1.25x. Alternating trials
//! plus medians is what makes a ratio gate (rather than an absolute
//! latency gate) stable enough for CI: both populations absorb the same
//! machine noise, and the floor sits well under the measured margins.
//!
//! The same method guards fork/join: one paper-scale and one serving-scale
//! convolution, kernel pool vs regions forced inline. The pool must never
//! cost more than 10 % — a mis-sized spin bound or fork gate shows here as a
//! slowdown on the small conv long before it shows end to end. Skipped at pool
//! width 1 (a one-CPU host), where there is no worker to fork to.
//!
//! And the roofline: the host's single-thread FMA peak is measured in this
//! process, every GEMM/conv micro is printed as GFLOP/s and as a share of it
//! (at pool width, so a share can pass 100 %), and `matmul 128x256x256` on
//! one thread must reach half of it. Both sides of that ratio come from
//! one process on one core, so host speed cancels; what moves it is the
//! kernel — the `mul_add` chain or `.cargo/config.toml`'s vector-width flag
//! going missing halves it.

use duet_bench::experiments::kernels::{
    fma_peak_gflops, fork_join_speedups, geomean, matmul_one_thread_gflops, micro_speedups,
};

const PAIRS: usize = 9;
const FLOOR_GEOMEAN: f64 = 2.0;
const FLOOR_EACH: f64 = 1.25;
const FORK_JOIN_PAIRS: usize = 25;
/// Pooled may take at most this multiple of the inline time.
const FORK_JOIN_MAX_SLOWDOWN: f64 = 1.1;
const PEAK_TRIALS: usize = 40;
/// Least share of the measured FMA peak for the one-thread GEMM.
const FLOOR_PEAK_SHARE: f64 = 0.5;

fn main() {
    let benches = micro_speedups(PAIRS);
    let peak = fma_peak_gflops(PEAK_TRIALS);
    let mut failed = false;
    for b in &benches {
        let rate = b.gflops().map_or(String::new(), |g| {
            format!(", {g:.1} GFLOP/s = {:.0} % of peak", 100.0 * g / peak)
        });
        println!(
            "{:>14} {:<26} seed {:>9.1} us, vectorized {:>9.1} us, {:.2}x{rate}",
            b.name,
            b.what,
            b.reference_us,
            b.vectorized_us,
            b.speedup()
        );
        if b.speedup() < FLOOR_EACH {
            eprintln!(
                "FAIL: {} ({}) at {:.2}x is below the {FLOOR_EACH}x per-kernel floor",
                b.name,
                b.what,
                b.speedup()
            );
            failed = true;
        }
    }
    let g = geomean(&benches);
    println!(
        "geomean: {g:.2}x over {} kernels (floor {FLOOR_GEOMEAN}x)",
        benches.len()
    );
    if g < FLOOR_GEOMEAN {
        eprintln!("FAIL: geomean {g:.2}x is below the {FLOOR_GEOMEAN}x floor");
        failed = true;
    }
    let gemm = matmul_one_thread_gflops(PEAK_TRIALS);
    println!(
        "roofline: FMA peak {peak:.1} GFLOP/s on one thread; matmul 128x256x256 on one thread \
         {gemm:.1} GFLOP/s = {:.0} % of it (floor {:.0} %)",
        100.0 * gemm / peak,
        100.0 * FLOOR_PEAK_SHARE
    );
    if gemm < FLOOR_PEAK_SHARE * peak {
        eprintln!(
            "FAIL: the one-thread GEMM runs at {:.0} % of the measured FMA peak, below {:.0} %",
            100.0 * gemm / peak,
            100.0 * FLOOR_PEAK_SHARE
        );
        failed = true;
    }
    // Width is `available_parallelism()` unless overridden: 1 on a one-CPU host.
    let width = rayon::current_num_threads();
    if width < 2 {
        println!("fork/join guard skipped: kernel pool width {width}, no worker to fork to");
    } else {
        for b in fork_join_speedups(FORK_JOIN_PAIRS) {
            println!(
                "{:>14} {:<26} inline {:>9.1} us, pooled {:>9.1} us, {:.2}x at width {width}",
                "fork/join",
                b.what,
                b.inline_us,
                b.pooled_us,
                b.speedup()
            );
            if b.pooled_us > FORK_JOIN_MAX_SLOWDOWN * b.inline_us {
                eprintln!(
                    "FAIL: {} is {:.2}x slower on the pool than inline (limit {FORK_JOIN_MAX_SLOWDOWN}x)",
                    b.what,
                    b.pooled_us / b.inline_us
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("kernel floor gate passed.");
}
