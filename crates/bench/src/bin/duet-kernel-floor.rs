//! `duet-kernel-floor` — CI perf floor for the vectorized kernel engine.
//!
//! Runs the per-family kernel microbenchmarks (see
//! `experiments/kernels.rs`), each alternating its oracle
//! (`kernels::reference::X`, the contract's plain single-threaded loop) and
//! the engine's `kernels::X` on successive trials in one process, and fails
//! if the speedup ever regresses below the floor: a geometric mean of 2x
//! across the suite, and no individual kernel below 1.25x. Alternating trials
//! plus medians is what makes a ratio gate (rather than an absolute
//! latency gate) stable enough for CI: both populations absorb the same
//! machine noise, and the floor sits well under the measured margins. The
//! GELU row has a floor of its own, between the vectorized polynomial and
//! the same polynomial scalarized, so an activation that goes scalar or back
//! to libm fails; so has the depthwise row, so a fall back to scalar border
//! code fails.
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
//! going missing halves it. Two whole convolutions on one thread — the
//! ResNet-18 3×3 conv at 55×55 and the 7×7/2 stem, padding, stores and bias
//! included — are held the same way, each to its own floor: a layout that
//! packs again, or a tile that goes scalar, shows there. Each is timed in
//! turns with a fresh estimate of the peak, so a host that slows or speeds
//! up between the peak and the conv does not move the share.

use duet_bench::experiments::kernels::{
    conv_one_thread_gflops, fma_peak_gflops, fork_join_speedups, geomean, matmul_one_thread_gflops,
    micro_speedups,
};

const PAIRS: usize = 9;
const FLOOR_GEOMEAN: f64 = 2.0;
const FLOOR_EACH: f64 = 1.25;
/// Least speedup of the `gelu 128x3072` row over its f64 oracle. On a
/// 2-vCPU AMD EPYC host the vectorized polynomial measured 11–37× (the low
/// end when each call faults its 1.5 MB result in), the same polynomial
/// scalarized 3.2–3.5× and the libm loop it replaced 1.05–1.11×.
const FLOOR_GELU: f64 = 6.0;
/// Least speedup of the `depthwise 128ch 28x28 k3` row over its oracle. On
/// a 2-vCPU Intel Xeon host the kernel on padded phase planes measured
/// 10.3–15.7× inline and 11.2–20.4× since the call forks, and the
/// scalar-border kernel it replaced 2.1–2.4× against the same oracle.
const FLOOR_DEPTHWISE: f64 = 5.0;
const FORK_JOIN_PAIRS: usize = 25;
/// Pooled may take at most this multiple of the inline time.
const FORK_JOIN_MAX_SLOWDOWN: f64 = 1.1;
const PEAK_TRIALS: usize = 40;
/// Least share of the measured FMA peak for the one-thread GEMM.
const FLOOR_PEAK_SHARE: f64 = 0.5;
/// Least share of the measured FMA peak for each whole one-thread
/// convolution of [`conv_one_thread_gflops`], in its order: the 3×3 conv at
/// 55×55, then the 7×7/2 stem. Measured at 79–138 % and 78–125 % (the host
/// moves ±30 % between minutes); each floor is the lowest reading less 25
/// points. The stem packing its strips again (47–61 %) trips the second.
const FLOOR_CONV_SHARES: [f64; 2] = [0.55, 0.55];

fn main() {
    let benches = micro_speedups(PAIRS);
    let peak = fma_peak_gflops(PEAK_TRIALS);
    let mut failed = false;
    for b in &benches {
        let rate = b.gflops().map_or(String::new(), |g| {
            format!(", {g:.1} GFLOP/s = {:.0} % of peak", 100.0 * g / peak)
        });
        println!(
            "{:>14} {:<26} reference {:>9.1} us, vectorized {:>9.1} us, {:.2}x{rate}",
            b.name,
            b.what,
            b.reference_us,
            b.vectorized_us,
            b.speedup()
        );
        let floor = match b.what.split(' ').next() {
            Some("gelu") => FLOOR_GELU,
            Some("depthwise") => FLOOR_DEPTHWISE,
            _ => FLOOR_EACH,
        };
        if b.speedup() < floor {
            eprintln!(
                "FAIL: {} ({}) at {:.2}x is below its {floor}x floor",
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
    for ((what, g, peak), floor) in conv_one_thread_gflops(PEAK_TRIALS)
        .into_iter()
        .zip(FLOOR_CONV_SHARES)
    {
        println!(
            "roofline: {what} on one thread {g:.1} GFLOP/s = {:.0} % of the FMA peak {peak:.1} \
             GFLOP/s measured beside it (floor {:.0} %)",
            100.0 * g / peak,
            100.0 * floor
        );
        if g < floor * peak {
            eprintln!(
                "FAIL: the one-thread {what} runs at {:.0} % of the FMA peak measured beside it, below {:.0} %",
                100.0 * g / peak,
                100.0 * floor
            );
            failed = true;
        }
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
