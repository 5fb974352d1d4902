//! `ext-kernel-speed`: the vectorized kernel engine against its oracle,
//! measured in-process.
//!
//! One microbenchmark per zoo family, shaped like the family's dominant
//! kernel (linear at batch 1 and 8 and the paper-scale LSTM for wide&deep,
//! the LSTM sequence for Siamese, attention GEMM and the feed-forward GELU
//! for MT-DNN, 3x3/1x1 convs for the CNNs, depthwise for MobileNet),
//! alternates `kernels::reference::X` and `kernels::X` on successive
//! trials — the same discipline as the telemetry-overhead gate:
//! scheduler noise, thermal drift and cache state hit both populations
//! identically, and per-trial medians make the ratio stable on a
//! single-core box. The oracle is the contract's plain single-threaded
//! loop, so a speedup is the engine's tiling, vectorization and pool
//! together. The `duet-kernel-floor` CI gate runs the same suite with fewer
//! trials and enforces the floor, next to the one-thread roofline.

use std::hint::black_box;
use std::time::Instant;

use duet_tensor::kernels::{self, reference};
use duet_tensor::Tensor;
use serde_json::json;

use crate::output::{f3, Table};

/// One alternating-trial measurement: oracle vs engine medians.
pub struct EngineBench {
    /// Zoo family.
    pub name: &'static str,
    /// What was measured.
    pub what: String,
    pub reference_us: f64,
    pub vectorized_us: f64,
    /// Floating-point operations of one call, for the kernels on the GEMM
    /// register tile (`matmul`, `conv2d`, `linear`); 0 for the rest.
    pub flops: f64,
}

impl EngineBench {
    pub fn speedup(&self) -> f64 {
        self.reference_us / self.vectorized_us
    }

    /// Vectorized-engine rate at pool width, for a kernel with a FLOP count.
    pub fn gflops(&self) -> Option<f64> {
        (self.flops > 0.0).then(|| self.flops / (self.vectorized_us * 1e3))
    }
}

/// The host's single-thread FMA peak in GFLOP/s, measured here and now:
/// twelve independent `mul_add` chains over `[f32; 16]` lanes, best of
/// `trials` short runs. The loop has the GEMM tile's shape — per step a
/// scalar per chain times one vector — because that is the shape LLVM keeps
/// in twelve registers, but its operands are 28 KB that never leave L1 and
/// nothing is packed, stored or tiled around it. The operands go through
/// `black_box`, so nothing folds or hoists; multipliers of a few percent
/// keep every chain small and finite.
pub fn fma_peak_gflops(trials: usize) -> f64 {
    let (flops, mut sweep) = fma_peak_loop();
    flops / (best_us(trials, &mut sweep) * 1e3)
}

/// The [`fma_peak_gflops`] loop, ready to time, and its FLOP count.
fn fma_peak_loop() -> (f64, impl FnMut()) {
    const CHAINS: usize = 12;
    const LANES: usize = 16;
    const STEPS: usize = 256;
    const SWEEPS: usize = 256;
    let scalars = black_box(vec![0.03f32; CHAINS * STEPS]);
    let vectors = black_box(vec![[0.5f32; LANES]; STEPS]);
    let sweep = move || {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| &scalars[r * STEPS..(r + 1) * STEPS]);
        for _ in 0..SWEEPS {
            let mut acc = [[0.0f32; LANES]; CHAINS];
            for t in 0..STEPS {
                for r in 0..CHAINS {
                    let sv = rows[r][t];
                    for l in 0..LANES {
                        acc[r][l] = sv.mul_add(vectors[t][l], acc[r][l]);
                    }
                }
            }
            black_box(acc);
        }
    };
    ((2 * CHAINS * LANES * STEPS * SWEEPS) as f64, sweep)
}

/// `matmul 128x256x256` with its region forced inline — the register tile
/// on one thread — in GFLOP/s, best of `trials`. Divided by
/// [`fma_peak_gflops`] from the same process it is a share of the machine
/// that host speed cancels out of.
pub fn matmul_one_thread_gflops(trials: usize) -> f64 {
    let (m, k, n) = (128, 256, 256);
    let a = Tensor::randn(vec![m, k], 1.0, 8);
    let b = Tensor::randn(vec![k, n], 0.05, 9);
    let mut out = vec![0.0f32; m * n];
    let us = best_us(trials, &mut || {
        rayon::inline_scope(|| kernels::matmul_into(a.data(), b.data(), &mut out, m, k, n))
    });
    2.0 * (m * k * n) as f64 / (us * 1e3)
}

/// Whole convolutions with their regions forced inline — the strip packing
/// or padded image, the register tile, the stores and the bias, on one
/// thread — each with its name, its GFLOP/s and the FMA peak
/// ([`fma_peak_gflops`]) in GFLOP/s measured beside it: the ResNet-18
/// layer-1 3×3 convolution at 55×55 and the 7×7/2 stem. A conv trial and a
/// peak trial alternate, and each rate is the best of its `trials`, so both
/// sides of the share come from the same minutes of a host whose speed
/// moves ±30 % between them.
pub fn conv_one_thread_gflops(trials: usize) -> [(&'static str, f64, f64); 2] {
    let cases = [
        (
            "conv2d 64->64 55x55 k3",
            [1, 64, 55, 55],
            [64, 64, 3, 3],
            1,
            1,
        ),
        (
            "stem conv2d 3->64 224x224 k7 s2",
            [1, 3, 224, 224],
            [64, 3, 7, 7],
            2,
            3,
        ),
    ];
    let (peak_flops, mut peak) = fma_peak_loop();
    cases.map(|(what, xs, ws, stride, padding)| {
        let x = Tensor::randn(xs.to_vec(), 1.0, 12);
        let w = Tensor::randn(ws.to_vec(), 0.05, 13);
        let b = Tensor::randn(vec![ws[0]], 0.05, 14);
        let dims = kernels::Conv2dDims::new(&xs, &ws, stride, padding).expect("shapes agree");
        let (oh, ow) = dims.out_hw();
        let mut out = vec![0.0f32; ws[0] * oh * ow];
        let (mut conv_us, mut peak_us) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..trials {
            conv_us = conv_us.min(time(&mut || {
                rayon::inline_scope(|| {
                    kernels::conv2d_into(&x, &w, Some(&b), stride, padding, &mut out).unwrap()
                })
            }));
            peak_us = peak_us.min(time(&mut peak));
        }
        let macs = ws.iter().product::<usize>() * oh * ow;
        (
            what,
            2.0 * macs as f64 / (conv_us * 1e3),
            peak_flops / (peak_us * 1e3),
        )
    })
}

/// Fastest of `trials` runs of `f`, in µs: the estimate of an undisturbed
/// run on a host whose disturbances only ever add time.
fn best_us(trials: usize, f: &mut dyn FnMut()) -> f64 {
    (0..trials).map(|_| time(f)).fold(f64::INFINITY, f64::min)
}

/// Geometric mean of the speedups.
pub fn geomean(benches: &[EngineBench]) -> f64 {
    let log_sum: f64 = benches.iter().map(|b| b.speedup().ln()).sum();
    (log_sum / benches.len() as f64).exp()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn time(f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Run `f(true)` and `f(false)` `pairs` times each, alternating which side
/// goes first each pair, and return the (`true` side, `false` side) medians
/// in µs, after one unmeasured warm-up per side.
fn alternate_sides(pairs: usize, f: &mut dyn FnMut(bool)) -> (f64, f64) {
    f(false);
    f(true);
    let mut on = Vec::with_capacity(pairs);
    let mut off = Vec::with_capacity(pairs);
    for i in 0..pairs {
        for &side in &[i % 2 == 0, i % 2 != 0] {
            let us = time(&mut || f(side));
            if side { &mut on } else { &mut off }.push(us);
        }
    }
    (median(on), median(off))
}

/// One fork/join measurement: the same kernel with its parallel regions
/// forced inline on the caller vs free to fork onto the pool.
pub struct PoolBench {
    pub what: &'static str,
    pub inline_us: f64,
    pub pooled_us: f64,
}

impl PoolBench {
    pub fn speedup(&self) -> f64 {
        self.inline_us / self.pooled_us
    }
}

/// Fork/join guard shapes: the ResNet-18 layer1 convolution at paper scale
/// (most of `infer_heavy`) and at serving scale (most of `serve_open`, and
/// small enough that a mispriced fork shows). A trial is four back-to-back
/// calls, as in a tape: the first may find the worker parked, the rest
/// find it spinning.
pub fn fork_join_speedups(pairs: usize) -> Vec<PoolBench> {
    [
        ("conv2d 64->64 56x56 k3 x4", 56),
        ("conv2d 64->64 12x12 k3 x4", 12),
    ]
    .into_iter()
    .map(|(what, hw)| {
        let x = Tensor::randn(vec![1, 64, hw, hw], 1.0, 30);
        let w = Tensor::randn(vec![64, 64, 3, 3], 0.05, 31);
        let mut out = vec![0.0f32; 64 * hw * hw];
        let mut convs = || {
            for _ in 0..4 {
                kernels::conv2d_into(&x, &w, None, 1, 1, &mut out).unwrap();
            }
        };
        let (inline_us, pooled_us) = alternate_sides(pairs, &mut |inline| {
            if inline {
                rayon::inline_scope(&mut convs)
            } else {
                convs()
            }
        });
        PoolBench {
            what,
            inline_us,
            pooled_us,
        }
    })
    .collect()
}

/// The per-family microbenchmarks. `pairs` trials per side each.
pub fn micro_speedups(pairs: usize) -> Vec<EngineBench> {
    let mut out = Vec::new();
    let mut push = |name: &'static str,
                    what: &str,
                    flops: usize,
                    oracle: &mut dyn FnMut(),
                    engine: &mut dyn FnMut()| {
        let (r, v) = alternate_sides(pairs, &mut |on_oracle| {
            if on_oracle {
                oracle()
            } else {
                engine()
            }
        });
        out.push(EngineBench {
            name,
            what: what.to_string(),
            reference_us: r,
            vectorized_us: v,
            flops: flops as f64,
        });
    };

    // wide_and_deep: the fully-connected tower at batch 1 and at the serving
    // max batch.
    for m in [1, 8] {
        let x = Tensor::randn(vec![m, 1024], 1.0, 1);
        let w = Tensor::randn(vec![1024, 1024], 0.05, 2);
        let b = Tensor::randn(vec![1024], 0.05, 3);
        push(
            "wide_and_deep",
            &format!("linear {m}x1024x1024"),
            2 * m * 1024 * 1024,
            &mut || drop(reference::linear(&x, &w, Some(&b))),
            &mut || drop(kernels::linear(&x, &w, Some(&b)).unwrap()),
        );
    }
    // siamese: the recurrent tower, sequential steps over a shared buffer.
    {
        let (input, hidden, seq) = (128, 128, 16);
        let x = Tensor::randn(vec![seq, 1, input], 1.0, 4);
        let w_ih = Tensor::randn(vec![4 * hidden, input], 0.05, 5);
        let w_hh = Tensor::randn(vec![4 * hidden, hidden], 0.05, 6);
        let b = Tensor::randn(vec![4 * hidden], 0.05, 7);
        push(
            "siamese",
            "lstm seq16 128->128",
            0,
            &mut || drop(reference::lstm(&x, &w_ih, &w_hh, &b)),
            &mut || drop(kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap()),
        );
    }
    // wide_and_deep: the paper-scale recurrent tower (§III-B), the lane that
    // shares the cores with the CNN on `infer_heavy`.
    {
        let (input, hidden, seq) = (128, 256, 100);
        let x = Tensor::randn(vec![seq, 1, input], 1.0, 24);
        let w_ih = Tensor::randn(vec![4 * hidden, input], 0.05, 25);
        let w_hh = Tensor::randn(vec![4 * hidden, hidden], 0.05, 26);
        let b = Tensor::randn(vec![4 * hidden], 0.05, 27);
        push(
            "wide_and_deep",
            "lstm seq100 128->256",
            0,
            &mut || drop(reference::lstm(&x, &w_ih, &w_hh, &b)),
            &mut || drop(kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap()),
        );
    }
    // mtdnn: transformer attention/projection GEMM.
    {
        let a = Tensor::randn(vec![128, 256], 1.0, 8);
        let b = Tensor::randn(vec![256, 256], 0.05, 9);
        let flops = 2 * 128 * 256 * 256;
        push(
            "mtdnn",
            "matmul 128x256x256",
            flops,
            &mut || drop(reference::matmul(&a, &b)),
            &mut || drop(kernels::matmul(&a, &b).unwrap()),
        );
    }
    // mtdnn: the GELU after each feed-forward up-projection, one
    // allocating call as `Graph::eval` makes it.
    {
        let x = Tensor::randn(vec![128, 3072], 1.0, 28);
        push(
            "mtdnn",
            "gelu 128x3072",
            0,
            &mut || drop(reference::gelu(&x)),
            &mut || drop(kernels::gelu(&x)),
        );
    }
    // resnet18: the canonical 3x3 residual-stage convolution.
    {
        let x = Tensor::randn(vec![1, 64, 28, 28], 1.0, 10);
        let w = Tensor::randn(vec![64, 64, 3, 3], 0.05, 11);
        let b = Tensor::randn(vec![64], 0.05, 12);
        let flops = 2 * 64 * 64 * 9 * 28 * 28;
        push(
            "resnet18",
            "conv2d 64->64 28x28 k3",
            flops,
            &mut || drop(reference::conv2d(&x, &w, Some(&b), 1, 1)),
            &mut || drop(kernels::conv2d(&x, &w, Some(&b), 1, 1).unwrap()),
        );
    }
    // resnet50: the bottleneck's 1x1 projection.
    {
        let x = Tensor::randn(vec![1, 256, 14, 14], 1.0, 13);
        let w = Tensor::randn(vec![64, 256, 1, 1], 0.05, 14);
        let b = Tensor::randn(vec![64], 0.05, 15);
        let flops = 2 * 64 * 256 * 14 * 14;
        push(
            "resnet50",
            "conv2d 256->64 14x14 k1",
            flops,
            &mut || drop(reference::conv2d(&x, &w, Some(&b), 1, 0)),
            &mut || drop(kernels::conv2d(&x, &w, Some(&b), 1, 0).unwrap()),
        );
    }
    // vgg16: the GEMM a VGG stage lowers to.
    {
        let a = Tensor::randn(vec![256, 256], 1.0, 16);
        let b = Tensor::randn(vec![256, 256], 0.05, 17);
        let flops = 2 * 256 * 256 * 256;
        push(
            "vgg16",
            "matmul 256x256x256",
            flops,
            &mut || drop(reference::matmul(&a, &b)),
            &mut || drop(kernels::matmul(&a, &b).unwrap()),
        );
    }
    // mobilenet: the depthwise stage.
    {
        let x = Tensor::randn(vec![1, 128, 28, 28], 1.0, 18);
        let w = Tensor::randn(vec![128, 1, 3, 3], 0.05, 19);
        let b = Tensor::randn(vec![128], 0.05, 20);
        push(
            "mobilenet",
            "depthwise 128ch 28x28 k3",
            0,
            &mut || drop(reference::depthwise_conv2d(&x, &w, Some(&b), 1, 1)),
            &mut || drop(kernels::depthwise_conv2d(&x, &w, Some(&b), 1, 1).unwrap()),
        );
    }
    // squeezenet: a fire module's 3x3 expand convolution.
    {
        let x = Tensor::randn(vec![1, 16, 28, 28], 1.0, 21);
        let w = Tensor::randn(vec![64, 16, 3, 3], 0.05, 22);
        let b = Tensor::randn(vec![64], 0.05, 23);
        let flops = 2 * 64 * 16 * 9 * 28 * 28;
        push(
            "squeezenet",
            "conv2d 16->64 28x28 k3",
            flops,
            &mut || drop(reference::conv2d(&x, &w, Some(&b), 1, 1)),
            &mut || drop(kernels::conv2d(&x, &w, Some(&b), 1, 1).unwrap()),
        );
    }
    out
}

/// The `ext-kernel-speed` experiment: the micro suite and the roofline, table + JSON.
pub fn kernel_speed() -> serde_json::Value {
    println!("== Ext: vectorized kernel engine vs its oracle ==\n");

    let micro = micro_speedups(15);
    let mut t = Table::new(&[
        "family",
        "kernel",
        "reference us",
        "vectorized us",
        "speedup",
        "GFLOP/s",
    ]);
    for b in &micro {
        t.row(vec![
            b.name.to_string(),
            b.what.clone(),
            f3(b.reference_us),
            f3(b.vectorized_us),
            format!("{:.2}x", b.speedup()),
            b.gflops().map_or(String::new(), |g| format!("{g:.1}")),
        ]);
    }
    println!("{t}");
    println!(
        "micro geomean: {:.2}x over {} kernels (GFLOP/s at pool width {})",
        geomean(&micro),
        micro.len(),
        rayon::current_num_threads()
    );
    let (peak, gemm) = (fma_peak_gflops(40), matmul_one_thread_gflops(40));
    println!(
        "roofline, one thread: FMA peak {peak:.1} GFLOP/s, matmul 128x256x256 {gemm:.1} GFLOP/s \
         = {:.0} % of it\n",
        100.0 * gemm / peak
    );

    let section = micro
        .iter()
        .map(|b| {
            json!({
                "name": b.name,
                "what": b.what,
                "reference_us": b.reference_us,
                "vectorized_us": b.vectorized_us,
                "speedup": b.speedup(),
                "gflops": b.gflops(),
            })
        })
        .collect::<Vec<_>>();
    json!({
        "micro": section,
        "micro_geomean": geomean(&micro),
        "kernel_threads": rayon::current_num_threads(),
        "fma_peak_gflops_one_thread": peak,
        "matmul_128x256x256_gflops_one_thread": gemm,
    })
}
