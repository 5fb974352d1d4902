//! Kernel results at pool width >= 2.
//!
//! On a 2-vCPU host the default pool is two threads wide and most test
//! shapes sit below the fork gate, so the forked paths — 2-D GEMM chunks
//! that pack their own strips, image/plane/row splits — need shapes chosen
//! to pass the gate and a pool with background workers. Every kernel here is
//! compared bit for bit (`to_bits`) against a naive loop that shares no
//! code with the engine, and against the same kernel with its regions
//! forced inline (the width-1 result).
//!
//! Its own test binary: the pool is process-global and sized at first use,
//! so `rayon::configure` must win the race here.

use std::sync::{Mutex, Once};

use duet::prelude::*;
use duet_models::input_feeds;
use duet_tensor::kernels;
use duet_tensor::Tensor;

const POOL_WIDTH: usize = 3; // 1 participating caller + 2 background workers

fn configure() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        assert!(
            rayon::configure(POOL_WIDTH),
            "pool must not be initialized before this binary configures it"
        );
    });
    assert_eq!(rayon::current_num_threads(), POOL_WIDTH);
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Run `kernel` on the pool and with regions forced inline; both must equal
/// `want` bit for bit, and the pooled run must have forked.
fn check(what: &str, want: &[f32], kernel: impl Fn() -> Tensor) {
    // The counters are process-wide: one pooled run at a time, so the fork
    // seen is this kernel's.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = rayon::pool_stats().regions_forked;
    let pooled = kernel();
    let forked = rayon::pool_stats().regions_forked > before;
    drop(guard);
    assert!(
        forked,
        "{what}: shape is below the fork gate, the forked path was not run"
    );
    assert_bits_eq(pooled.data(), want, &format!("{what} (pooled)"));
    let inline = rayon::inline_scope(&kernel);
    assert_bits_eq(inline.data(), want, &format!("{what} (inline)"));
}

/// Direct convolution: one fused k-ascending chain per output, taps in
/// (channel, row, column) order, out-of-image taps skipped.
fn naive_conv(x: &Tensor, w: &Tensor, stride: usize, padding: usize) -> Vec<f32> {
    let (n, c_in, h, wd) = dims4(x);
    let (c_out, _, kh, kw) = dims4(w);
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (wd + 2 * padding - kw) / stride + 1;
    let (xd, wgt) = (x.data(), w.data());
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    for img in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * stride + ky).wrapping_sub(padding);
                            if iy >= h {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx).wrapping_sub(padding);
                                if ix < wd {
                                    acc = wgt[((co * c_in + ci) * kh + ky) * kw + kx]
                                        .mul_add(xd[((img * c_in + ci) * h + iy) * wd + ix], acc);
                                }
                            }
                        }
                    }
                    out[((img * c_out + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.shape().dims();
    (d[0], d[1], d[2], d[3])
}

#[test]
fn conv2d_matches_the_naive_loop_bit_for_bit() {
    configure();
    // (what, input, weight, stride, padding). Output rows of 56, 7, 28, 56,
    // 14, 14 and 28 pixels: no strip of 32 is a whole number of rows.
    let cases = [
        ("3x3 s1, ow 56", [1, 64, 56, 56], [16, 64, 3, 3], 1, 1),
        (
            "3x3 s2, opix 49: rows split",
            [1, 64, 14, 14],
            [128, 64, 3, 3],
            2,
            1,
        ),
        ("1x1, two images", [2, 64, 28, 28], [48, 64, 1, 1], 1, 0),
        ("7x7 s2 p3 stem", [1, 3, 112, 112], [64, 3, 7, 7], 2, 3),
        ("3x3 s1 p0, ow 14", [1, 64, 16, 16], [64, 64, 3, 3], 1, 0),
        ("1x1 s2, ow 14", [1, 128, 28, 28], [256, 128, 1, 1], 2, 0),
        ("3x3 s1, ow 28", [1, 32, 28, 28], [32, 32, 3, 3], 1, 1),
    ];
    for (i, (what, xs, ws, stride, padding)) in cases.into_iter().enumerate() {
        let x = Tensor::randn(xs.to_vec(), 1.0, 40 + i as u64);
        let w = Tensor::randn(ws.to_vec(), 0.1, 50 + i as u64);
        let want = naive_conv(&x, &w, stride, padding);
        check(&format!("conv2d {what}"), &want, || {
            kernels::conv2d(&x, &w, None, stride, padding).unwrap()
        });
    }
}

#[test]
fn matmul_matches_the_naive_loop_bit_for_bit() {
    configure();
    // Five one-strip column panels (the last a 2-column tail, on the narrow
    // tile) x 3 row blocks (24, 24 and 22 rows: a 4-row tile tail).
    let (m, k, n) = (70, 300, 130);
    let a = Tensor::randn(vec![m, k], 1.0, 60);
    let b = Tensor::randn(vec![k, n], 1.0, 61);
    let mut want = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc = a.data()[i * k + t].mul_add(b.data()[t * n + j], acc);
            }
            want[i * n + j] = acc;
        }
    }
    check("matmul 70x300x130", &want, || {
        kernels::matmul(&a, &b).unwrap()
    });

    // Batched: the batch split outside, the GEMM split inside.
    let a3 = Tensor::randn(vec![3, m, k], 1.0, 62);
    let b3 = Tensor::randn(vec![3, k, n], 1.0, 63);
    let mut want3 = Vec::new();
    for i in 0..3 {
        let ai = Tensor::from_vec(vec![m, k], a3.data()[i * m * k..(i + 1) * m * k].to_vec());
        let bi = Tensor::from_vec(vec![k, n], b3.data()[i * k * n..(i + 1) * k * n].to_vec());
        let ci = rayon::inline_scope(|| kernels::matmul(&ai.unwrap(), &bi.unwrap()).unwrap());
        want3.extend_from_slice(ci.data());
    }
    check("batched_matmul 3x70x300x130", &want3, || {
        kernels::batched_matmul(&a3, &b3).unwrap()
    });
}

#[test]
fn depthwise_and_pooling_match_naive_loops_bit_for_bit() {
    configure();
    let (c, h, w) = (32, 64, 64);
    let x = Tensor::randn(vec![1, c, h, w], 1.0, 70);
    let wk = Tensor::randn(vec![c, 1, 3, 3], 0.5, 71);
    let bias = Tensor::randn(vec![c], 0.5, 72);
    // Depthwise 3x3 s1 p1: bias first, then in-image taps in (ky, kx) order.
    let mut want = vec![0.0f32; c * h * w];
    for ci in 0..c {
        for oy in 0..h {
            for ox in 0..w {
                let mut acc = bias.data()[ci];
                for ky in 0..3 {
                    for kx in 0..3 {
                        let (iy, ix) = ((oy + ky).wrapping_sub(1), (ox + kx).wrapping_sub(1));
                        if iy < h && ix < w {
                            acc +=
                                x.data()[(ci * h + iy) * w + ix] * wk.data()[ci * 9 + ky * 3 + kx];
                        }
                    }
                }
                want[(ci * h + oy) * w + ox] = acc;
            }
        }
    }
    check("depthwise 32ch 64x64 k3", &want, || {
        kernels::depthwise_conv2d(&x, &wk, Some(&bias), 1, 1).unwrap()
    });

    // Pooling windows, taps in (ky, kx) order: the stem's overlapping
    // 3x3 stride 2 (odd output width) and the tiling 2x2 stride 2.
    for (window, c, hw) in [(3, 32, 128), (2, 64, 128)] {
        let x = Tensor::randn(vec![1, c, hw, hw], 1.0, 73);
        let o = (hw - window) / 2 + 1;
        let pool = |init: f32, step: fn(f32, f32) -> f32, finish: fn(f32, f32) -> f32| {
            let mut out = vec![0.0f32; c * o * o];
            for ci in 0..c {
                for oy in 0..o {
                    for ox in 0..o {
                        let mut acc = init;
                        for ky in 0..window {
                            for kx in 0..window {
                                acc =
                                    step(acc, x.data()[(ci * hw + oy * 2 + ky) * hw + ox * 2 + kx]);
                            }
                        }
                        out[(ci * o + oy) * o + ox] = finish(acc, (window * window) as f32);
                    }
                }
            }
            out
        };
        check(
            &format!("max_pool {window}x{window} s2"),
            &pool(f32::NEG_INFINITY, f32::max, |a, _| a),
            || kernels::max_pool2d(&x, window, 2).unwrap(),
        );
        check(
            &format!("avg_pool {window}x{window} s2"),
            &pool(0.0, |a, v| a + v, |a, n| a / n),
            || kernels::avg_pool2d(&x, window, 2).unwrap(),
        );
    }
}

/// `linear` is lane-split (<= 4 ulp against a serial chain), so its oracle
/// is the same kernel at width 1: the row split must not change a bit.
#[test]
fn linear_rows_are_bit_identical_to_the_inline_run() {
    configure();
    let x = Tensor::randn(vec![8, 512], 1.0, 80);
    let w = Tensor::randn(vec![512, 512], 0.05, 81);
    let b = Tensor::randn(vec![512], 0.05, 82);
    let want = rayon::inline_scope(|| kernels::linear(&x, &w, Some(&b)).unwrap());
    check("linear 8x512x512", want.data(), || {
        kernels::linear(&x, &w, Some(&b)).unwrap()
    });
}

/// The whole engine on a width-3 pool: a placed, two-lane `Duet::run` of
/// the small wide-and-deep agrees with the reference interpreter run on
/// this thread with every region inline.
#[test]
fn wide_and_deep_run_matches_graph_eval() {
    configure();
    let model = wide_and_deep(&WideAndDeepConfig::small());
    let engine = Duet::builder()
        .no_fallback()
        .build(&model)
        .expect("engine builds");
    let feeds = input_feeds(engine.graph(), 11);
    let want = rayon::inline_scope(|| engine.graph().eval(&feeds)).expect("reference eval");
    for round in 0..4 {
        let outcome = engine.run(&feeds).expect("inference runs");
        for (i, &out_id) in engine.graph().outputs().iter().enumerate() {
            assert_bits_eq(
                outcome.outputs[&out_id].data(),
                want[i].data(),
                &format!("wide_and_deep output {i}, round {round}"),
            );
        }
    }
}
