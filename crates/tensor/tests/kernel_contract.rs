//! Reduction-order contract tests for the kernel engine.
//!
//! Every heavy kernel documents one of two numeric contracts against its
//! oracle in `kernels::reference` — the same computation written as plain
//! single-threaded loops that share no code with the engine. Each test
//! calls `kernels::X` and `reference::X` on the same inputs:
//!
//! * **Exact (`to_bits` identity).** Every dense product — GEMM and
//!   everything lowered onto it: `matmul`, `conv2d`, `linear` (run as
//!   `w @ xᵀ`, the weight read in place as A) and so the LSTM/GRU input
//!   projection — computes each output element as one fused multiply-add
//!   chain, `acc = a.mul_add(b, acc)`, in a fixed k-ascending order, then
//!   adds any bias; the depthwise convolution as one unfused chain. Tiling
//!   and lane-chunking change which elements advance together, never the
//!   order within one element's chain, and IEEE 754 fixes each step's
//!   rounding, so the engine must reproduce the oracle's bytes bit-for-bit.
//!   Pooling takes each output's taps in (ky, kx) order, so it is exact too.
//! * **Ulp-bounded.** The recurrent matvec `linear_acc_into` alone splits
//!   each dot product into independent lane partial sums — the
//!   reassociation that makes a dot product vectorizable. The contract is
//!   ≤ 4 ulp *measured at the scale of the accumulated magnitude*
//!   `Σ|xᵢ·wᵢ|` (`reference::within_ulps`): under cancellation the result
//!   itself can land arbitrarily close to zero, where "ulp of the result" is
//!   not a meaningful unit, but the rounding error of either association is
//!   still bounded by a few ulp of the magnitude that flowed through the
//!   accumulators.
//! * **Absolute.** The LSTM and GRU compose the exact input projection,
//!   the ulp-bounded matvec and polynomial activations; their oracles use
//!   serial dots and libm. The gates are contractive, so whole state
//!   trajectories stay within an absolute 1e-4.
//! * **Activations.** Sigmoid, tanh and GELU — one polynomial
//!   implementation, shared by the elementwise kernels, the tape's fused
//!   epilogues and the recurrent gates — against their f64 formulas:
//!   sigmoid within 4 ulp of the rounded truth, tanh within absolute 2⁻²²,
//!   GELU within 2⁻²²·max(|y|, 1); NaN in gives NaN out.

use duet_tensor::kernels::{self, reference, LstmState};
use duet_tensor::Tensor;
use proptest::prelude::*;

use reference::{ulps_apart, within_ulps};

fn assert_bits_eq(fast: &Tensor, slow: &Tensor, what: &str) {
    assert_eq!(fast.shape(), slow.shape(), "{what}: shape");
    for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(f.to_bits(), s.to_bits(), "{what}: element {i}: {f} vs {s}");
    }
}

// --- exact (`to_bits` identity) contracts -------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The register-tiled GEMM reproduces the naive loop's bytes on
    /// arbitrary shapes — row-tile stragglers, narrow and wide tail strips
    /// below and above one full strip, and the chunk split on both axes.
    #[test]
    fn matmul_bits_identical_to_reference(
        m in 1usize..40,
        k in 1usize..160,
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let a = Tensor::randn(vec![m, k], 1.0, seed);
        let b = Tensor::randn(vec![k, n], 1.0, seed.wrapping_add(1));
        let fast = kernels::matmul(&a, &b).unwrap();
        let slow = reference::matmul(&a, &b);
        assert_bits_eq(&fast, &slow, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_every_tile_residue_bits_identical() {
    // Every residue of the 6x32 geometry: n % 32 in {0, 1, 15, 16, 17, 31}
    // (both sides of the narrow tile's 16 columns), m % 6 in 0..6, m small
    // enough for one chunk and large enough for several, k of one step, a
    // round number and the stem's 147. Neither the split nor the tile shape
    // may change any element's chain.
    for m in [1, 2, 3, 4, 5, 6, 13, 65] {
        for n in [1, 15, 16, 17, 31, 32, 33, 36, 47, 64, 81] {
            for k in [1, 64, 147] {
                let a = Tensor::randn(vec![m, k], 1.0, 7);
                let b = Tensor::randn(vec![k, n], 1.0, 8);
                let fast = kernels::matmul(&a, &b).unwrap();
                let slow = reference::matmul(&a, &b);
                assert_bits_eq(&fast, &slow, &format!("matmul {m}x{k}x{n}"));
            }
        }
    }
}

#[test]
fn conv2d_bits_identical_to_reference() {
    // conv2d is the exact-contract GEMM over strips packed from the image,
    // so it is bit-identical to the direct loop — padded borders, strided geometries, strips that span
    // several output rows (widths 7, 14, 28, 56), the strided 1x1.
    for &(n, c_in, c_out, hw, k, stride, padding) in &[
        (1usize, 3usize, 8usize, 11usize, 3usize, 1usize, 1usize),
        (2, 4, 6, 9, 3, 2, 1),
        (1, 1, 4, 12, 3, 1, 0),
        (1, 8, 16, 7, 3, 2, 0),
        (1, 5, 7, 7, 3, 1, 1),
        (1, 3, 13, 14, 3, 1, 1),
        (2, 3, 7, 28, 3, 1, 1),
        (1, 2, 5, 56, 3, 1, 1),
        (1, 3, 8, 27, 7, 2, 3),
        (1, 6, 14, 14, 1, 2, 0),
    ] {
        let x = Tensor::randn(vec![n, c_in, hw, hw], 1.0, 11);
        let w = Tensor::randn(vec![c_out, c_in, k, k], 0.5, 12);
        let b = Tensor::randn(vec![c_out], 0.5, 13);
        let fast = kernels::conv2d(&x, &w, Some(&b), stride, padding).unwrap();
        let slow = reference::conv2d(&x, &w, Some(&b), stride, padding);
        assert_bits_eq(
            &fast,
            &slow,
            &format!("conv2d n{n} c{c_in}->{c_out} {hw}x{hw} k{k} s{stride} p{padding}"),
        );
    }
}

#[test]
fn depthwise_bits_identical_to_reference() {
    // Each tap is one pass over the whole padded plane, but each output's
    // chain stays `bias, then taps in (ky,kx) order` — the oracle's order
    // exactly. Geometries cover unpadded and padded borders, padding 2 and
    // the strided phase planes.
    for &(c, hw, stride, padding) in &[
        (3usize, 12usize, 1usize, 1usize),
        (8, 7, 1, 0),
        (4, 19, 1, 2),
        (3, 12, 2, 1),
    ] {
        let x = Tensor::randn(vec![2, c, hw, hw], 1.0, 21);
        let w = Tensor::randn(vec![c, 1, 3, 3], 0.5, 22);
        let b = Tensor::randn(vec![c], 0.5, 23);
        let fast = kernels::depthwise_conv2d(&x, &w, Some(&b), stride, padding).unwrap();
        let slow = reference::depthwise_conv2d(&x, &w, Some(&b), stride, padding);
        assert_bits_eq(
            &fast,
            &slow,
            &format!("depthwise c{c} {hw}x{hw} s{stride} p{padding}"),
        );
    }
    // A +inf corner tap over an image in [1, 2]: the 7 outputs of a 4x4
    // plane whose corner tap falls in the padding compute 0·inf = NaN.
    let x = Tensor::rand_uniform(vec![1, 2, 4, 4], 1.0, 2.0, 24);
    let mut w = Tensor::randn(vec![2, 1, 3, 3], 0.5, 25).data().to_vec();
    w[0] = f32::INFINITY;
    let w = Tensor::from_vec(vec![2, 1, 3, 3], w).unwrap();
    let fast = kernels::depthwise_conv2d(&x, &w, None, 1, 1).unwrap();
    assert_eq!(fast.data().iter().filter(|v| v.is_nan()).count(), 7);
    let slow = reference::depthwise_conv2d(&x, &w, None, 1, 1);
    assert_bits_eq(&fast, &slow, "depthwise +inf corner tap");
    // A -0.0 image, positive weights and a -0.0 bias: every real tap adds
    // -0.0, so an output stays -0.0 unless one of its taps is padding,
    // whose 0·w = +0.0 makes it +0.0 — the 16 border outputs of 5x5.
    let x = Tensor::full(vec![1, 2, 5, 5], -0.0);
    let w = Tensor::full(vec![2, 1, 3, 3], 0.5);
    let b = Tensor::full(vec![2], -0.0);
    let fast = kernels::depthwise_conv2d(&x, &w, Some(&b), 1, 1).unwrap();
    let positive = fast.data().iter().filter(|v| v.is_sign_positive()).count();
    assert_eq!(positive, 2 * 16);
    let slow = reference::depthwise_conv2d(&x, &w, Some(&b), 1, 1);
    assert_bits_eq(&fast, &slow, "depthwise -0.0 image and bias");
}

#[test]
fn pooling_bits_identical_to_reference() {
    // Each output's taps in (ky, kx) order, whatever the stride-specialised
    // row loop does: stride 1, 2 (the stem's overlapping 3x3) and 3, odd
    // and even sides, a window as wide as the input, two images.
    for &(c, hw, window, stride) in &[
        (3usize, 12usize, 2usize, 1usize),
        (4, 112, 3, 2),
        (2, 13, 3, 2),
        (5, 16, 2, 2),
        (3, 17, 3, 3),
        (2, 5, 5, 1),
    ] {
        let x = Tensor::randn(vec![2, c, hw, hw], 1.0, 24);
        let what = format!("c{c} {hw}x{hw} window {window} s{stride}");
        assert_bits_eq(
            &kernels::max_pool2d(&x, window, stride).unwrap(),
            &reference::max_pool2d(&x, window, stride),
            &format!("max_pool2d {what}"),
        );
        assert_bits_eq(
            &kernels::avg_pool2d(&x, window, stride).unwrap(),
            &reference::avg_pool2d(&x, window, stride),
            &format!("avg_pool2d {what}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `linear` is the exact GEMM turned around (`w @ xᵀ`, the weight as
    /// A): every output is the oracle's fused k-ascending chain plus the
    /// bias, to the bit, at every batch size — across the narrow tile's 16
    /// and a strip's 32 columns of `xᵀ` — on the pool and inline.
    #[test]
    fn linear_bits_identical_to_fused_reference(
        m in 1usize..=40,
        kin in 1usize..300,
        nout in 1usize..70,
        bias_on in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(vec![m, kin], 1.0, seed);
        let w = Tensor::randn(vec![nout, kin], 1.0, seed.wrapping_add(1));
        let b = Tensor::randn(vec![nout], 1.0, seed.wrapping_add(2));
        let bias = bias_on.then_some(&b);
        let slow = reference::linear(&x, &w, bias);
        let what = format!("linear {m}x{kin}x{nout} bias {bias_on}");
        assert_bits_eq(&kernels::linear(&x, &w, bias).unwrap(), &slow, &what);
        let inline = rayon::inline_scope(|| kernels::linear(&x, &w, bias).unwrap());
        assert_bits_eq(&inline, &slow, &format!("{what} inline"));
    }
}

// --- ulp-bounded contracts ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recurrent matvec the LSTM and GRU gates use stays within 4 ulp
    /// (at accumulated-magnitude scale) of the serial unfused oracle.
    #[test]
    fn linear_acc_within_4_ulp_of_reference(
        kin in 1usize..200,
        nout in 1usize..30,
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(vec![2, kin], 1.0, seed);
        let w = Tensor::randn(vec![nout, kin], 1.0, seed.wrapping_add(1));
        let init = Tensor::randn(vec![2, nout], 1.0, seed.wrapping_add(2));
        let mut fast = init.data().to_vec();
        kernels::linear_acc_into(x.data(), w.data(), &mut fast, 2, kin, nout);
        let mut slow = init.data().to_vec();
        reference::linear_acc_into(x.data(), w.data(), &mut slow, 2, kin, nout);
        for i in 0..2 {
            let xrow = &x.data()[i * kin..(i + 1) * kin];
            for j in 0..nout {
                let wrow = &w.data()[j * kin..(j + 1) * kin];
                let mag: f32 = xrow
                    .iter()
                    .zip(wrow)
                    .map(|(a, c)| (a * c).abs())
                    .sum::<f32>()
                    + init.data()[i * nout + j].abs();
                let (f, s) = (fast[i * nout + j], slow[i * nout + j]);
                prop_assert!(
                    within_ulps(f, s, mag, 4),
                    "linear_acc {kin}x{nout} at ({i},{j}): {f} vs {s} ({} bits apart)",
                    ulps_apart(f, s)
                );
            }
        }
    }
}

/// The fused LSTM (shared gates buffer, lane-split recurrent dots) against
/// the oracle (two allocating linears per step, serial dots) over a full
/// sequence. The gate pre-activations carry the matvec's 4-ulp contract;
/// sigmoid and tanh are contractive (|σ'| ≤ ¼, |tanh'| ≤ 1), so the natural
/// bound on the state trajectory is a small absolute tolerance, not ulp.
#[test]
fn lstm_sequence_close_to_reference() {
    let (seq, batch, input, hidden) = (6, 2, 13, 17);
    let x = Tensor::randn(vec![seq, batch, input], 1.0, 41);
    let w_ih = Tensor::randn(vec![4 * hidden, input], 0.3, 42);
    let w_hh = Tensor::randn(vec![4 * hidden, hidden], 0.3, 43);
    let b = Tensor::randn(vec![4 * hidden], 0.3, 44);
    let (fast_out, fast_fin) = kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap();
    let (slow_out, slow_fin) = reference::lstm(&x, &w_ih, &w_hh, &b);
    let max_diff = |a: &Tensor, c: &Tensor| {
        a.data()
            .iter()
            .zip(c.data())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f32, f32::max)
    };
    assert!(
        max_diff(&fast_out, &slow_out) <= 1e-4,
        "hidden stack diverged"
    );
    assert!(
        max_diff(&fast_fin.c, &slow_fin.c) <= 1e-4,
        "cell state diverged"
    );
    // And the step entry point agrees with the sequence driver's last state.
    let mut st = LstmState::zeros(batch, hidden);
    for t in 0..seq {
        let xt = Tensor::from_vec(
            vec![batch, input],
            x.data()[t * batch * input..(t + 1) * batch * input].to_vec(),
        )
        .unwrap();
        st = kernels::lstm_step(&xt, &st, &w_ih, &w_hh, &b).unwrap();
    }
    assert_bits_eq(&st.h, &fast_fin.h, "lstm step-vs-driver h");
    assert_bits_eq(&st.c, &fast_fin.c, "lstm step-vs-driver c");
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f32, f32::max)
}

/// A recurrent layer of `gates` gates: `[x, w_ih, w_hh, b]`, weights of
/// standard deviation 0.3, `x` of unit variance.
fn rnn_case(
    seq: usize,
    batch: usize,
    input: usize,
    hidden: usize,
    gates: usize,
    seed: u64,
) -> [Tensor; 4] {
    [
        Tensor::randn(vec![seq, batch, input], 1.0, seed),
        Tensor::randn(vec![gates * hidden, input], 0.3, seed.wrapping_add(1)),
        Tensor::randn(vec![gates * hidden, hidden], 0.3, seed.wrapping_add(2)),
        Tensor::randn(vec![gates * hidden], 0.3, seed.wrapping_add(3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LSTM against its oracle on every tail of the engine underneath
    /// it: `hidden % 16` (the matvec's lane tail is `hidden`), `4·hidden %
    /// 32` (the projection's strip tail, narrow tile included), any input
    /// width (the GEMM's k), batch 1–3 and sequences up to 9 steps.
    #[test]
    fn lstm_close_to_reference(
        seq in 1usize..10,
        batch in 1usize..4,
        input in 1usize..40,
        hidden in 1usize..40,
        seed in 0u64..1000,
    ) {
        let [x, w_ih, w_hh, b] = rnn_case(seq, batch, input, hidden, 4, seed);
        let (fast_out, fast_fin) = kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap();
        let (slow_out, slow_fin) = reference::lstm(&x, &w_ih, &w_hh, &b);
        prop_assert!(max_abs_diff(&fast_out, &slow_out) <= 1e-4);
        prop_assert!(max_abs_diff(&fast_fin.c, &slow_fin.c) <= 1e-4);
    }
}

/// The paper's shape (§III-B: seq 100, batch 1, 128 → 256), whose
/// projection is large enough to fork onto the pool.
#[test]
fn lstm_paper_shape_close_to_reference() {
    let [x, w_ih, w_hh, b] = rnn_case(100, 1, 128, 256, 4, 61);
    let (fast_out, fast_fin) = kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap();
    let (slow_out, slow_fin) = reference::lstm(&x, &w_ih, &w_hh, &b);
    let (dh, dc) = (
        max_abs_diff(&fast_out, &slow_out),
        max_abs_diff(&fast_fin.c, &slow_fin.c),
    );
    assert!(dh <= 1e-4 && dc <= 1e-4, "max |Δh| {dh:e}, |Δc| {dc:e}");
}

/// The GRU sequence kernel (hoisted projection, fused matvec, polynomial
/// gates) against its oracle, on a strip tail (3·17 = 51 columns) and a lane
/// tail.
#[test]
fn gru_sequence_close_to_reference() {
    for (seq, batch, input, hidden) in [(6, 2, 13, 17), (9, 3, 40, 35)] {
        let [x, w_ih, w_hh, b] = rnn_case(seq, batch, input, hidden, 3, 71);
        let fast = kernels::gru(&x, &w_ih, &w_hh, &b).unwrap();
        let slow = reference::gru(&x, &w_ih, &w_hh, &b);
        let d = max_abs_diff(&fast, &slow);
        assert!(
            d <= 1e-4,
            "gru {seq}x{batch} {input}->{hidden}: max |Δh| {d:e}"
        );
    }
}

/// Determinism: the engine's lane structure is fixed, so the
/// same inputs produce the same bits run over run — the property the
/// tape's bit-identity suite builds on.
#[test]
fn vectorized_kernels_deterministic() {
    let x = Tensor::randn(vec![3, 100], 1.0, 51);
    let w = Tensor::randn(vec![20, 100], 1.0, 52);
    let y1 = kernels::linear(&x, &w, None).unwrap();
    let y2 = kernels::linear(&x, &w, None).unwrap();
    assert_bits_eq(&y1, &y2, "linear determinism");
    let a = Tensor::randn(vec![40, 64], 1.0, 53);
    let bm = Tensor::randn(vec![64, 50], 1.0, 54);
    let c1 = kernels::matmul(&a, &bm).unwrap();
    let c2 = kernels::matmul(&a, &bm).unwrap();
    assert_bits_eq(&c1, &c2, "matmul determinism");
}

// --- the activations' contract --------------------------------------------

/// Every 509th f32 from +0 up to 40 on both signs — the subnormals, tanh's
/// cancellation near zero and both saturations — then ±0, ±∞, ±88, the
/// least normal and the least subnormal on both signs, and NaN.
fn activation_inputs() -> Tensor {
    let top = 40.0f32.to_bits();
    let sweep = (0..=top).step_by(509).map(f32::from_bits);
    let specials = [
        0.0,
        f32::INFINITY,
        88.0,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
    ];
    let mut xs: Vec<f32> = sweep.chain(specials).flat_map(|x| [x, -x]).collect();
    xs.push(f32::NAN);
    Tensor::from_vec(vec![xs.len()], xs).unwrap()
}

/// `got` within `tol` of the f64 `truth`; where the truth is not finite,
/// the same infinity or NaN.
fn within(got: f32, truth: f64, tol: f64) -> bool {
    if truth.is_finite() {
        (f64::from(got) - truth).abs() <= tol
    } else {
        f64::from(got) == truth || (got.is_nan() && truth.is_nan())
    }
}

#[test]
fn activations_meet_their_contracts() {
    let x = activation_inputs();
    let (s, t, g) = (kernels::sigmoid(&x), kernels::tanh(&x), kernels::gelu(&x));
    let g_ref = reference::gelu(&x);
    for (i, &xi) in x.data().iter().enumerate() {
        let (si, ti, gi) = (s.data()[i], t.data()[i], g.data()[i]);
        let xd = f64::from(xi);
        let s_true = (1.0 / (1.0 + (-xd).exp())) as f32;
        let t_true = xd.tanh();
        let g_true = f64::from(g_ref.data()[i]);
        if xi.is_nan() {
            assert!(
                si.is_nan() && ti.is_nan() && gi.is_nan(),
                "NaN in gave {si}, {ti}, {gi}"
            );
            continue;
        }
        assert!(
            ulps_apart(si, s_true) <= 4 && (0.0..=1.0).contains(&si),
            "sigmoid({xi:e}) = {si:e}, truth {s_true:e}: {} ulp",
            ulps_apart(si, s_true)
        );
        assert!(
            within(ti, t_true, 2f64.powi(-22)) && (-1.0..=1.0).contains(&ti),
            "tanh({xi:e}) = {ti:e}, truth {t_true:e}"
        );
        assert!(
            within(gi, g_true, 2f64.powi(-22) * g_true.abs().max(1.0)),
            "gelu({xi:e}) = {gi:e}, truth {g_true:e}"
        );
    }
    let at = |f: fn(&Tensor) -> Tensor, v: f32| {
        f(&Tensor::from_vec(vec![1], vec![v]).unwrap()).data()[0]
    };
    let (sigmoid, tanh) = (kernels::sigmoid, kernels::tanh);
    assert_eq!(
        (at(sigmoid, f32::INFINITY), at(sigmoid, f32::NEG_INFINITY)),
        (1.0, 0.0)
    );
    assert_eq!(
        (at(tanh, f32::INFINITY), at(tanh, f32::NEG_INFINITY)),
        (1.0, -1.0)
    );
    assert_eq!((at(sigmoid, 0.0), at(sigmoid, -0.0)), (0.5, 0.5));
    assert_eq!(at(tanh, -0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(at(kernels::gelu, -0.0).to_bits(), (-0.0f32).to_bits());
    // Deep in the left tail the truth is subnormal and still matched.
    assert!(at(sigmoid, -100.0) > 0.0);
}

// --- batch-row invariance ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A row's bits do not depend on the batch it rides in: each row of a
    /// batch-`m` `linear`, `linear_acc_into` and `matmul` equals the same
    /// row computed alone at `m = 1`. Serving rests on this — a batched
    /// request must answer what it answers alone — so m = 1 and m ≥ 2 must
    /// share one per-row reduction order. `kin` covers the dot's lane tails
    /// on both sides of 16.
    #[test]
    fn batched_rows_bit_identical_to_rows_alone(
        m in 2usize..=9,
        kin in 1usize..=40,
        nout in 1usize..40,
        seed in 0u64..1000,
    ) {
        let x = Tensor::randn(vec![m, kin], 1.0, seed);
        let w = Tensor::randn(vec![nout, kin], 1.0, seed.wrapping_add(1));
        let b = Tensor::randn(vec![nout], 1.0, seed.wrapping_add(2));
        let init = Tensor::randn(vec![m, nout], 1.0, seed.wrapping_add(3));
        let wt = Tensor::randn(vec![kin, nout], 1.0, seed.wrapping_add(4));
        let linear = kernels::linear(&x, &w, Some(&b)).unwrap();
        let mut acc = init.data().to_vec();
        kernels::linear_acc_into(x.data(), w.data(), &mut acc, m, kin, nout);
        let matmul = kernels::matmul(&x, &wt).unwrap();
        for i in 0..m {
            let row = Tensor::from_vec(vec![1, kin], x.data()[i * kin..(i + 1) * kin].to_vec())
                .unwrap();
            let out = i * nout..(i + 1) * nout;
            let alone = kernels::linear(&row, &w, Some(&b)).unwrap();
            assert_bits_eq(
                &alone,
                &Tensor::from_vec(vec![1, nout], linear.data()[out.clone()].to_vec()).unwrap(),
                &format!("linear row {i} of {m}x{kin}x{nout}"),
            );
            let mut acc_alone = init.data()[out.clone()].to_vec();
            kernels::linear_acc_into(row.data(), w.data(), &mut acc_alone, 1, kin, nout);
            for (j, (a, b)) in acc_alone.iter().zip(&acc[out.clone()]).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "linear_acc row {} col {}", i, j);
            }
            let alone = kernels::matmul(&row, &wt).unwrap();
            assert_bits_eq(
                &alone,
                &Tensor::from_vec(vec![1, nout], matmul.data()[out].to_vec()).unwrap(),
                &format!("matmul row {i} of {m}x{kin}x{nout}"),
            );
        }
    }
}
