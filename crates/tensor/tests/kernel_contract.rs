//! Reduction-order contract tests for the vectorized kernel engine.
//!
//! Every heavy kernel documents one of two numeric contracts against the
//! seed scalar implementations (reachable via `set_reference_mode`, see
//! `kernels/reference.rs`):
//!
//! * **Exact (`to_bits` identity).** GEMM (and everything lowered onto it:
//!   `matmul`, `conv2d`) computes each output element as one fused
//!   multiply-add chain, `acc = a.mul_add(b, acc)`, in a fixed k-ascending
//!   order — in both engines; the depthwise convolution as one unfused
//!   chain, in both. Tiling and lane-chunking change which elements
//!   advance together, never the order within one element's chain, and
//!   IEEE 754 fixes each step's rounding, so the vectorized engine must
//!   reproduce the seed bytes bit-for-bit.
//! * **Ulp-bounded.** `linear` (and the LSTM gates on top of it) splits
//!   each dot product into `LANES` independent partial sums — the
//!   reassociation that makes a dot product vectorizable. The contract is
//!   ≤ 4 ulp *measured at the scale of the accumulated magnitude*
//!   `Σ|xᵢ·wᵢ|`: under cancellation the result itself can land arbitrarily
//!   close to zero, where "ulp of the result" is not a meaningful unit,
//!   but the rounding error of either association is still bounded by a
//!   few ulp of the magnitude that flowed through the accumulators.
//!
//! Reference mode is process-global, so every test serializes on one lock
//! and restores the flag via a drop guard.

use std::sync::Mutex;

use duet_tensor::kernels::{self, set_reference_mode, LstmState};
use duet_tensor::Tensor;
use proptest::prelude::*;

static REF_LOCK: Mutex<()> = Mutex::new(());

struct RefModeGuard;
impl Drop for RefModeGuard {
    fn drop(&mut self) {
        set_reference_mode(false);
    }
}

/// Run `f` with the seed kernels active; the flag is restored even if
/// `f` panics. Callers must hold [`REF_LOCK`].
fn reference<T>(f: impl FnOnce() -> T) -> T {
    set_reference_mode(true);
    let _guard = RefModeGuard;
    f()
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of representable f32 values between `a` and `b` (0 for equal
/// values, treating +0 and −0 as equal).
fn bits_apart(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    let order = |f: f32| -> i64 {
        let i = f.to_bits() as i32 as i64;
        if i < 0 {
            (i32::MIN as i64) - i
        } else {
            i
        }
    };
    order(a).abs_diff(order(b))
}

/// The ulp-bounded contract: within `ulps` representable values, or
/// within `ulps` ulp of the accumulated magnitude `mag` when the result
/// sits too close to zero for bit distance to mean anything.
fn close_ulps(a: f32, b: f32, mag: f32, ulps: u32) -> bool {
    bits_apart(a, b) <= ulps as u64 || (a - b).abs() <= ulps as f32 * mag * f32::EPSILON
}

fn assert_bits_eq(fast: &Tensor, slow: &Tensor, what: &str) {
    assert_eq!(fast.shape(), slow.shape(), "{what}: shape");
    for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
        assert_eq!(f.to_bits(), s.to_bits(), "{what}: element {i}: {f} vs {s}");
    }
}

// --- exact (`to_bits` identity) contracts -------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The register-tiled GEMM reproduces the seed blocked GEMM's bytes on
    /// arbitrary shapes — row-tile stragglers, narrow and wide tail strips
    /// below and above one full strip, and the chunk split on both axes.
    #[test]
    fn matmul_bits_identical_across_engines(
        m in 1usize..40,
        k in 1usize..160,
        n in 1usize..100,
        seed in 0u64..1000,
    ) {
        let _l = lock();
        let a = Tensor::randn(vec![m, k], 1.0, seed);
        let b = Tensor::randn(vec![k, n], 1.0, seed.wrapping_add(1));
        let fast = kernels::matmul(&a, &b).unwrap();
        let slow = reference(|| kernels::matmul(&a, &b).unwrap());
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
    let _l = lock();
    for m in [1, 2, 3, 4, 5, 6, 13, 65] {
        for n in [1, 15, 16, 17, 31, 32, 33, 36, 47, 64, 81] {
            for k in [1, 64, 147] {
                let a = Tensor::randn(vec![m, k], 1.0, 7);
                let b = Tensor::randn(vec![k, n], 1.0, 8);
                let fast = kernels::matmul(&a, &b).unwrap();
                let slow = reference(|| kernels::matmul(&a, &b).unwrap());
                assert_bits_eq(&fast, &slow, &format!("matmul {m}x{k}x{n}"));
            }
        }
    }
}

#[test]
fn conv2d_bits_identical_across_engines() {
    // conv2d is the exact-contract GEMM over strips packed from the image
    // (the seed engine: over the whole patch matrix), so it inherits bit
    // identity — padded borders, strided geometries, strips that span
    // several output rows (widths 7, 14, 28, 56), the strided 1x1.
    let _l = lock();
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
        let slow = reference(|| kernels::conv2d(&x, &w, Some(&b), stride, padding).unwrap());
        assert_bits_eq(
            &fast,
            &slow,
            &format!("conv2d n{n} c{c_in}->{c_out} {hw}x{hw} k{k} s{stride} p{padding}"),
        );
    }
}

#[test]
fn depthwise_bits_identical_across_engines() {
    // The lane-chunked interior computes 8 outputs at once but keeps each
    // output's chain `bias, then taps in (ky,kx) order` — the scalar
    // kernel's order exactly. Geometries cover interior spans wider and
    // narrower than one lane chunk, padded borders, and the strided path
    // (which shares the scalar kernel by construction).
    let _l = lock();
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
        let slow =
            reference(|| kernels::depthwise_conv2d(&x, &w, Some(&b), stride, padding).unwrap());
        assert_bits_eq(
            &fast,
            &slow,
            &format!("depthwise c{c} {hw}x{hw} s{stride} p{padding}"),
        );
    }
}

// --- ulp-bounded contracts ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane-split linear stays within 4 ulp (at accumulated-magnitude
    /// scale) of the serial seed kernel for the zoo's distributions:
    /// k up to a few hundred, unit-variance values. Sizes sweep every
    /// lane-tail residue (`kin % LANES`) and the 4-row output tiling tail.
    #[test]
    fn linear_within_4_ulp_of_reference(
        m in 1usize..4,
        kin in 1usize..280,
        nout in 1usize..40,
        bias_on in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let _l = lock();
        let x = Tensor::randn(vec![m, kin], 1.0, seed);
        let w = Tensor::randn(vec![nout, kin], 1.0, seed.wrapping_add(1));
        let b = Tensor::randn(vec![nout], 1.0, seed.wrapping_add(2));
        let bias = bias_on.then_some(&b);
        let fast = kernels::linear(&x, &w, bias).unwrap();
        let slow = reference(|| kernels::linear(&x, &w, bias).unwrap());
        for i in 0..m {
            let xrow = &x.data()[i * kin..(i + 1) * kin];
            for j in 0..nout {
                let wrow = &w.data()[j * kin..(j + 1) * kin];
                let mag: f32 = xrow
                    .iter()
                    .zip(wrow)
                    .map(|(a, c)| (a * c).abs())
                    .sum::<f32>()
                    + if bias_on { b.data()[j].abs() } else { 0.0 };
                let (f, s) = (fast.data()[i * nout + j], slow.data()[i * nout + j]);
                prop_assert!(
                    close_ulps(f, s, mag, 4),
                    "linear {m}x{kin}x{nout} at ({i},{j}): {f} vs {s} ({} bits apart, mag {mag})",
                    bits_apart(f, s)
                );
            }
        }
    }

    /// Same contract for the accumulating variant the LSTM gates use.
    #[test]
    fn linear_acc_within_4_ulp_of_reference(
        kin in 1usize..200,
        nout in 1usize..30,
        seed in 0u64..1000,
    ) {
        let _l = lock();
        let x = Tensor::randn(vec![2, kin], 1.0, seed);
        let w = Tensor::randn(vec![nout, kin], 1.0, seed.wrapping_add(1));
        let init = Tensor::randn(vec![2, nout], 1.0, seed.wrapping_add(2));
        let mut fast = init.data().to_vec();
        kernels::linear_acc_into(x.data(), w.data(), &mut fast, 2, kin, nout);
        let mut slow = init.data().to_vec();
        reference(|| kernels::linear_acc_into(x.data(), w.data(), &mut slow, 2, kin, nout));
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
                    close_ulps(f, s, mag, 4),
                    "linear_acc {kin}x{nout} at ({i},{j}): {f} vs {s} ({} bits apart)",
                    bits_apart(f, s)
                );
            }
        }
    }
}

/// Every lane-tail residue of the dot kernel, batch-1 (the serve-arena
/// hot path that skips the parallel split entirely).
#[test]
fn linear_batch1_every_tail_residue() {
    let _l = lock();
    for kin in 1..=2 * kernels::micro::LANES + 1 {
        let x = Tensor::randn(vec![1, kin], 1.0, kin as u64);
        let w = Tensor::randn(vec![5, kin], 1.0, 100 + kin as u64);
        let fast = kernels::linear(&x, &w, None).unwrap();
        let slow = reference(|| kernels::linear(&x, &w, None).unwrap());
        for j in 0..5 {
            let wrow = &w.data()[j * kin..(j + 1) * kin];
            let mag: f32 = x.data().iter().zip(wrow).map(|(a, c)| (a * c).abs()).sum();
            assert!(
                close_ulps(fast.data()[j], slow.data()[j], mag, 4),
                "kin={kin} j={j}: {} vs {}",
                fast.data()[j],
                slow.data()[j]
            );
        }
    }
}

/// The fused LSTM (shared gates buffer, lane-split dots) against the seed
/// composition (two allocating GEMMs, serial dots) over a full sequence.
/// The gate pre-activations carry the 4-ulp linear contract; sigmoid and
/// tanh are contractive (|σ'| ≤ ¼, |tanh'| ≤ 1), so the natural bound on
/// the state trajectory is a small absolute tolerance, not ulp.
#[test]
fn lstm_sequence_close_to_reference() {
    let _l = lock();
    let (seq, batch, input, hidden) = (6, 2, 13, 17);
    let x = Tensor::randn(vec![seq, batch, input], 1.0, 41);
    let w_ih = Tensor::randn(vec![4 * hidden, input], 0.3, 42);
    let w_hh = Tensor::randn(vec![4 * hidden, hidden], 0.3, 43);
    let b = Tensor::randn(vec![4 * hidden], 0.3, 44);
    let (fast_out, fast_fin) = kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap();
    let (slow_out, slow_fin) = reference(|| kernels::lstm(&x, &w_ih, &w_hh, &b).unwrap());
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

/// Determinism: the vectorized engine's lane structure is fixed, so the
/// same inputs produce the same bits run over run — the property the
/// tape's bit-identity suite builds on.
#[test]
fn vectorized_kernels_deterministic() {
    let _l = lock();
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
