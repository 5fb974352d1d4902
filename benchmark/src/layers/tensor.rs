//! `duet-tensor`: direct kernel calls on the `ext-kernel-speed` shapes
//! (one per zoo family's dominant kernel). FLOP counts are computed from
//! the tensor sizes, not measured.
//!
//! Moves `infer_heavy` and `serve_open` latency; nothing on `serve_sat`
//! (numerics are ~15 % of its period) or `plan_offline` (runs no
//! kernels).

use duet_tensor::kernels;
use duet_tensor::Tensor;

use super::{Probe, Readings};

pub fn probe(p: &Probe) -> Readings {
    let mut out = Readings::new();
    let mut report = |us_name, gflops_name, flops: f64, us: f64| {
        out.push((us_name, us));
        out.push((gflops_name, flops / (us * 1e3)));
    };

    // wide_and_deep: batch-1 fully-connected tower.
    {
        let (m, k, n) = (1, 1024, 1024);
        let x = Tensor::randn(vec![m, k], 1.0, 1);
        let w = Tensor::randn(vec![n, k], 0.05, 2);
        let b = Tensor::randn(vec![n], 0.05, 3);
        let us = p.time_us("tensor.linear", || {
            kernels::linear(&x, &w, Some(&b)).expect("shapes agree");
        });
        report(
            "tensor.linear_us",
            "tensor.gflops.linear",
            2.0 * (m * k * n) as f64,
            us,
        );
    }
    // mtdnn: attention/projection GEMM.
    {
        let (m, k, n) = (128, 256, 256);
        let a = Tensor::randn(vec![m, k], 1.0, 8);
        let b = Tensor::randn(vec![k, n], 0.05, 9);
        let us = p.time_us("tensor.matmul", || {
            kernels::matmul(&a, &b).expect("shapes agree");
        });
        report(
            "tensor.matmul_us",
            "tensor.gflops.matmul",
            2.0 * (m * k * n) as f64,
            us,
        );
    }
    // resnet: the 3x3 residual-stage convolution.
    {
        let (c_in, c_out, hw, kk) = (64, 64, 28, 3);
        let x = Tensor::randn(vec![1, c_in, hw, hw], 1.0, 10);
        let w = Tensor::randn(vec![c_out, c_in, kk, kk], 0.05, 11);
        let b = Tensor::randn(vec![c_out], 0.05, 12);
        let us = p.time_us("tensor.conv2d", || {
            kernels::conv2d(&x, &w, Some(&b), 1, 1).expect("shapes agree");
        });
        report(
            "tensor.conv2d_us",
            "tensor.gflops.conv2d",
            2.0 * (c_in * c_out * kk * kk * hw * hw) as f64,
            us,
        );
    }
    // mobilenet: the depthwise stage.
    {
        let (c, hw, kk) = (128, 28, 3);
        let x = Tensor::randn(vec![1, c, hw, hw], 1.0, 18);
        let w = Tensor::randn(vec![c, 1, kk, kk], 0.05, 19);
        let b = Tensor::randn(vec![c], 0.05, 20);
        let us = p.time_us("tensor.depthwise", || {
            kernels::depthwise_conv2d(&x, &w, Some(&b), 1, 1).expect("shapes agree");
        });
        report(
            "tensor.depthwise_us",
            "tensor.gflops.depthwise",
            2.0 * (c * kk * kk * hw * hw) as f64,
            us,
        );
    }
    // siamese: the recurrent tower.
    {
        let (input, hidden, seq) = (128, 128, 16);
        let x = Tensor::randn(vec![seq, 1, input], 1.0, 4);
        let w_ih = Tensor::randn(vec![4 * hidden, input], 0.05, 5);
        let w_hh = Tensor::randn(vec![4 * hidden, hidden], 0.05, 6);
        let b = Tensor::randn(vec![4 * hidden], 0.05, 7);
        let us = p.time_us("tensor.lstm", || {
            kernels::lstm(&x, &w_ih, &w_hh, &b).expect("shapes agree");
        });
        report(
            "tensor.lstm_us",
            "tensor.gflops.lstm",
            2.0 * (seq * 4 * hidden * (input + hidden)) as f64,
            us,
        );
    }
    out
}
