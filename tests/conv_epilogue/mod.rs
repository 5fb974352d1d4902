//! The fused convolution of the tape, bit for bit against the unfused
//! kernels, shared by `conv_epilogue_width2.rs` and `conv_epilogue_width3.rs`
//! (the pool is process-global and sized at first use, so each width is a
//! test binary of its own; width 1 is the same run with regions inline).
//!
//! Every case is `relu(batch_norm(conv(x) + bias) + residual)` planned as one
//! tape instruction: the conv anchors, and its bias, the batch norm, the
//! residual `Add` and the `Relu` run inside the GEMM's chunks. The result
//! must equal `kernels::conv2d` then `batch_norm2d`, `add` and `relu` run one
//! after the other, to the bit, and the conv itself must equal the oracle.

use std::collections::HashMap;

use duet_compiler::passes::fuse_groups;
use duet_compiler::ExecutableTape;
use duet_ir::{GraphBuilder, Op};
use duet_tensor::kernels::{self, reference};
use duet_tensor::Tensor;

/// (what, [images, c_in, c_out, input side, kernel, stride, padding]).
type Case = (&'static str, [usize; 7]);

/// Output maps of 112, 55, 14, 7 and 2; strides 1 and 2; paddings 0, 1 and
/// 3; kernels 1, 3 and 7; one or two images. Pitched, packed and pointwise
/// layouts all occur.
const CASES: [Case; 10] = [
    ("stem 7x7 s2 p3, map 112", [1, 3, 16, 224, 7, 2, 3]),
    ("3x3 s1 p1, map 55", [1, 16, 24, 55, 3, 1, 1]),
    ("3x3 s2 p1, map 55, two images", [2, 8, 16, 110, 3, 2, 1]),
    ("3x3 s1 p1, map 14, two images", [2, 32, 40, 14, 3, 1, 1]),
    ("7x7 s1 p3, map 14", [1, 8, 16, 14, 7, 1, 3]),
    ("3x3 s2 p1, map 7, two images", [2, 24, 32, 14, 3, 2, 1]),
    ("3x3 s1 p0, map 7", [1, 16, 16, 9, 3, 1, 0]),
    ("1x1 s2 p0, map 7", [1, 32, 48, 14, 1, 2, 0]),
    ("1x1 s1 p0, map 14, two images", [2, 32, 24, 14, 1, 1, 0]),
    ("3x3 s1 p1, map 2, two images", [2, 64, 64, 2, 3, 1, 1]),
];

pub fn configure(width: usize) {
    assert!(
        rayon::configure(width),
        "pool must not be initialized before this binary configures it"
    );
    assert_eq!(rayon::current_num_threads(), width);
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Every case on the configured pool and with its regions inline.
pub fn fused_conv_matches_the_unfused_kernels() {
    for (i, (what, [n, c_in, c_out, side, k, stride, padding])) in CASES.into_iter().enumerate() {
        let seed = 100 + 10 * i as u64;
        let x = Tensor::randn(vec![n, c_in, side, side], 1.0, seed);
        let w = Tensor::randn(vec![c_out, c_in, k, k], 0.2, seed + 1);
        let bias = Tensor::randn(vec![c_out], 0.5, seed + 2);
        let gamma = Tensor::randn(vec![c_out], 0.5, seed + 3);
        let beta = Tensor::randn(vec![c_out], 0.5, seed + 4);
        let mean = Tensor::randn(vec![c_out], 0.5, seed + 5);
        let var = Tensor::rand_uniform(vec![c_out], 0.1, 2.0, seed + 6);

        let conv = kernels::conv2d(&x, &w, Some(&bias), stride, padding).unwrap();
        let oracle = reference::conv2d(&x, &w, Some(&bias), stride, padding);
        assert_bits_eq(conv.data(), oracle.data(), &format!("{what}: conv2d"));
        let residual = Tensor::randn(conv.shape().dims().to_vec(), 1.0, seed + 7);
        let normed = kernels::batch_norm2d(&conv, &gamma, &beta, &mean, &var, 1e-5).unwrap();
        let summed = kernels::add(&normed, &residual).unwrap();
        let want = kernels::relu(&summed);

        let mut b = GraphBuilder::new("conv_epilogue", 1);
        let xi = b.input("x", x.shape().clone());
        let ri = b.input("residual", residual.shape().clone());
        let wi = b.constant("w", w.clone());
        let bi = b.constant("bias", bias.clone());
        let conv_op = Op::Conv2d {
            stride,
            padding,
            bias: true,
        };
        let conv_id = b.op("conv", conv_op, &[xi, wi, bi]).unwrap();
        let params = [gamma, beta, mean, var].map(|t| b.constant("bn.param", t));
        let bn_inputs = [conv_id, params[0], params[1], params[2], params[3]];
        let bn_id = b.op("bn", Op::BatchNorm2d, &bn_inputs).unwrap();
        let add_id = b.op("res", Op::Add, &[bn_id, ri]).unwrap();
        let relu_id = b.op("relu", Op::Relu, &[add_id]).unwrap();
        let graph = b.finish(&[relu_id]).unwrap();
        let groups = fuse_groups(&graph, &[conv_id, bn_id, add_id, relu_id]);
        let tape = ExecutableTape::build(&graph, &groups, &[xi, ri], &[relu_id]);
        assert_eq!(tape.instrs.len(), 1, "{what}: one fused instruction");
        assert_eq!(
            tape.plan.fused_epilogues, 3,
            "{what}: bn, add and relu fused"
        );

        let env = HashMap::from([(xi, x.clone()), (ri, residual.clone())]);
        let run = || tape.execute(&env).unwrap().remove(&relu_id).unwrap();
        assert_bits_eq(run().data(), want.data(), &format!("{what}: fused, pool"));
        let inline = rayon::inline_scope(run);
        assert_bits_eq(
            inline.data(),
            want.data(),
            &format!("{what}: fused, inline"),
        );
    }
}
