//! Soundness gate for the `D6xx` abstract interpreter: on randomized
//! zoo-family graphs with randomized feeds, every concrete element of
//! every node's output must lie inside that node's abstract interval,
//! and NaN/Inf may only appear where the corresponding flag is set.
//!
//! This is the property the whole analyzer rests on — a diagnostic is
//! only as trustworthy as the intervals behind it.

use duet_ir::absint::{analyze_values_with, AbsintConfig};
use duet_ir::{Graph, NodeId, Op};
use duet_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

/// One randomly chosen 2-D layer appended to a running stack of
/// same-batch tensors. Kept to the zoo op families: dense algebra,
/// elementwise, normalization, activations, reductions, concat, and the
/// recurrent layers (the rows as a sequence, its last hidden state out).
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // `LayerNorm` is the op's real name
enum Layer {
    Linear { out: usize },
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
    Softmax,
    LogSoftmax,
    Scale { factor: f32 },
    AddEarlier,
    SubEarlier,
    MulEarlier,
    ConcatEarlier,
    LayerNorm,
    ReduceSum,
    ReduceMean,
    Lstm { hidden: usize },
    Gru { hidden: usize },
}

fn layer_strategy() -> impl Strategy<Value = Layer> {
    prop_oneof![
        (1usize..12).prop_map(|out| Layer::Linear { out }),
        Just(Layer::Relu),
        Just(Layer::Sigmoid),
        Just(Layer::Tanh),
        Just(Layer::Gelu),
        Just(Layer::Softmax),
        Just(Layer::LogSoftmax),
        (-3.0f32..3.0).prop_map(|factor| Layer::Scale { factor }),
        Just(Layer::AddEarlier),
        Just(Layer::SubEarlier),
        Just(Layer::MulEarlier),
        Just(Layer::ConcatEarlier),
        Just(Layer::LayerNorm),
        Just(Layer::ReduceSum),
        Just(Layer::ReduceMean),
        (1usize..12).prop_map(|hidden| Layer::Lstm { hidden }),
        (1usize..12).prop_map(|hidden| Layer::Gru { hidden }),
    ]
}

/// Build a random graph: a stack of layers over a [batch, feat] input,
/// where binary layers pick a same-shape earlier node as their second
/// operand. Every compute node is declared an output so the soundness
/// check sees every intermediate.
fn build_graph(batch: usize, feat: usize, layers: &[Layer], seed: u64) -> Graph {
    let mut g = Graph::new("soundness");
    let x = g.add_input("x", vec![batch, feat]);
    // (id, dims) of every value the next layer may consume. Reductions
    // drop rank, so rank-2-only layers degrade to Relu on rank-1 input.
    let mut stack: Vec<(NodeId, Vec<usize>)> = vec![(x, vec![batch, feat])];
    for (i, layer) in layers.iter().enumerate() {
        let (cur, dims) = stack.last().cloned().unwrap();
        let rank2 = dims.len() == 2;
        let width = *dims.last().unwrap();
        let lbl = format!("l{i}");
        let next = match layer {
            Layer::Linear { out } if rank2 => {
                let w = g.add_constant(
                    format!("{lbl}_w"),
                    Tensor::randn(vec![*out, width], 0.6, seed ^ (i as u64) << 1),
                );
                let b = g.add_constant(
                    format!("{lbl}_b"),
                    Tensor::randn(vec![*out], 0.3, seed ^ (i as u64) << 2),
                );
                (
                    g.add_op(lbl, Op::Linear, &[cur, w, b]).unwrap(),
                    vec![dims[0], *out],
                )
            }
            Layer::Sigmoid => (g.add_op(lbl, Op::Sigmoid, &[cur]).unwrap(), dims),
            Layer::Tanh => (g.add_op(lbl, Op::Tanh, &[cur]).unwrap(), dims),
            Layer::Gelu => (g.add_op(lbl, Op::Gelu, &[cur]).unwrap(), dims),
            Layer::Softmax => (g.add_op(lbl, Op::Softmax, &[cur]).unwrap(), dims),
            Layer::LogSoftmax => (g.add_op(lbl, Op::LogSoftmax, &[cur]).unwrap(), dims),
            Layer::Scale { factor } => (
                g.add_op(lbl, Op::Scale { factor: *factor }, &[cur])
                    .unwrap(),
                dims,
            ),
            Layer::AddEarlier | Layer::SubEarlier | Layer::MulEarlier | Layer::ConcatEarlier
                if rank2 =>
            {
                let mate = stack
                    .iter()
                    .rev()
                    .find(|(id, d)| *d == dims && *id != cur)
                    .map(|&(id, _)| id)
                    .unwrap_or(cur);
                match layer {
                    Layer::AddEarlier => (g.add_op(lbl, Op::Add, &[cur, mate]).unwrap(), dims),
                    Layer::SubEarlier => (g.add_op(lbl, Op::Sub, &[cur, mate]).unwrap(), dims),
                    Layer::MulEarlier => (g.add_op(lbl, Op::Mul, &[cur, mate]).unwrap(), dims),
                    _ => (
                        g.add_op(lbl, Op::Concat { axis: 1 }, &[cur, mate]).unwrap(),
                        vec![dims[0], width * 2],
                    ),
                }
            }
            Layer::LayerNorm if rank2 => {
                let gamma = g.add_constant(
                    format!("{lbl}_g"),
                    Tensor::randn(vec![width], 0.5, seed ^ (i as u64) << 3),
                );
                let beta = g.add_constant(
                    format!("{lbl}_b"),
                    Tensor::randn(vec![width], 0.5, seed ^ (i as u64) << 4),
                );
                (
                    g.add_op(lbl, Op::LayerNorm { eps: 1e-5 }, &[cur, gamma, beta])
                        .unwrap(),
                    dims,
                )
            }
            Layer::ReduceSum if rank2 => (
                g.add_op(lbl, Op::ReduceSum, &[cur]).unwrap(),
                dims[..1].to_vec(),
            ),
            Layer::ReduceMean if rank2 => (
                g.add_op(lbl, Op::ReduceMean, &[cur]).unwrap(),
                dims[..1].to_vec(),
            ),
            Layer::Lstm { hidden } | Layer::Gru { hidden } if rank2 => {
                // [rows, width] read as a sequence of `rows` steps of batch
                // 1; the layer's value is its last hidden state, [1, hidden].
                let (op, gates) = match layer {
                    Layer::Lstm { .. } => (Op::Lstm, 4),
                    _ => (Op::Gru, 3),
                };
                let seq = dims[0];
                let x3 = g
                    .add_op(
                        format!("{lbl}_seq"),
                        Op::Reshape {
                            shape: vec![seq, 1, width],
                        },
                        &[cur],
                    )
                    .unwrap();
                let w_ih = g.add_constant(
                    format!("{lbl}_wih"),
                    Tensor::randn(vec![gates * hidden, width], 0.6, seed ^ (i as u64) << 5),
                );
                let w_hh = g.add_constant(
                    format!("{lbl}_whh"),
                    Tensor::randn(vec![gates * hidden, *hidden], 0.6, seed ^ (i as u64) << 6),
                );
                let b = g.add_constant(
                    format!("{lbl}_b"),
                    Tensor::randn(vec![gates * hidden], 0.3, seed ^ (i as u64) << 7),
                );
                let hs = g
                    .add_op(format!("{lbl}_rnn"), op, &[x3, w_ih, w_hh, b])
                    .unwrap();
                // Checked directly too, not only through the slice.
                stack.push((hs, vec![seq, 1, *hidden]));
                let hs2 = g
                    .add_op(
                        format!("{lbl}_hs"),
                        Op::Reshape {
                            shape: vec![seq, *hidden],
                        },
                        &[hs],
                    )
                    .unwrap();
                (
                    g.add_op(
                        lbl,
                        Op::SliceRows {
                            start: seq - 1,
                            end: seq,
                        },
                        &[hs2],
                    )
                    .unwrap(),
                    vec![1, *hidden],
                )
            }
            // Relu, plus every rank-2-only layer landing on rank-1.
            _ => (g.add_op(lbl, Op::Relu, &[cur]).unwrap(), dims),
        };
        stack.push(next);
    }
    for (id, _) in &stack {
        if !matches!(g.node(*id).op, Op::Input | Op::Constant) {
            g.mark_output(*id).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core soundness property. Inputs are drawn uniformly from the
    /// same `[lo, hi]` the analyzer is told to assume, so every
    /// abstract claim is checkable against ground truth.
    #[test]
    fn concrete_values_lie_inside_abstract_intervals(
        layers in prop::collection::vec(layer_strategy(), 1..8),
        batch in 1usize..4,
        feat in 1usize..8,
        lo in -8.0f64..0.0,
        span in 0.0f64..16.0,
        seed in any::<u64>(),
    ) {
        let hi = lo + span;
        let g = build_graph(batch, feat, &layers, seed);
        let cfg = AbsintConfig::with_input_range(lo, hi);
        let facts = analyze_values_with(&g, &cfg);

        let mut feeds: HashMap<NodeId, Tensor> = HashMap::new();
        for id in g.input_ids() {
            feeds.insert(
                id,
                Tensor::rand_uniform(g.node(id).shape.clone(), lo as f32, hi as f32, seed ^ 0xfeed),
            );
        }
        let outputs = g.eval(&feeds).unwrap();

        for (&id, tensor) in g.outputs().iter().zip(outputs.iter()) {
            let val = facts.val(id);
            for &v in tensor.data() {
                if v.is_nan() {
                    prop_assert!(
                        val.nan,
                        "node {id} ({}) produced NaN but abstract value {val} claims none",
                        g.node(id).op.name()
                    );
                } else if v.is_infinite() {
                    prop_assert!(
                        val.inf,
                        "node {id} ({}) produced {v} but abstract value {val} claims finite",
                        g.node(id).op.name()
                    );
                } else {
                    let v = v as f64;
                    prop_assert!(
                        val.lo <= v && v <= val.hi,
                        "node {id} ({}): concrete {v:e} escapes abstract {val}",
                        g.node(id).op.name()
                    );
                }
            }
        }
    }
}

/// A padded tap computes `0·w`: with an infinite weight that is NaN, which
/// the convolution transfers must claim. The probe is a 4×4 image in
/// [1, 2], padding 1 and a +inf corner tap, as a convolution and as its
/// depthwise twin; 7 of the 16 outputs put that tap in the padding.
#[test]
fn padded_taps_times_an_infinite_weight_are_nan() {
    for depthwise in [false, true] {
        let mut g = Graph::new("padded_inf");
        let x = g.add_input("x", vec![1, 1, 4, 4]);
        let mut w = vec![0.5f32; 9];
        w[0] = f32::INFINITY;
        let w = g.add_constant("w", Tensor::from_vec(vec![1, 1, 3, 3], w).unwrap());
        let (stride, padding, bias) = (1, 1, false);
        let op = if depthwise {
            Op::DepthwiseConv2d {
                stride,
                padding,
                bias,
            }
        } else {
            Op::Conv2d {
                stride,
                padding,
                bias,
            }
        };
        let y = g.add_op("conv", op, &[x, w]).unwrap();
        g.mark_output(y).unwrap();
        let facts = analyze_values_with(&g, &AbsintConfig::with_input_range(1.0, 2.0));
        let val = facts.val(y);
        assert!(val.nan, "depthwise {depthwise}: {val} claims no NaN");
        let feeds = HashMap::from([(x, Tensor::rand_uniform(vec![1, 1, 4, 4], 1.0, 2.0, 9))]);
        let out = &g.eval(&feeds).unwrap()[0];
        let nans = out.data().iter().filter(|v| v.is_nan()).count();
        assert_eq!(nans, 7, "depthwise {depthwise}: {:?}", out.data());
    }
}
