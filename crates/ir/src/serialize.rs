//! Binary model serialization.
//!
//! DUET's input is "a pre-compiled DNN model" (§IV): graphs arrive as
//! artifacts, not as Rust code. This module defines that artifact — a
//! compact little-endian binary format holding the full graph structure
//! *and* the weights, so a model can be built once, saved, and served by
//! a process that never links the model zoo.
//!
//! Layout (version 1):
//!
//! ```text
//! magic "DUET" | u16 version | name | u32 node count
//! per node : label | u8 op tag | op attributes | shape | u32 input ids…
//! outputs  : u32 count | u32 ids…
//! params   : u32 count | (u32 node id | u64 byte len | f32 LE data)…
//! ```
//!
//! Strings are `u32 length + UTF-8`; shapes are `u8 rank + u64 dims`.

use duet_tensor::{Shape, Tensor};

use crate::graph::{Graph, NodeId};
use crate::op::Op;

const MAGIC: &[u8; 4] = b"DUET";
const VERSION: u16 = 1;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a DUET model file.
    BadMagic,
    /// Format version this build cannot read.
    UnsupportedVersion(u16),
    /// Buffer ended mid-record.
    Truncated,
    /// Unknown operator tag.
    UnknownOp(u8),
    /// Payload not valid UTF-8.
    BadString,
    /// Structure invalid after reconstruction (dangling ids, arity, …).
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a DUET model (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::Truncated => write!(f, "model file truncated"),
            DecodeError::UnknownOp(t) => write!(f, "unknown operator tag {t}"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in model file"),
            DecodeError::Invalid(msg) => write!(f, "invalid model structure: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend((s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_shape(buf: &mut Vec<u8>, shape: &Shape) {
    buf.push(shape.rank() as u8);
    for &d in shape.dims() {
        buf.extend((d as u64).to_le_bytes());
    }
}

fn put_op(buf: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Input => buf.push(0),
        Op::Constant => buf.push(1),
        Op::Linear => buf.push(2),
        Op::MatMul => buf.push(3),
        Op::Conv2d {
            stride,
            padding,
            bias,
        } => {
            buf.push(4);
            buf.extend((*stride as u32).to_le_bytes());
            buf.extend((*padding as u32).to_le_bytes());
            buf.push(u8::from(*bias));
        }
        Op::BatchNorm2d => buf.push(5),
        Op::MaxPool2d { window, stride } => {
            buf.push(6);
            buf.extend((*window as u32).to_le_bytes());
            buf.extend((*stride as u32).to_le_bytes());
        }
        Op::AvgPool2d { window, stride } => {
            buf.push(7);
            buf.extend((*window as u32).to_le_bytes());
            buf.extend((*stride as u32).to_le_bytes());
        }
        Op::GlobalAvgPool2d => buf.push(8),
        Op::Lstm => buf.push(9),
        Op::Gru => buf.push(10),
        Op::Mha { heads } => {
            buf.push(11);
            buf.extend((*heads as u32).to_le_bytes());
        }
        Op::LayerNorm { eps } => {
            buf.push(12);
            buf.extend(eps.to_le_bytes());
        }
        Op::Softmax => buf.push(13),
        Op::LogSoftmax => buf.push(14),
        Op::Relu => buf.push(15),
        Op::Sigmoid => buf.push(16),
        Op::Tanh => buf.push(17),
        Op::Gelu => buf.push(18),
        Op::Add => buf.push(19),
        Op::Sub => buf.push(20),
        Op::Mul => buf.push(21),
        Op::BiasAdd => buf.push(22),
        Op::Scale { factor } => {
            buf.push(23);
            buf.extend(factor.to_le_bytes());
        }
        Op::Concat { axis } => {
            buf.push(24);
            buf.extend((*axis as u32).to_le_bytes());
        }
        Op::Embedding => buf.push(25),
        Op::Reshape { shape } => {
            buf.push(26);
            buf.push(shape.len() as u8);
            for &d in shape {
                buf.extend((d as u64).to_le_bytes());
            }
        }
        Op::Transpose2d => buf.push(27),
        Op::ReduceSum => buf.push(28),
        Op::ReduceMean => buf.push(29),
        Op::ReduceMax => buf.push(30),
        Op::SliceRows { start, end } => {
            buf.push(31);
            buf.extend((*start as u64).to_le_bytes());
            buf.extend((*end as u64).to_le_bytes());
        }
        Op::DepthwiseConv2d {
            stride,
            padding,
            bias,
        } => {
            buf.push(32);
            buf.extend((*stride as u32).to_le_bytes());
            buf.extend((*padding as u32).to_le_bytes());
            buf.push(u8::from(*bias));
        }
    }
}

/// Serialize a graph (structure + weights) to bytes.
pub fn encode(graph: &Graph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + graph.param_bytes() + graph.len() * 32);
    buf.extend_from_slice(MAGIC);
    buf.extend(VERSION.to_le_bytes());
    put_str(&mut buf, &graph.name);
    buf.extend((graph.len() as u32).to_le_bytes());
    for node in graph.nodes() {
        put_str(&mut buf, &node.label);
        put_op(&mut buf, &node.op);
        put_shape(&mut buf, &node.shape);
        buf.extend((node.inputs.len() as u32).to_le_bytes());
        for &i in &node.inputs {
            buf.extend((i as u32).to_le_bytes());
        }
    }
    buf.extend((graph.outputs().len() as u32).to_le_bytes());
    for &o in graph.outputs() {
        buf.extend((o as u32).to_le_bytes());
    }
    let params: Vec<(NodeId, &Tensor)> = graph
        .nodes()
        .iter()
        .filter_map(|n| graph.param(n.id).map(|t| (n.id, t)))
        .collect();
    buf.extend((params.len() as u32).to_le_bytes());
    for (id, t) in params {
        buf.extend((id as u32).to_le_bytes());
        buf.extend(((t.len() * 4) as u64).to_le_bytes());
        for &v in t.data() {
            buf.extend(v.to_le_bytes());
        }
    }
    buf
}

/// Smallest encoded node: empty label, bare op tag, rank 0, no inputs.
const MIN_NODE_BYTES: usize = 4 + 1 + 1 + 4;
/// Encoded node id.
const ID_BYTES: usize = 4;
/// Smallest encoded param: node id and byte length, no data.
const MIN_PARAM_BYTES: usize = 4 + 8;
/// The most `f32`s one allocation holds: decoded shapes stay within it, so
/// no later step overflows multiplying their dims.
const MAX_ELEMENTS: usize = isize::MAX as usize / 4;

/// Little-endian cursor over a model file. Every read checks the bytes
/// left before it takes or allocates, so a corrupt file is an error.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<usize, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    fn u64(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(u64::from_le_bytes(self.array()?))
            .map_err(|_| DecodeError::Invalid("value exceeds the address space".into()))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A record count, `Truncated` before anything is allocated for it if
    /// the rest of the file cannot hold that many `min_bytes` records.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        if n > self.buf.len() / min_bytes {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| DecodeError::BadString)
    }

    /// `u8 rank + u64 dims`, for a shape or a reshape target.
    fn dims(&mut self) -> Result<Vec<usize>, DecodeError> {
        let rank = self.u8()?;
        let dims: Vec<usize> = (0..rank).map(|_| self.u64()).collect::<Result<_, _>>()?;
        // Zero dims count as one, so no single dim escapes the bound.
        let elements = dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d.max(1)));
        match elements {
            Some(n) if n <= MAX_ELEMENTS => Ok(dims),
            _ => Err(DecodeError::Invalid("shape larger than any tensor".into())),
        }
    }

    fn op(&mut self) -> Result<Op, DecodeError> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => Op::Input,
            1 => Op::Constant,
            2 => Op::Linear,
            3 => Op::MatMul,
            4 => Op::Conv2d {
                stride: self.u32()?,
                padding: self.u32()?,
                bias: self.u8()? != 0,
            },
            5 => Op::BatchNorm2d,
            6 => Op::MaxPool2d {
                window: self.u32()?,
                stride: self.u32()?,
            },
            7 => Op::AvgPool2d {
                window: self.u32()?,
                stride: self.u32()?,
            },
            8 => Op::GlobalAvgPool2d,
            9 => Op::Lstm,
            10 => Op::Gru,
            11 => Op::Mha { heads: self.u32()? },
            12 => Op::LayerNorm { eps: self.f32()? },
            13 => Op::Softmax,
            14 => Op::LogSoftmax,
            15 => Op::Relu,
            16 => Op::Sigmoid,
            17 => Op::Tanh,
            18 => Op::Gelu,
            19 => Op::Add,
            20 => Op::Sub,
            21 => Op::Mul,
            22 => Op::BiasAdd,
            23 => Op::Scale {
                factor: self.f32()?,
            },
            24 => Op::Concat { axis: self.u32()? },
            25 => Op::Embedding,
            26 => Op::Reshape {
                shape: self.dims()?,
            },
            27 => Op::Transpose2d,
            28 => Op::ReduceSum,
            29 => Op::ReduceMean,
            30 => Op::ReduceMax,
            31 => Op::SliceRows {
                start: self.u64()?,
                end: self.u64()?,
            },
            32 => Op::DepthwiseConv2d {
                stride: self.u32()?,
                padding: self.u32()?,
                bias: self.u8()? != 0,
            },
            other => return Err(DecodeError::UnknownOp(other)),
        })
    }
}

/// Decode a graph from bytes. The graph is rebuilt through the validated
/// construction API, so malformed files fail with [`DecodeError::Invalid`]
/// rather than producing a broken graph.
pub fn decode(data: &[u8]) -> Result<Graph, DecodeError> {
    let mut r = Reader { buf: data };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u16::from_le_bytes(r.array()?);
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let name = r.string()?;
    let node_count = r.count(MIN_NODE_BYTES)?;

    struct RawNode {
        label: String,
        op: Op,
        shape: Shape,
        inputs: Vec<NodeId>,
    }
    let mut raw = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let label = r.string()?;
        let op = r.op()?;
        let shape = Shape::new(r.dims()?);
        let n_inputs = r.count(ID_BYTES)?;
        let inputs = (0..n_inputs).map(|_| r.u32()).collect::<Result<_, _>>()?;
        raw.push(RawNode {
            label,
            op,
            shape,
            inputs,
        });
    }
    let n_outputs = r.count(ID_BYTES)?;
    let outputs: Vec<NodeId> = (0..n_outputs).map(|_| r.u32()).collect::<Result<_, _>>()?;
    let n_params = r.count(MIN_PARAM_BYTES)?;
    let mut params: std::collections::HashMap<NodeId, Tensor> =
        std::collections::HashMap::with_capacity(n_params);
    for _ in 0..n_params {
        let id = r.u32()?;
        let bytes = r.u64()?;
        if bytes % 4 != 0 {
            return Err(DecodeError::Invalid(
                "param byte length not f32-aligned".into(),
            ));
        }
        let (values, _) = r.take(bytes)?.as_chunks();
        let data = values.iter().map(|&v| f32::from_le_bytes(v)).collect();
        let shape = raw
            .get(id)
            .map(|rn| rn.shape.clone())
            .ok_or_else(|| DecodeError::Invalid(format!("param for unknown node {id}")))?;
        let t = Tensor::from_vec(shape, data).map_err(|e| DecodeError::Invalid(e.to_string()))?;
        params.insert(id, t);
    }

    // Rebuild through the validated API.
    let mut g = Graph::new(name);
    for (id, rn) in raw.into_iter().enumerate() {
        match rn.op {
            Op::Input => {
                g.add_input(rn.label, rn.shape);
            }
            Op::Constant => {
                let t = params.remove(&id).ok_or_else(|| {
                    DecodeError::Invalid(format!("constant {id} missing payload"))
                })?;
                if t.shape() != &rn.shape {
                    return Err(DecodeError::Invalid(format!(
                        "constant {id} shape mismatch"
                    )));
                }
                g.add_constant(rn.label, t);
            }
            op => {
                let new_id = g
                    .add_op(rn.label, op, &rn.inputs)
                    .map_err(|e| DecodeError::Invalid(e.to_string()))?;
                if g.node(new_id).shape != rn.shape {
                    return Err(DecodeError::Invalid(format!(
                        "node {id}: stored shape disagrees with inference"
                    )));
                }
            }
        }
    }
    for o in outputs {
        g.mark_output(o)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
    }
    g.validate()
        .map_err(|e| DecodeError::Invalid(e.to_string()))?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::collections::HashMap;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new("sample", 3);
        let x = b.input("x", vec![1, 3, 8, 8]);
        let c = b.conv_bn_relu("conv", x, 4, 3, 1, 1, true).unwrap();
        let gap = b.op("gap", Op::GlobalAvgPool2d, &[c]).unwrap();
        let y = b.dense("head", gap, 2, None).unwrap();
        let sm = b.op("softmax", Op::Softmax, &[y]).unwrap();
        b.finish(&[sm]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure_and_weights() {
        let g = sample();
        let bytes = encode(&g);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.name, g.name);
        assert_eq!(back.outputs(), g.outputs());
        for n in g.nodes() {
            assert_eq!(back.node(n.id).op, n.op);
            assert_eq!(back.node(n.id).shape, n.shape);
            assert_eq!(back.node(n.id).inputs, n.inputs);
            if let Some(p) = g.param(n.id) {
                assert_eq!(back.param(n.id).unwrap(), p, "weights bit-identical");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_evaluation() {
        let g = sample();
        let back = decode(&encode(&g)).unwrap();
        let x = g.input_ids()[0];
        let input = Tensor::randn(vec![1, 3, 8, 8], 1.0, 5);
        let a = g.eval(&HashMap::from([(x, input.clone())])).unwrap();
        let b = back.eval(&HashMap::from([(x, input)])).unwrap();
        assert_eq!(a[0], b[0], "bit-identical outputs after reload");
    }

    #[test]
    fn all_op_attributes_roundtrip() {
        // Exercise every attribute-bearing variant.
        let mut b = GraphBuilder::new("ops", 1);
        let x = b.input("x", vec![4, 6]);
        let sl = b
            .op("slice", Op::SliceRows { start: 1, end: 3 }, &[x])
            .unwrap();
        let rs = b
            .op("reshape", Op::Reshape { shape: vec![3, 4] }, &[sl])
            .unwrap();
        let sc = b.op("scale", Op::Scale { factor: -2.5 }, &[rs]).unwrap();
        let g1 = b.finish(&[sc]).unwrap();
        let g2 = decode(&encode(&g1)).unwrap();
        assert_eq!(g2.node(sl).op, Op::SliceRows { start: 1, end: 3 });
        assert_eq!(g2.node(sc).op, Op::Scale { factor: -2.5 });
    }

    #[test]
    fn rejects_bad_magic_and_wrong_version() {
        assert_eq!(decode(b"DU").unwrap_err(), DecodeError::Truncated);
        assert_eq!(decode(b"NOPE").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(decode(b"XXXXxxxxxxxx").unwrap_err(), DecodeError::BadMagic);
        let mut data = encode(&sample());
        data[4] = 99;
        assert_eq!(
            decode(&data).unwrap_err(),
            DecodeError::UnsupportedVersion(99)
        );
    }

    /// A count the rest of the file cannot back is `Truncated`, not an
    /// allocation of the claimed size.
    #[test]
    fn counts_the_file_cannot_back_are_truncated() {
        let mut header = MAGIC.to_vec();
        header.extend(VERSION.to_le_bytes());
        header.extend(0u32.to_le_bytes()); // empty name
        let mut nodes = header.clone();
        nodes.extend(u32::MAX.to_le_bytes());
        assert_eq!(nodes.len(), 14);
        assert_eq!(decode(&nodes).unwrap_err(), DecodeError::Truncated);
        // No nodes, no outputs, and one param for node 0 claiming 2^62
        // bytes.
        let mut param = header;
        for field in [0u32, 0, 1, 0] {
            param.extend(field.to_le_bytes());
        }
        param.extend((1u64 << 62).to_le_bytes());
        assert_eq!(decode(&param).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        let good = encode(&sample());
        for len in 0..good.len() {
            assert!(decode(&good[..len]).is_err(), "{len}-byte prefix decoded");
        }
    }

    /// Whatever one corrupted byte makes of the file, decoding returns:
    /// each of its bits flipped alone, and all eight at once.
    #[test]
    fn every_single_byte_flip_returns() {
        let good = encode(&sample());
        for at in 0..good.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([u8::MAX]) {
                let mut bad = good.clone();
                bad[at] ^= flip;
                let _ = decode(&bad);
            }
        }
    }

    #[test]
    fn big_model_roundtrips() {
        use duet_tensor::Tensor as T;
        let mut g = Graph::new("big");
        let table = g.add_constant("table", T::randn(vec![100, 32], 1.0, 1));
        let ids = g.add_input("ids", vec![16]);
        let e = g.add_op("embed", Op::Embedding, &[table, ids]).unwrap();
        g.mark_output(e).unwrap();
        let back = decode(&encode(&g)).unwrap();
        assert_eq!(back.param_bytes(), g.param_bytes());
    }
}
