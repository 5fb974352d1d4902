//! Request coalescing: merge batch-1 request feeds into one batch-`B`
//! execution, split the batched outputs back per request.
//!
//! Every kernel in the runtime is row-independent along the batch axis
//! (blocked GEMM rows, per-sample implicit-GEMM convolution, per-row softmax,
//! per-sequence LSTM lanes), so the batched execution computes *exactly*
//! the same floating-point operations in the same order per sample as a
//! batch-1 run — merged outputs are bit-identical to individual runs,
//! which `split_outputs` relies on and the crate's tests pin down.

use std::collections::HashMap;

use duet_ir::{Graph, NodeId};
use duet_tensor::kernels::{concat, split};
use duet_tensor::Tensor;

use crate::spec::batch_axis;
use crate::ServeError;

/// Merge `requests` (batch-1 feeds keyed by input label) into feeds for
/// `graph` (the optimized batch-`requests.len()` graph), keyed by its
/// node ids.
pub fn merge_feeds(
    graph: &Graph,
    requests: &[&HashMap<String, Tensor>],
) -> Result<HashMap<NodeId, Tensor>, ServeError> {
    assert!(!requests.is_empty(), "cannot merge zero requests");
    let mut feeds = HashMap::new();
    for id in graph.input_ids() {
        let node = graph.node(id);
        let axis = batch_axis(&node.label);
        let mut parts: Vec<&Tensor> = Vec::with_capacity(requests.len());
        for r in requests {
            let t = r.get(&node.label).ok_or_else(|| ServeError::MissingInput {
                label: node.label.clone(),
            })?;
            if t.shape().rank() <= axis || t.shape().dim(axis) != 1 {
                return Err(ServeError::BadShape {
                    label: node.label.clone(),
                    msg: format!(
                        "request feed must have batch extent 1 on axis {axis}, got {:?}",
                        t.shape().dims()
                    ),
                });
            }
            parts.push(t);
        }
        let merged = concat(&parts, axis).map_err(|e| ServeError::BadShape {
            label: node.label.clone(),
            msg: e.to_string(),
        })?;
        if merged.shape() != &node.shape {
            return Err(ServeError::BadShape {
                label: node.label.clone(),
                msg: format!(
                    "merged feed {:?} does not match graph input {:?}",
                    merged.shape().dims(),
                    node.shape.dims()
                ),
            });
        }
        feeds.insert(id, merged);
    }
    Ok(feeds)
}

/// Split batched outputs (keyed by node id of the batch-`parts` graph)
/// into one label-keyed map per request. Outputs are batch-major, so the
/// split is always along axis 0.
pub fn split_outputs(
    graph: &Graph,
    outputs: &HashMap<NodeId, Tensor>,
    parts: usize,
) -> Result<Vec<HashMap<String, Tensor>>, ServeError> {
    let mut per_request: Vec<HashMap<String, Tensor>> = vec![HashMap::new(); parts];
    for &id in graph.outputs() {
        let label = graph.node(id).label.clone();
        let t = outputs
            .get(&id)
            .ok_or_else(|| ServeError::Exec(format!("executor returned no output for {label}")))?;
        let chunks = split(t, parts, 0).map_err(|e| ServeError::Exec(e.to_string()))?;
        for (req, chunk) in per_request.iter_mut().zip(chunks) {
            req.insert(label.clone(), chunk);
        }
    }
    Ok(per_request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;

    #[test]
    fn merge_then_eval_then_split_is_bit_identical_to_individual_runs() {
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let g2 = spec.graph_at(2);
        let reqs: Vec<HashMap<String, Tensor>> =
            (0..2).map(|s| spec.request_feeds(100 + s)).collect();
        let refs: Vec<&HashMap<String, Tensor>> = reqs.iter().collect();
        let feeds = merge_feeds(&g2, &refs).unwrap();
        let out = g2.eval(&feeds).unwrap();
        let outputs: HashMap<NodeId, Tensor> = g2.outputs().iter().copied().zip(out).collect();
        let pieces = split_outputs(&g2, &outputs, 2).unwrap();

        let g1 = spec.reference();
        for (req, piece) in reqs.iter().zip(&pieces) {
            let solo_feeds = merge_feeds(g1, &[req]).unwrap();
            let solo = g1.eval(&solo_feeds).unwrap();
            for (&oid, got) in g1.outputs().iter().zip(&solo) {
                let label = &g1.node(oid).label;
                assert_eq!(&piece[label], got, "output {label} not bit-identical");
            }
        }
    }

    #[test]
    fn text_inputs_merge_on_the_sequence_minor_axis() {
        let spec = ModelSpec::serving_zoo("siamese").unwrap();
        let g3 = spec.graph_at(3);
        let reqs: Vec<HashMap<String, Tensor>> = (0..3).map(|s| spec.request_feeds(s)).collect();
        let refs: Vec<&HashMap<String, Tensor>> = reqs.iter().collect();
        let feeds = merge_feeds(&g3, &refs).unwrap();
        for id in g3.input_ids() {
            assert_eq!(feeds[&id].shape(), &g3.node(id).shape);
        }
    }

    #[test]
    fn missing_input_is_reported_by_label() {
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let g = spec.graph_at(1);
        let empty = HashMap::new();
        match merge_feeds(&g, &[&empty]) {
            Err(ServeError::MissingInput { label }) => assert_eq!(label, "x"),
            other => panic!("expected MissingInput, got {other:?}"),
        }
    }

    #[test]
    fn wrong_batch_extent_is_rejected() {
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let g = spec.graph_at(1);
        let mut req = spec.request_feeds(1);
        let fat = Tensor::zeros(vec![2, 256]);
        req.insert("x".into(), fat);
        assert!(matches!(
            merge_feeds(&g, &[&req]),
            Err(ServeError::BadShape { .. })
        ));
    }
}
