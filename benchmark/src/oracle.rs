//! Expected outputs come from `Graph::eval` on the *unoptimized* model
//! graph — the reference interpreter, which shares no code with the
//! tapes, the executor or the batcher under test. They are computed
//! once, before any window, for every feed set.

use std::collections::HashMap;

use duet_ir::{Graph, NodeId};
use duet_tensor::Tensor;

/// Largest absolute element difference accepted. The engine's contract
/// is bit-identity or ≤ 4 ulp per kernel; every zoo output is a
/// probability or a small logit, so 1e-4 is tens of ulps of slack and
/// still far below any wrong answer.
pub const TOLERANCE: f32 = 1e-4;

pub type Labeled = HashMap<String, Tensor>;

/// Re-key tensors from `graph`'s node ids to node labels. Labels, not
/// ids, survive optimization and batching.
pub fn by_label(graph: &Graph, tensors: &HashMap<NodeId, Tensor>) -> Labeled {
    tensors
        .iter()
        .map(|(&id, t)| (graph.node(id).label.clone(), t.clone()))
        .collect()
}

/// Feeds for `graph`'s inputs, looked up by label.
pub fn feeds_for(graph: &Graph, feeds: &Labeled) -> HashMap<NodeId, Tensor> {
    graph
        .input_ids()
        .into_iter()
        .map(|id| (id, feeds[&graph.node(id).label].clone()))
        .collect()
}

/// Outputs of the reference interpreter on `model`, by output label.
pub fn expected(model: &Graph, feeds: &Labeled) -> Labeled {
    let values = model
        .eval(&feeds_for(model, feeds))
        .expect("the reference interpreter evaluates every zoo model");
    model
        .outputs()
        .iter()
        .zip(values)
        .map(|(&id, t)| (model.node(id).label.clone(), t))
        .collect()
}

/// Same outputs, same shapes, every element within [`TOLERANCE`].
pub fn matches(got: &Labeled, want: &Labeled) -> bool {
    got.len() == want.len()
        && want.iter().all(|(label, w)| {
            got.get(label).is_some_and(|g| {
                g.approx_eq(w, TOLERANCE) && g.data().iter().all(|v| v.is_finite())
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_rejects_wrong_missing_and_nan_outputs() {
        let want: Labeled = [("y".to_string(), Tensor::zeros(vec![2]))].into();
        assert!(matches(&want.clone(), &want));
        let off: Labeled = [(
            "y".to_string(),
            Tensor::from_vec(vec![2], vec![0.0, 1e-3]).unwrap(),
        )]
        .into();
        assert!(!matches(&off, &want));
        assert!(!matches(&Labeled::new(), &want));
        let nan: Labeled = [(
            "y".to_string(),
            Tensor::from_vec(vec![2], vec![0.0, f32::NAN]).unwrap(),
        )]
        .into();
        assert!(!matches(&nan, &want));
    }
}
