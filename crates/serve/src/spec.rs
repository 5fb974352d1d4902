//! Model specifications for serving.
//!
//! A serving deployment needs to *rebuild* its model at different batch
//! sizes: the dynamic batcher coalesces requests into batches, and per
//! Fig. 17 the optimal placement shifts with batch size (GPU occupancy
//! grows with batch), so the plan cache keeps one compiled engine per
//! (model, batch). A [`ModelSpec`] packages the model-family constructor
//! as a `batch -> Graph` closure plus the batch-1 reference graph the
//! server validates requests against.
//!
//! Request tensors are keyed by *input label* (e.g. `"cnn.image"`), not
//! node id — node ids differ between the batch-1 and batch-`B` optimized
//! graphs, labels do not.

use std::collections::HashMap;

use duet_ir::Graph;
use duet_models::{mlp, siamese, wide_and_deep, MlpConfig, SiameseConfig, WideAndDeepConfig};
use duet_tensor::Tensor;

/// The batch axis of an input tensor, by label convention.
///
/// Text inputs are laid out `[seq, batch, embed]` (the LSTM convention
/// used by the zoo's `.text` inputs), so they batch along axis 1; every
/// other input is batch-major and batches along axis 0.
pub fn batch_axis(label: &str) -> usize {
    if label.contains(".text") {
        1
    } else {
        0
    }
}

/// A servable model family: name + graph constructor per batch size.
pub struct ModelSpec {
    name: String,
    build: Box<dyn Fn(usize) -> Graph + Send + Sync>,
    reference: Graph,
}

impl std::fmt::Debug for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl ModelSpec {
    /// Wrap a `batch -> Graph` constructor. The constructor must produce
    /// structurally identical graphs that differ only in batch extent
    /// (same weights, same labels) — that is what makes batched
    /// execution bit-identical to individual batch-1 runs.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(usize) -> Graph + Send + Sync + 'static,
    ) -> Self {
        let reference = build(1);
        ModelSpec {
            name: name.into(),
            build: Box::new(build),
            reference,
        }
    }

    /// Serving-scale members of the model zoo, by name.
    ///
    /// These are deliberately smaller than the paper-scale defaults: an
    /// online server must execute the host-side numerics per request, so
    /// the configs target low-millisecond wall latency while keeping
    /// every heterogeneous branch of the original architecture.
    /// `"wide_deep"` is accepted as an alias of `"wide_and_deep"`.
    pub fn serving_zoo(name: &str) -> Option<ModelSpec> {
        match name {
            "wide_deep" | "wide_and_deep" => Some(ModelSpec::new("wide_and_deep", |batch| {
                wide_and_deep(&WideAndDeepConfig {
                    batch,
                    wide_features: 512,
                    deep_features: 128,
                    ffn_hidden: 512,
                    ffn_layers: 2,
                    seq_len: 16,
                    embed_dim: 64,
                    rnn_hidden: 128,
                    rnn_layers: 1,
                    cnn_depth: 18,
                    image: 48,
                    seed: 0xd0e7,
                })
            })),
            "mlp" => Some(ModelSpec::new("mlp", |batch| {
                mlp(&MlpConfig {
                    batch,
                    input: 256,
                    hidden: 512,
                    layers: 3,
                    classes: 10,
                    seed: 0x317,
                })
            })),
            "siamese" => Some(ModelSpec::new("siamese", |batch| {
                siamese(&SiameseConfig {
                    batch,
                    seq_len: 16,
                    embed_dim: 64,
                    hidden: 256,
                    rnn_layers: 1,
                    seed: 0x51a,
                })
            })),
            _ => None,
        }
    }

    /// Model family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Build the (unoptimized) graph at `batch`.
    pub fn graph_at(&self, batch: usize) -> Graph {
        (self.build)(batch)
    }

    /// The batch-1 reference graph.
    pub fn reference(&self) -> &Graph {
        &self.reference
    }

    /// Deterministic batch-1 request feeds, keyed by input label.
    pub fn request_feeds(&self, seed: u64) -> HashMap<String, Tensor> {
        duet_models::input_feeds(&self.reference, seed)
            .into_iter()
            .map(|(id, t)| (self.reference.node(id).label.clone(), t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_inputs_batch_on_axis_one() {
        assert_eq!(batch_axis("rnn.text"), 1);
        assert_eq!(batch_axis("query.text"), 1);
        assert_eq!(batch_axis("cnn.image"), 0);
        assert_eq!(batch_axis("wide.features"), 0);
    }

    #[test]
    fn zoo_specs_batch_cleanly() {
        for name in ["wide_deep", "mlp", "siamese"] {
            let spec = ModelSpec::serving_zoo(name).unwrap();
            let g1 = spec.reference();
            let g4 = spec.graph_at(4);
            assert_eq!(g1.leading_batch(), Some(1), "{name}");
            assert_eq!(g4.leading_batch(), Some(4), "{name}");
            // Same inputs, identified by the same labels.
            assert_eq!(g1.input_ids().len(), g4.input_ids().len());
            for (&a, &b) in g1.input_ids().iter().zip(&g4.input_ids()) {
                assert_eq!(g1.node(a).label, g4.node(b).label);
            }
        }
    }

    #[test]
    fn alias_resolves_to_wide_and_deep() {
        let spec = ModelSpec::serving_zoo("wide_deep").unwrap();
        assert_eq!(spec.name(), "wide_and_deep");
        assert!(ModelSpec::serving_zoo("nope").is_none());
    }

    #[test]
    fn request_feeds_cover_every_input() {
        let spec = ModelSpec::serving_zoo("wide_deep").unwrap();
        let feeds = spec.request_feeds(3);
        let g = spec.reference();
        assert_eq!(feeds.len(), g.input_ids().len());
        for id in g.input_ids() {
            let label = &g.node(id).label;
            assert!(feeds.contains_key(label), "missing feed for {label}");
        }
        // Text feed is [seq, 1, embed] — batch extent 1 on axis 1.
        assert_eq!(feeds["rnn.text"].shape().dim(1), 1);
    }
}
