//! `serve_sat`: the same batcher and executor as `serve_open`, used the
//! opposite way — a closed loop that keeps eight requests outstanding,
//! so every batch is full and the batch-8 engine variant runs through
//! the backlog path. The model is tiny on purpose: numerics are about
//! 15 % of a batch period, so the executor's fixed cost and the
//! server's per-batch overhead — what ROADMAP items 2, 4 and 5 attack —
//! are most of the time here and nowhere else. (With the serving zoo's
//! `mlp` the batch-8 GEMM is ~90 % of the period and hides them.)
//!
//! The whole run is pinned to one CPU (`ONE_CPU`; see `crate::pin` for
//! why): what it times is the software's own fixed cost per batch, not
//! the hypervisor's price for a cross-vCPU wake-up.

use std::collections::VecDeque;
use std::time::Instant;

use duet_device::SystemModel;
use duet_models::{siamese, SiameseConfig};
use duet_serve::{ModelSpec, ServeConfig, ServeHandle, ServeServer};

use super::{build_all_variants, cache_misses, feed_seed, ServeTally, Window, Workload, WorkloadSpec};
use crate::oracle::{self, Labeled};
use crate::trace::{Open, Tracer};

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "serve_sat",
    open_loop: false,
    tail_pct: 99.0,
    slo_ms: 1.0,
};

/// Requests the one generator thread keeps outstanding: one full batch.
pub const OUTSTANDING: usize = 8;
const FEED_SETS: usize = 64;

pub fn model() -> ModelSpec {
    ModelSpec::new("siamese_tiny", |batch| {
        siamese(&SiameseConfig {
            batch,
            ..SiameseConfig::small()
        })
    })
}

pub struct ServeSat {
    server: ServeServer,
    name: String,
    feeds: Vec<Labeled>,
    expected: Vec<Labeled>,
    next: usize,
}

struct InFlight {
    handle: ServeHandle,
    feed: usize,
    root: Open,
    request: u64,
}

impl Workload for ServeSat {
    const SPEC: &'static WorkloadSpec = &SPEC;
    const ONE_CPU: bool = true;

    fn set_up() -> Self {
        let mut server = ServeServer::new(ServeConfig::default());
        let spec = model();
        let name = spec.name().to_string();
        let first = spec.request_feeds(0);
        server.register(spec, SystemModel::paper_server());
        server
            .submit(&name, first, None)
            .and_then(ServeHandle::wait)
            .expect("the first request is answered");
        ServeSat {
            server,
            name,
            feeds: Vec::new(),
            expected: Vec::new(),
            next: 0,
        }
    }

    fn prepare(&mut self, seed: u64) {
        build_all_variants(&self.server, &self.name);
        let cache = self.server.cache(&self.name).expect("model is registered");
        let spec = cache.spec();
        for i in 0..FEED_SETS {
            let feeds = spec.request_feeds(feed_seed(seed, i));
            self.expected
                .push(oracle::expected(spec.reference(), &feeds));
            self.feeds.push(feeds);
        }
    }

    fn window(&mut self, seconds: f64, tracer: &Tracer) -> Window {
        let misses_before = cache_misses(&self.server, &self.name);
        let mut tally = ServeTally::default();
        let mut outstanding: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
        let start = Instant::now();
        loop {
            // Top up to a full batch; after the deadline only drain.
            while outstanding.len() < OUTSTANDING
                && !tally.wedged()
                && start.elapsed().as_secs_f64() < seconds
            {
                let request = tally.counts.attempted;
                tally.counts.attempted += 1;
                let feed = self.next % FEED_SETS;
                self.next += 1;
                let feeds = self.feeds[feed].clone();
                let root = tracer.begin("serve_sat.request", Open::NONE, request);
                let submit_at = Instant::now();
                let submitted = tracer.span("serve.submit", root, request, || {
                    self.server.submit(&self.name, feeds, None)
                });
                match submitted {
                    Ok(handle) => {
                        if tracer.is_on() {
                            tally
                                .stats
                                .submit_us
                                .push(submit_at.elapsed().as_secs_f64() * 1e6);
                        }
                        outstanding.push_back(InFlight {
                            handle,
                            feed,
                            root,
                            request,
                        });
                    }
                    Err(e) => {
                        tally.refused(&e);
                        tracer.end(root);
                    }
                }
            }
            let Some(f) = outstanding.pop_front() else {
                break;
            };
            // The caller's latency is the server's submit → completion
            // sojourn: the generator gets to a handle only after the ones
            // ahead of it, which is its own delay, not the server's.
            tally.settle(
                tracer,
                f.root,
                f.request,
                f.handle,
                &self.expected[f.feed],
                |sojourn_s| (start.elapsed().as_secs_f64(), sojourn_s * 1e3),
            );
        }
        tally.stats.cache_misses = cache_misses(&self.server, &self.name) - misses_before;
        tally.into_window(start.elapsed().as_secs_f64(), Vec::new())
    }

    fn serve_model() -> Option<fn() -> ModelSpec> {
        Some(model)
    }
}
