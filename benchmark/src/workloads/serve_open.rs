//! `serve_open`: independent users — an open loop. Requests arrive on a
//! Poisson schedule at about a third of one worker's capacity, so the
//! latency a user feels is queue wait + the batcher's linger + a small
//! batch of kernel-bound compute. One generator thread sleeps to each
//! due time; one collector thread waits on the handles in order.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use duet_device::SystemModel;
use duet_serve::{ModelSpec, ServeConfig, ServeHandle, ServeServer};

use super::{build_all_variants, cache_misses, feed_seed, ServeTally, Window, Workload, WorkloadSpec};
use crate::oracle::{self, Labeled};
use crate::schedule::{due_time_latency_ms, poisson_schedule};
use crate::trace::{Open, Tracer};

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "serve_open",
    open_loop: true,
    tail_pct: 95.0,
    slo_ms: 100.0,
};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 25.0;
const FEED_SETS: usize = 32;

pub fn model() -> ModelSpec {
    ModelSpec::serving_zoo("wide_deep").expect("wide_deep is in the serving zoo")
}

pub struct ServeOpen {
    server: ServeServer,
    name: String,
    feeds: Vec<Labeled>,
    expected: Vec<Labeled>,
    seed: u64,
    windows: u64,
    next: usize,
}

struct InFlight {
    handle: ServeHandle,
    due_s: f64,
    submit_s: f64,
    feed: usize,
    root: Open,
    request: u64,
}

impl Workload for ServeOpen {
    const SPEC: &'static WorkloadSpec = &SPEC;

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
        ServeOpen {
            server,
            name,
            feeds: Vec::new(),
            expected: Vec::new(),
            seed: 0,
            windows: 0,
            next: 0,
        }
    }

    fn prepare(&mut self, seed: u64) {
        self.seed = seed;
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
        // Each window of a run gets its own arrival times.
        let due = poisson_schedule(
            self.seed.wrapping_mul(0x1_0000).wrapping_add(self.windows),
            RATE_PER_S,
            seconds,
        );
        self.windows += 1;
        let misses_before = cache_misses(&self.server, &self.name);
        let (tx, rx) = mpsc::channel::<InFlight>();
        let start = Instant::now();
        let expected = &self.expected;

        let (mut tally, window_s, generated, gen_late_ms, submit_us) =
            std::thread::scope(|scope| {
                // The collector: wait on each handle in submission order (the
                // server answers one model's requests in order).
                let collector = scope.spawn(move || {
                    let mut tally = ServeTally::default();
                    let mut last_done_s = 0.0;
                    for f in rx {
                        tally.settle(
                            tracer,
                            f.root,
                            f.request,
                            f.handle,
                            &expected[f.feed],
                            |sojourn_s| {
                                (
                                    f.submit_s + sojourn_s,
                                    due_time_latency_ms(f.due_s, f.submit_s, sojourn_s),
                                )
                            },
                        );
                        last_done_s = start.elapsed().as_secs_f64();
                    }
                    (tally, last_done_s)
                });

                // The generator: this thread.
                let mut generated = ServeTally::default();
                let mut late_ms = Vec::with_capacity(due.len());
                let mut submit_us = Vec::new();
                for (request, &due_s) in due.iter().enumerate() {
                    let request = request as u64;
                    let now = start.elapsed().as_secs_f64();
                    if due_s > now {
                        std::thread::sleep(Duration::from_secs_f64(due_s - now));
                    }
                    let feed = self.next % FEED_SETS;
                    self.next += 1;
                    let feeds = self.feeds[feed].clone();
                    let root = tracer.begin("serve_open.request", Open::NONE, request);
                    let submit_at = Instant::now();
                    let submit_s = submit_at.duration_since(start).as_secs_f64();
                    late_ms.push((submit_s - due_s).max(0.0) * 1e3);
                    let submitted = tracer.span("serve.submit", root, request, || {
                        self.server.submit(&self.name, feeds, None)
                    });
                    generated.counts.attempted += 1;
                    match submitted {
                        Ok(handle) => {
                            if tracer.is_on() {
                                submit_us.push(submit_at.elapsed().as_secs_f64() * 1e6);
                            }
                            let sent = tx.send(InFlight {
                                handle,
                                due_s,
                                submit_s,
                                feed,
                                root,
                                request,
                            });
                            assert!(sent.is_ok(), "the collector outlives the generator");
                        }
                        Err(e) => {
                            generated.refused(&e);
                            tracer.end(root);
                        }
                    }
                }
                drop(tx);
                // The window ends with its last answer.
                let (tally, last_done_s) = collector.join().expect("the collector does not panic");
                (tally, last_done_s, generated.counts, late_ms, submit_us)
            });

        tally.counts.attempted = generated.attempted;
        tally.counts.shed += generated.shed;
        tally.counts.errors += generated.errors;
        tally.stats.submit_us = submit_us;
        tally.stats.cache_misses = cache_misses(&self.server, &self.name) - misses_before;
        tally.into_window(window_s, gen_late_ms)
    }

    fn serve_model() -> Option<fn() -> ModelSpec> {
        Some(model)
    }
}
