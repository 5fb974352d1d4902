//! Integration tests: the live threaded server end to end.
//!
//! The load-bearing property is *bit-identity*: dynamically batched
//! execution must return exactly the bytes a batch-1 run of the same
//! request returns, across models, batch compositions and plan
//! hot-swaps. Everything else (coalescing, admission, drift response)
//! is observable through the metrics the server keeps.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use duet_device::SystemModel;
use duet_serve::loadgen::degraded_gpu;
use duet_serve::{FlightDump, ModelSpec, ServeConfig, ServeError, ServeServer, SloConfig};
use duet_telemetry::SpanKind;
use duet_tensor::Tensor;
use proptest::prelude::*;

fn server_for(model: &str, cfg: ServeConfig) -> ServeServer {
    let mut s = ServeServer::new(cfg);
    s.register(
        ModelSpec::serving_zoo(model).unwrap(),
        SystemModel::paper_server(),
    );
    s
}

/// One shared mlp server for the property test — registration compiles
/// engines, which is too expensive to repeat per proptest case.
fn shared_mlp() -> &'static ServeServer {
    static SERVER: OnceLock<ServeServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        server_for(
            "mlp",
            ServeConfig {
                max_batch: 4,
                linger: Duration::from_micros(500),
                ..ServeConfig::default()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite (b): whatever batch the coalescer happens to form,
    /// every member's outputs are bit-identical to its own batch-1
    /// reference run. Submitting a burst per case makes multi-request
    /// batches common.
    #[test]
    fn batched_outputs_are_bit_identical_to_reference(seed in any::<u64>(), burst in 1usize..=4) {
        let server = shared_mlp();
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                let feeds = spec.request_feeds(seed.wrapping_add(i as u64));
                server.submit("mlp", feeds, None).unwrap()
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait().unwrap();
            let feeds = spec.request_feeds(seed.wrapping_add(i as u64));
            let want = server.reference_run("mlp", &feeds).unwrap();
            prop_assert_eq!(&resp.outputs, &want, "request {} of burst {}", i, burst);
        }
    }
}

/// Bit-identity holds for every zoo model, including the multi-branch
/// wide_and_deep and the axis-1 text-batched siamese.
#[test]
fn every_zoo_model_serves_bit_identical_batches() {
    for model in ["mlp", "siamese", "wide_and_deep"] {
        let server = server_for(
            model,
            ServeConfig {
                max_batch: 4,
                linger: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        );
        let spec = ModelSpec::serving_zoo(model).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                server
                    .submit(model, spec.request_feeds(100 + i), None)
                    .unwrap()
            })
            .collect();
        let mut max_batch = 0;
        for (i, h) in handles.into_iter().enumerate() {
            let resp = h.wait().unwrap();
            max_batch = max_batch.max(resp.batch_size);
            let want = server
                .reference_run(model, &spec.request_feeds(100 + i as u64))
                .unwrap();
            assert_eq!(resp.outputs, want, "{model} request {i}");
        }
        assert!(
            max_batch > 1,
            "{model}: burst never coalesced (max {max_batch})"
        );
    }
}

/// The batcher coalesces a burst submitted within the linger window
/// into one batch on the batch-appropriate engine variant.
#[test]
fn linger_window_coalesces_a_burst() {
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let handles: Vec<_> = (0..4)
        .map(|i| server.submit("mlp", spec.request_feeds(i), None).unwrap())
        .collect();
    for h in handles {
        let resp = h.wait().unwrap();
        assert_eq!(resp.batch_size, 4, "burst should form one full batch");
    }
    let m = server.metrics("mlp").unwrap().snapshot();
    assert_eq!(m.batches_executed, 1);
    assert_eq!(m.batch_histogram, vec![(4, 1)]);
    // The batch-4 engine variant exists; batch-2 was never needed.
    let cached = server.cache("mlp").unwrap().cached_batches();
    assert!(cached.contains(&4), "cached variants: {cached:?}");
}

/// Admission control: a burst far beyond the bounded queue sheds with
/// [`ServeError::QueueFull`] at submit time, and every accepted request
/// still completes.
#[test]
fn bounded_queue_sheds_bursts_beyond_capacity() {
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            queue_cap: 2,
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let mut accepted = Vec::new();
    let mut shed = 0u64;
    for i in 0..64 {
        match server.submit("mlp", spec.request_feeds(i), None) {
            Ok(h) => accepted.push(h),
            Err(ServeError::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed > 0, "64 instant submits must overflow a 2-deep queue");
    for h in accepted {
        h.wait().expect("accepted requests complete");
    }
    let m = server.metrics("mlp").unwrap().snapshot();
    assert_eq!(m.shed_queue_full, shed);
    assert_eq!(m.completed + m.shed_queue_full, 64);
}

/// A malformed request is refused at `submit`, to its own caller: it
/// never reaches the batcher, where its error would have been handed to
/// every request coalesced with it.
#[test]
fn malformed_request_is_refused_at_submit_and_fails_no_batch() {
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 8,
            linger: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let mut feeds = spec.request_feeds(i);
        if i == 3 {
            feeds.insert("x".into(), Tensor::zeros(vec![2, 256]));
            let refused = server.submit("mlp", feeds, None).unwrap_err();
            assert!(matches!(refused, ServeError::BadShape { ref label, .. } if label == "x"));
        } else {
            handles.push((i, server.submit("mlp", feeds, None).unwrap()));
        }
    }
    let missing = server.submit("mlp", Default::default(), None).unwrap_err();
    assert_eq!(missing, ServeError::MissingInput { label: "x".into() });
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (i, h) in handles {
        let resp = h.wait().unwrap_or_else(|e| panic!("request {i}: {e}"));
        let want = server.reference_run("mlp", &spec.request_feeds(i)).unwrap();
        assert_eq!(resp.outputs.len(), want.len());
        for (label, want) in &want {
            assert_eq!(
                bits(&resp.outputs[label]),
                bits(want),
                "request {i} {label}"
            );
        }
    }
    let m = server.metrics("mlp").unwrap().snapshot();
    assert_eq!((m.submitted, m.completed, m.exec_errors), (9, 7, 0));
    assert_eq!(server.metrics("mlp").unwrap().queue_depth(), 0);
}

/// The drift scenario, deterministically: serve on a healthy system,
/// inject a degraded one, keep serving. The feedback loop must fire
/// exactly one hot-swap, and the re-corrected plans must lower the
/// measured per-request virtual latency versus the stale-plan epoch.
/// Uses wide_and_deep — the one zoo model whose placement leans on the
/// GPU enough for GPU degradation to hurt.
#[test]
fn sustained_drift_hot_swaps_exactly_once_and_recovers() {
    let server = server_for("wide_and_deep", ServeConfig::default());
    let model = "wide_and_deep";
    let spec = ModelSpec::serving_zoo(model).unwrap();
    let metrics = server.metrics(model).unwrap();

    let mut seed = 0u64;
    let run_one = |server: &ServeServer, seed: &mut u64| {
        let resp = server
            .submit(model, spec.request_feeds(*seed), None)
            .unwrap()
            .wait()
            .unwrap();
        *seed += 1;
        resp
    };

    // Healthy baseline (epoch 0).
    for _ in 0..3 {
        assert_eq!(run_one(&server, &mut seed).epoch, 0);
    }
    assert!(server.inject_system(model, degraded_gpu(&SystemModel::paper_server())));

    // Serve until the monitor trips; min_samples floors this at 6
    // batches, the cap catches a dead feedback loop.
    let deadline = Instant::now() + Duration::from_secs(120);
    while metrics.snapshot().plan_swaps == 0 {
        assert!(Instant::now() < deadline, "feedback loop never fired");
        run_one(&server, &mut seed);
    }
    // Post-swap epoch: responses now carry epoch 2 and better latency.
    for _ in 0..6 {
        assert_eq!(run_one(&server, &mut seed).epoch, 2);
    }
    // Bursts of two form a batch size no variant exists for yet
    // (registration built 1 and max_batch): it is built after the swap,
    // so it must be planned for the deployed system — a variant planned
    // for the registration-time one runs ~11x over its prediction and
    // trips the monitor into a second swap.
    let cache = server.cache(model).unwrap();
    assert!(!cache.cached_batches().contains(&2));
    for _ in 0..8 {
        let burst = [spec.request_feeds(seed), spec.request_feeds(seed + 1)]
            .map(|feeds| server.submit(model, feeds, None).unwrap());
        seed += 2;
        for handle in burst {
            assert_eq!(handle.wait().unwrap().epoch, 2);
        }
    }
    assert!(
        cache.cached_batches().contains(&2),
        "no burst coalesced into a batch of two"
    );

    let snap = metrics.snapshot();
    assert_eq!(snap.plan_swaps, 1, "exactly one corrective swap");
    let stale = metrics.epoch_service_stats(1).expect("drifted epoch").p50();
    let fresh = metrics
        .epoch_service_stats(2)
        .expect("post-swap epoch")
        .p50();
    assert!(
        fresh < stale,
        "hot-swap must lower measured P50: stale {stale:.1} us, post-swap {fresh:.1} us"
    );
    // Bit-identity survives the swap: plans change placement, not bytes.
    let feeds = spec.request_feeds(seed);
    let resp = server
        .submit(model, feeds.clone(), None)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(resp.outputs, server.reference_run(model, &feeds).unwrap());
}

/// The batch whose observation trips the drift monitor has its outputs
/// and its `sojourn` before the replan starts: its responses go out
/// first. Every response computed under the stale plans (epoch 1) must
/// therefore reach its caller while the model's swap count is still
/// zero; a response held behind `recorrect_all` is received with the
/// swap already booked. Six cached variants make the replan tens of
/// milliseconds, far longer than a woken caller takes to read a counter.
#[test]
fn triggering_batch_is_answered_before_the_replan() {
    let server = server_for("wide_and_deep", ServeConfig::default());
    let model = "wide_and_deep";
    let spec = ModelSpec::serving_zoo(model).unwrap();
    let metrics = server.metrics(model).unwrap();
    let cache = server.cache(model).unwrap();
    for batch in 1..=6 {
        cache.get_or_build(batch);
    }
    assert!(server.inject_system(model, degraded_gpu(&SystemModel::paper_server())));

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut stale_answers = 0;
    for seed in 0u64.. {
        assert!(Instant::now() < deadline, "feedback loop never fired");
        let resp = server
            .submit(model, spec.request_feeds(seed), None)
            .unwrap()
            .wait()
            .unwrap();
        let swaps_at_receipt = metrics.snapshot().plan_swaps;
        if resp.epoch == 2 {
            break;
        }
        assert_eq!(resp.epoch, 1);
        assert_eq!(
            swaps_at_receipt, 0,
            "request {seed} ran under the stale plans and waited out the replan"
        );
        stale_answers += 1;
    }
    assert!(stale_answers > 0, "the swap fired before any drifted batch");
    assert_eq!(metrics.snapshot().plan_swaps, 1);
}

/// Satellite (f)'s conformance hook: a witnessed request through the
/// serving engines passes the D3xx runtime checks.
#[test]
fn witnessed_request_passes_runtime_conformance() {
    let server = server_for("mlp", ServeConfig::default());
    let report = server.witness_check("mlp", 42).unwrap();
    assert!(report.is_clean(), "witness conformance errors:\n{report}");
}

/// Tentpole: one trace id flows admission → batch → subgraph → kernel.
/// The flight ring keeps every completed request's span tree; the batch
/// lead's tree must contain the full parent-linked causal chain under
/// its own trace id.
#[test]
fn trace_context_links_admission_to_kernel() {
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let handles: Vec<_> = (0..4)
        .map(|i| server.submit("mlp", spec.request_feeds(i), None).unwrap())
        .collect();
    let mut trace_ids = Vec::new();
    for h in handles {
        let resp = h.wait().unwrap();
        assert_ne!(resp.trace_id, 0, "every response carries a trace id");
        trace_ids.push(resp.trace_id);
    }
    trace_ids.sort_unstable();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), 4, "trace ids are per-request unique");

    let traces = server.flight("mlp").unwrap().traces();
    assert_eq!(traces.len(), 4, "flight ring holds all completed requests");
    // At least one trace (the batch lead's) carries the unbroken chain
    // request -> batch -> run -> subgraph -> kernel under its trace id.
    let full_chain = traces.iter().any(|t| {
        let own = |k: SpanKind| {
            t.spans
                .iter()
                .filter(move |s| s.kind == k && s.trace_id == t.trace_id)
        };
        own(SpanKind::ServeRequest).any(|req| {
            own(SpanKind::ServeBatch)
                .filter(|b| b.parent_id == req.span_id)
                .any(|b| {
                    own(SpanKind::ExecRun)
                        .filter(|r| r.parent_id == b.span_id)
                        .any(|r| {
                            own(SpanKind::ExecSubgraph)
                                .filter(|sg| sg.parent_id == r.span_id)
                                .any(|sg| {
                                    own(SpanKind::ExecKernel).any(|kn| kn.parent_id == sg.span_id)
                                })
                        })
                })
        })
    });
    assert!(
        full_chain,
        "no trace carries the admission->batch->subgraph->kernel chain"
    );
    // Every member decomposes: segments sum to the measured sojourn.
    for t in &traces {
        let sum = t.attribution.total_us();
        assert!(
            (sum - t.sojourn_us).abs() <= t.sojourn_us.max(1.0) * 0.05,
            "attribution sums to {sum:.1} us but sojourn is {:.1} us",
            t.sojourn_us
        );
    }
}

/// The server records a batch's span, the metrics record its metrics:
/// the telemetry ring holds exactly one `ServeBatch` span per executed
/// batch, and it is the linked one.
#[test]
fn ring_holds_one_batch_span_per_executed_batch() {
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let trace_ids: Vec<u64> = (0..3)
        .map(|i| {
            let h = server.submit("mlp", spec.request_feeds(i), None).unwrap();
            h.wait().unwrap().trace_id
        })
        .collect();
    let batches = server.metrics("mlp").unwrap().snapshot().batches_executed;
    assert_eq!(batches, 3);
    // The ring is process-wide and other tests serve concurrently: count
    // this server's batches by trace id, and require that nobody's batch
    // shows up a second time as an unlinked span.
    let ring: Vec<_> = duet_telemetry::spans()
        .into_iter()
        .filter(|s| s.kind == SpanKind::ServeBatch)
        .collect();
    let own = ring
        .iter()
        .filter(|s| trace_ids.contains(&s.trace_id))
        .count();
    assert_eq!(own as u64, batches, "one ServeBatch span per batch");
    assert!(
        ring.iter().all(|s| s.trace_id != 0),
        "an untraced ServeBatch span duplicates a linked one"
    );
}

/// Satellite (d): a synthetic SLO breach produces exactly one flight
/// dump, the dump contains the breaching trace, and the latch holds
/// against further anomalies.
#[test]
fn slo_breach_writes_exactly_one_dump_with_breaching_trace() {
    let dir = std::env::temp_dir().join(format!(
        "duet-serve-slo-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = server_for(
        "mlp",
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            // Sub-microsecond SLO: the first completed request breaches
            // and a 1-of-1 window burns immediately.
            slo: Some(SloConfig {
                limit_us: 0.001,
                window: 1,
                burn_threshold: 1,
            }),
            flight_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let spec = ModelSpec::serving_zoo("mlp").unwrap();
    let first = server
        .submit("mlp", spec.request_feeds(7), None)
        .unwrap()
        .wait()
        .unwrap();
    // The dump (including its witnessed replay run) happens on the
    // worker thread; give it a bounded moment to land.
    let flight = server.flight("mlp").unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let dump_path = loop {
        if let Some(p) = flight.last_dump() {
            break p;
        }
        assert!(Instant::now() < deadline, "SLO burn never produced a dump");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Further breaches are latched: still exactly one dump directory.
    for i in 0..4 {
        server
            .submit("mlp", spec.request_feeds(100 + i), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert_eq!(entries.len(), 1, "exactly one dump directory");
    assert_eq!(entries[0].path(), dump_path);

    let dump = FlightDump::load(&dump_path).expect("dump loads");
    assert_eq!(dump.rule(), Some("slo_burn"));
    assert_eq!(dump.model(), Some("mlp"));
    assert_eq!(dump.trigger_trace_id(), first.trace_id);
    assert!(
        dump.traces.iter().any(|t| t.trace_id == first.trace_id),
        "dump must contain the breaching trace"
    );
    assert!(
        dump.witness.is_some(),
        "dump carries a witnessed replay for duet-lint trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
