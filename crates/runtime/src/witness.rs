//! Execution witnesses: ordered event logs of one run.
//!
//! A witness is the runtime-conformance counterpart of a schedule plan:
//! where the plan says what *should* happen, the witness records what
//! *did*. One observer, [`WitnessLog`], records it on both clocks: the
//! threaded [`HeterogeneousExecutor`] reports to it through `run_observed`,
//! the virtual-clock simulator through [`crate::simulate_witnessed`]; runs
//! that pass no log build no events and take no lock. The `duet-analysis`
//! crate re-prices and checks witnesses against their graph + placed
//! schedule (`D3xx` diagnostics): happens-before order, virtual-clock
//! readiness, per-device monotonicity, transfer accounting and reported
//! latency.
//!
//! Event order in the log is **observed order** — the order the engine
//! actually committed the events, which for the threaded executor is a
//! genuine happens-before trace: a producer's lane reports its `Finish`
//! before it triggers any consumer, so a consumer's `Start` appearing
//! earlier in the log than a producer's `Finish` is proof of a
//! synchronization bug, independent of the virtual timestamps.
//!
//! [`HeterogeneousExecutor`]: crate::HeterogeneousExecutor

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use duet_device::DeviceKind;
use duet_ir::NodeId;
use duet_telemetry::{Span, SpanKind, TraceContext};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::timeline::{Dispatch, Observer, OutputEdge};

/// Which engine produced a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WitnessSource {
    /// The threaded two-lane executor (real numerics + virtual clock).
    Executor,
    /// The deterministic virtual-clock simulator.
    Simulator,
}

impl std::fmt::Display for WitnessSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessSource::Executor => write!(f, "executor"),
            WitnessSource::Simulator => write!(f, "simulator"),
        }
    }
}

/// One boundary value a subgraph consumed when it started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerEdge {
    /// The graph node whose value crossed the subgraph boundary.
    pub node: NodeId,
    /// Producing subgraph index; `None` for a host-resident graph input.
    pub producer: Option<usize>,
    /// Size of the value.
    pub bytes: f64,
    /// Modeled transfer time paid for this edge (0 when no device
    /// boundary was crossed).
    pub transfer_us: f64,
}

/// Which way a value moved across the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferKind {
    /// Host-resident graph input fed to the GPU.
    HostToDevice,
    /// Intermediate value produced on one device, consumed on the other.
    DeviceToDevice,
    /// GPU-resident graph output brought back to the host.
    DeviceToHost,
}

impl std::fmt::Display for TransferKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferKind::HostToDevice => write!(f, "H2D"),
            TransferKind::DeviceToDevice => write!(f, "D2D"),
            TransferKind::DeviceToHost => write!(f, "D2H"),
        }
    }
}

/// One entry of the event log.
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessEvent {
    /// Subgraph `sg` was dispatched on `device` at virtual time `at_us`.
    Start {
        sg: usize,
        name: String,
        device: DeviceKind,
        at_us: f64,
        /// Every boundary value the dispatch waited for.
        triggers: Vec<TriggerEdge>,
    },
    /// Subgraph `sg` retired at virtual time `at_us`.
    Finish {
        sg: usize,
        device: DeviceKind,
        at_us: f64,
    },
    /// A value moved across the interconnect.
    Transfer {
        node: NodeId,
        kind: TransferKind,
        bytes: f64,
        /// Modeled transfer time for `bytes`.
        time_us: f64,
        /// Consuming subgraph; `None` for the final D2H of a graph
        /// output.
        consumer: Option<usize>,
    },
}

// Serde for `WitnessEvent` is hand-written: the derive covers only
// named-field structs and unit enums, and this is a data-carrying enum.
// Each variant becomes an object tagged by a `"type"` key.
impl Serialize for WitnessEvent {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        match self {
            WitnessEvent::Start {
                sg,
                name,
                device,
                at_us,
                triggers,
            } => {
                map.insert("type", serde::Value::String("start".into()));
                map.insert("sg", sg.to_value());
                map.insert("name", name.to_value());
                map.insert("device", device.to_value());
                map.insert("at_us", at_us.to_value());
                map.insert("triggers", triggers.to_value());
            }
            WitnessEvent::Finish { sg, device, at_us } => {
                map.insert("type", serde::Value::String("finish".into()));
                map.insert("sg", sg.to_value());
                map.insert("device", device.to_value());
                map.insert("at_us", at_us.to_value());
            }
            WitnessEvent::Transfer {
                node,
                kind,
                bytes,
                time_us,
                consumer,
            } => {
                map.insert("type", serde::Value::String("transfer".into()));
                map.insert("node", node.to_value());
                map.insert("kind", kind.to_value());
                map.insert("bytes", bytes.to_value());
                map.insert("time_us", time_us.to_value());
                map.insert("consumer", consumer.to_value());
            }
        }
        serde::Value::Object(map)
    }
}

impl Deserialize for WitnessEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeserializeError> {
        fn field<T: Deserialize>(
            obj: &serde::Map,
            key: &str,
        ) -> Result<T, serde::DeserializeError> {
            let v = obj.get(key).ok_or_else(|| {
                serde::DeserializeError::custom(format!("WitnessEvent: missing field `{key}`"))
            })?;
            T::from_value(v)
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeserializeError::custom("expected object for WitnessEvent"))?;
        let tag: String = field(obj, "type")?;
        match tag.as_str() {
            "start" => Ok(WitnessEvent::Start {
                sg: field(obj, "sg")?,
                name: field(obj, "name")?,
                device: field(obj, "device")?,
                at_us: field(obj, "at_us")?,
                triggers: field(obj, "triggers")?,
            }),
            "finish" => Ok(WitnessEvent::Finish {
                sg: field(obj, "sg")?,
                device: field(obj, "device")?,
                at_us: field(obj, "at_us")?,
            }),
            "transfer" => Ok(WitnessEvent::Transfer {
                node: field(obj, "node")?,
                kind: field(obj, "kind")?,
                bytes: field(obj, "bytes")?,
                time_us: field(obj, "time_us")?,
                consumer: field(obj, "consumer")?,
            }),
            other => Err(serde::DeserializeError::custom(format!(
                "unknown WitnessEvent type `{other}`"
            ))),
        }
    }
}

impl WitnessEvent {
    /// The subgraph a `Start`/`Finish` event belongs to.
    pub fn subgraph(&self) -> Option<usize> {
        match self {
            WitnessEvent::Start { sg, .. } | WitnessEvent::Finish { sg, .. } => Some(*sg),
            WitnessEvent::Transfer { .. } => None,
        }
    }
}

/// The complete record of one run: every event in observed order plus
/// the latency the engine reported for the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionWitness {
    /// Name of the model (graph) that was run.
    pub model: String,
    pub source: WitnessSource,
    /// Events in the order the engine committed them.
    pub events: Vec<WitnessEvent>,
    /// The `virtual_latency_us` / `latency_us` the engine reported —
    /// checked against an independent recomputation from the events.
    pub virtual_latency_us: f64,
}

impl ExecutionWitness {
    /// Number of `Start` events (executed subgraph dispatches).
    pub fn dispatch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, WitnessEvent::Start { .. }))
            .count()
    }
}

/// The observer that records an [`ExecutionWitness`], for the simulator's
/// replay and the threaded executor alike: the one place a `Start` is
/// built. Structure and prices come from the dispatch's timeline;
/// `duet-analysis` re-prices them from the system model on its own.
#[derive(Debug, Default)]
pub struct WitnessLog {
    events: Mutex<Vec<WitnessEvent>>,
}

impl WitnessLog {
    /// The witness of the observed run of `model`, carrying the latency
    /// `source` reported for it.
    pub fn seal(self, model: &str, source: WitnessSource, latency_us: f64) -> ExecutionWitness {
        let events = self.events.into_inner();
        ExecutionWitness {
            model: model.to_string(),
            source,
            events: events.unwrap_or_else(PoisonError::into_inner),
            virtual_latency_us: latency_us,
        }
    }

    fn commit(&self, events: impl IntoIterator<Item = WitnessEvent>) {
        let mut log = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        log.extend(events);
    }
}

impl Observer for WitnessLog {
    /// A `Transfer` per boundary value that crossed the interconnect, then
    /// the `Start` with every triggering edge.
    fn dispatched(&self, at: &Dispatch<'_>) {
        let (sg, device) = (at.sg, at.device());
        let deps = at.timeline.deps(sg);
        let triggers = deps.iter().map(|d| TriggerEdge {
            node: d.node,
            producer: d.producer,
            bytes: d.bytes,
            transfer_us: d.paid_us(at.devices, device),
        });
        let start = WitnessEvent::Start {
            sg,
            name: at.name.to_string(),
            device,
            at_us: at.start_us,
            triggers: triggers.collect(),
        };
        let crossing = deps.iter().filter(|d| d.crosses(at.devices, device));
        let transfers = crossing.map(|d| WitnessEvent::Transfer {
            node: d.node,
            kind: match d.producer {
                None => TransferKind::HostToDevice,
                Some(_) => TransferKind::DeviceToDevice,
            },
            bytes: d.bytes,
            time_us: d.transfer_us,
            consumer: Some(sg),
        });
        self.commit(transfers.chain([start]));
    }

    /// The `Finish`, which an engine computing real values commits only
    /// once they exist.
    fn executed(&self, at: &Dispatch<'_>) {
        let (sg, device, at_us) = (at.sg, at.device(), at.end_us);
        self.commit([WitnessEvent::Finish { sg, device, at_us }]);
    }

    /// The final D2H copy of a GPU-resident graph output.
    fn output_landed(&self, o: &OutputEdge) {
        self.commit([WitnessEvent::Transfer {
            node: o.node,
            kind: TransferKind::DeviceToHost,
            bytes: o.bytes,
            time_us: o.d2h_us,
            consumer: None,
        }]);
    }
}

/// The observer that records a run's telemetry spans, on the witness's
/// virtual clock so span order can be checked against its
/// happens-before: one `ExecSubgraph` per executed dispatch (detail =
/// subgraph index, lane = device) and, in a traced run, its
/// `ExecKernel` over the same interval (detail = the subgraph's kernel
/// count); [`SpanLog::seal`] adds the `ExecRun`. Each goes to the global
/// ring as it is recorded. The spans of a traced run (one under a parent
/// other than [`TraceContext::UNTRACED`]) form one linked tree, run →
/// subgraph → kernel, and are also kept for the caller, so the serve
/// flight recorder sees the whole tree even with span recording off.
/// An untraced log keeps nothing and allocates nothing.
#[derive(Debug)]
pub struct SpanLog {
    parent: TraceContext,
    run: TraceContext,
    executed: AtomicU64,
    traced: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log for one run whose span is a child of `parent`.
    pub fn new(parent: TraceContext) -> SpanLog {
        SpanLog {
            parent,
            run: parent.child(),
            executed: AtomicU64::new(0),
            traced: Mutex::new(Vec::new()),
        }
    }

    /// Record the `ExecRun` span of the observed run, which reported
    /// `latency` µs, and return the traced spans numbered by `seq` in
    /// recording order (none for an untraced run).
    pub fn seal(mut self, latency: f64) -> Vec<Span> {
        let (n, ctx, parent) = (*self.executed.get_mut(), self.run, self.parent.span_id);
        let run = Span::linked(SpanKind::ExecRun, n, 0.0, latency, 0.0, ctx, parent);
        self.keep(run);
        let traced = self.traced.into_inner();
        let mut spans = traced.unwrap_or_else(PoisonError::into_inner);
        for (seq, span) in spans.iter_mut().enumerate() {
            span.seq = seq as u64;
        }
        spans
    }

    fn keep(&self, span: Span) {
        span.record();
        if span.is_traced() {
            let mut traced = self.traced.lock().unwrap_or_else(PoisonError::into_inner);
            traced.push(span);
        }
    }
}

impl Observer for SpanLog {
    fn executed(&self, at: &Dispatch<'_>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        let span = |kind, detail, ctx, parent| {
            let (dur_us, lane) = (at.end_us - at.start_us, at.device() as u64 as f64);
            Span::linked(kind, detail, at.start_us, dur_us, lane, ctx, parent)
        };
        let (run, sg) = (self.run, self.run.child());
        self.keep(span(SpanKind::ExecSubgraph, at.sg as u64, sg, run.span_id));
        if sg != TraceContext::UNTRACED {
            let kernels = at.timeline.kernel_count(at.sg) as u64;
            self.keep(span(SpanKind::ExecKernel, kernels, sg.child(), sg.span_id));
        }
    }
}

/// Seeded wall-clock delay injection for interleaving stress tests.
///
/// An observer that sleeps a uniformly random `0..=max_us` microseconds
/// in every `dispatched`, before the numerics, perturbing the real
/// interleaving of the executor's two lanes without touching the virtual
/// clocks' inputs. Each device draws from its own seeded stream, so a
/// lane's delays do not depend on how far the other lane got. Any
/// ordering the delays can provoke must still satisfy the witness checks
/// and produce bit-identical outputs — that is the stress harness's race
/// detector.
#[derive(Debug)]
pub struct DelayInjection {
    /// Upper bound (inclusive) of each injected sleep, microseconds.
    max_us: u64,
    rngs: [Mutex<SmallRng>; 2],
}

impl DelayInjection {
    pub fn new(seed: u64, max_us: u64) -> Self {
        let rng = |device| Mutex::new(SmallRng::seed_from_u64(seed ^ (0xD1CE << device as u64)));
        DelayInjection {
            max_us,
            rngs: DeviceKind::both().map(rng),
        }
    }
}

impl Observer for DelayInjection {
    fn dispatched(&self, at: &Dispatch<'_>) {
        // The guard is a temporary: the lock is released before the sleep.
        let us = self.rngs[at.device() as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gen_range(0..self.max_us + 1);
        std::thread::sleep(Duration::from_micros(us));
    }
}
