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

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use duet_device::DeviceKind;
use duet_ir::NodeId;
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
