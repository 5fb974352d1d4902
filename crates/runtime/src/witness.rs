//! Execution witnesses: ordered event logs of one run.
//!
//! A witness is the runtime-conformance counterpart of a schedule plan:
//! where the plan says what *should* happen, the witness records what
//! *did*. Both the threaded [`HeterogeneousExecutor`] (`run_witnessed`)
//! and the virtual-clock simulator ([`crate::simulate_witnessed`]) can
//! emit one, from the same event builder ([`WitnessEvent::dispatch`]);
//! their unwitnessed runs build no events and take no lock. The
//! `duet-analysis` crate re-prices and checks witnesses against
//! their graph + placed schedule (`D3xx` diagnostics): happens-before
//! order, virtual-clock readiness, per-device monotonicity, transfer
//! accounting and reported latency.
//!
//! Event order in the log is **observed order** — the order the engine
//! actually committed the events, which for the threaded executor is a
//! genuine happens-before trace: a producer records its `Finish` before
//! it triggers any consumer, so a consumer's `Start` appearing earlier
//! in the log than a producer's `Finish` is proof of a synchronization
//! bug, independent of the virtual timestamps.
//!
//! [`HeterogeneousExecutor`]: crate::HeterogeneousExecutor

use duet_device::DeviceKind;
use duet_ir::NodeId;
use serde::{Deserialize, Serialize};

use crate::timeline::{OutputEdge, Timeline};

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

    fn transfer(
        node: NodeId,
        kind: TransferKind,
        bytes: f64,
        time_us: f64,
        consumer: Option<usize>,
    ) -> Self {
        WitnessEvent::Transfer {
            node,
            kind,
            bytes,
            time_us,
            consumer,
        }
    }

    /// The final D2H copy of a GPU-resident graph output.
    pub(crate) fn output_landed(o: &OutputEdge) -> Self {
        Self::transfer(o.node, TransferKind::DeviceToHost, o.bytes, o.d2h_us, None)
    }

    /// What one dispatch of subgraph `sg` over `[start_us, end_us]` puts
    /// on record: a `Transfer` per boundary value that crossed the
    /// interconnect and the `Start` with every triggering edge — and,
    /// apart, the `Finish`, which an engine computing real values commits
    /// only once they exist. Structure and prices are `timeline`'s;
    /// `duet-analysis` re-prices them from the system model on its own.
    pub(crate) fn dispatch(
        timeline: &Timeline,
        devices: &[DeviceKind],
        sg: usize,
        name: &str,
        start_us: f64,
        end_us: f64,
    ) -> (Vec<WitnessEvent>, WitnessEvent) {
        let device = devices[sg];
        let deps = timeline.deps(sg);
        let crossing = deps.iter().filter(|d| d.crosses(devices, device));
        let mut started: Vec<WitnessEvent> = crossing
            .map(|d| {
                let kind = match d.producer {
                    None => TransferKind::HostToDevice,
                    Some(_) => TransferKind::DeviceToDevice,
                };
                Self::transfer(d.node, kind, d.bytes, d.transfer_us, Some(sg))
            })
            .collect();
        let triggers = deps.iter().map(|d| TriggerEdge {
            node: d.node,
            producer: d.producer,
            bytes: d.bytes,
            transfer_us: d.paid_us(devices, device),
        });
        started.push(WitnessEvent::Start {
            sg,
            name: name.to_string(),
            device,
            at_us: start_us,
            triggers: triggers.collect(),
        });
        let at_us = end_us;
        (started, WitnessEvent::Finish { sg, device, at_us })
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

/// Seeded wall-clock delay injection for interleaving stress tests.
///
/// Each executor worker sleeps a uniformly random `0..=max_us`
/// microseconds before dispatching every subgraph, perturbing the real
/// interleaving of the two workers without touching the virtual clocks'
/// inputs. Any ordering the delays can provoke must still satisfy the
/// witness checks and produce bit-identical outputs — that is the
/// stress harness's race detector.
#[derive(Debug, Clone, Copy)]
pub struct DelayInjection {
    pub seed: u64,
    /// Upper bound (inclusive) of each injected sleep, microseconds.
    pub max_us: u64,
}

impl DelayInjection {
    pub fn new(seed: u64, max_us: u64) -> Self {
        DelayInjection { seed, max_us }
    }
}
