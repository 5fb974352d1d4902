//! Chrome-tracing export of execution witnesses.
//!
//! The paper's Fig. 4 is an execution timeline.
//! [`witness_to_chrome_trace`] turns an [`ExecutionWitness`] — simulated
//! or recorded by the executor — into the Chrome `chrome://tracing` /
//! Perfetto JSON array format (one complete event per subgraph, one lane
//! per device), so schedules can be inspected in a real trace viewer:
//!
//! ```text
//! duet trace wide_and_deep trace.json   # then open in ui.perfetto.dev
//! ```
//!
//! The trace is annotated: each subgraph slice carries its index, device
//! and triggering edges in `args`, and every modeled transfer appears as
//! an instant event on a dedicated PCIe lane. All events are serialized
//! with `serde_json`, so arbitrary subgraph names — quotes, newlines,
//! any control character — always produce valid JSON.

use duet_device::DeviceKind;
use serde_json::{json, Value};

use crate::witness::{ExecutionWitness, WitnessEvent};

fn device_tid(device: DeviceKind) -> i64 {
    match device {
        DeviceKind::Cpu => 1,
        DeviceKind::Gpu => 2,
    }
}

/// The PCIe/interconnect lane in witness traces.
const TRANSFER_TID: i64 = 3;

fn metadata_for(pid: i64, process: &str, lanes: &[(i64, &str)]) -> Vec<Value> {
    let mut events = vec![json!({
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": process},
    })];
    for &(tid, name) in lanes {
        events.push(json!({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name},
        }));
    }
    events
}

fn render(events: Vec<Value>) -> String {
    let body: Vec<String> = events
        .iter()
        .map(|e| serde_json::to_string(e).expect("trace event serializes"))
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

/// Render an execution witness as an annotated Chrome trace: one "X"
/// slice per subgraph dispatch (with its index, device and triggering
/// edges in `args`), one instant event per modeled transfer on a
/// dedicated interconnect lane, placed at the consumer's start time (or
/// the end of the run for the final D2H transfers).
pub fn witness_to_chrome_trace(process: &str, witness: &ExecutionWitness) -> String {
    let title = format!("{} ({})", process, witness.source);
    render(witness_events(&title, witness))
}

fn witness_events(title: &str, witness: &ExecutionWitness) -> Vec<Value> {
    let mut events = metadata_for(1, title, &[(1, "CPU"), (2, "GPU"), (TRANSFER_TID, "PCIe")]);
    // Starts indexed by subgraph so Finish and Transfer events can be
    // matched up and transfers anchored to a timestamp.
    let mut start_at: Vec<Option<f64>> = Vec::new();
    for ev in &witness.events {
        if let WitnessEvent::Start { sg, at_us, .. } = ev {
            if start_at.len() <= *sg {
                start_at.resize(*sg + 1, None);
            }
            start_at[*sg] = Some(*at_us);
        }
    }
    let run_end = witness.virtual_latency_us;
    for ev in &witness.events {
        match ev {
            WitnessEvent::Start { .. } => {}
            WitnessEvent::Finish { sg, device, at_us } => {
                let Some(start) = start_at.get(*sg).copied().flatten() else {
                    continue; // malformed witness: finish without start
                };
                let (name, triggers) = witness
                    .events
                    .iter()
                    .find_map(|e| match e {
                        WitnessEvent::Start {
                            sg: s,
                            name,
                            triggers,
                            ..
                        } if s == sg => Some((name.as_str(), triggers)),
                        _ => None,
                    })
                    .expect("start exists");
                let trigger_args: Vec<Value> = triggers
                    .iter()
                    .map(|t| {
                        json!({
                            "node": t.node,
                            "producer": t.producer,
                            "bytes": t.bytes,
                            "transfer_us": t.transfer_us,
                        })
                    })
                    .collect();
                events.push(json!({
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": device_tid(*device),
                    "ts": start,
                    "dur": at_us - start,
                    "args": {"sg": sg, "triggers": trigger_args},
                }));
            }
            WitnessEvent::Transfer {
                node,
                kind,
                bytes,
                time_us,
                consumer,
            } => {
                let ts = consumer
                    .and_then(|c| start_at.get(c).copied().flatten())
                    .unwrap_or(run_end);
                events.push(json!({
                    "name": format!("{kind} node {node}"),
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": TRANSFER_TID,
                    "ts": ts,
                    "args": {
                        "node": node,
                        "bytes": bytes,
                        "time_us": time_us,
                        "consumer": consumer,
                    },
                }));
            }
        }
    }
    events
}

/// Offline-span lane ids within the merged trace's wall-clock process.
fn stage_tid(stage: &str) -> i64 {
    match stage {
        "compile" => 1,
        "profile" => 2,
        "schedule" => 3,
        _ => 4, // serve
    }
}

/// The telemetry lane alongside the runtime's CPU/GPU/PCIe lanes.
const TELEMETRY_TID: i64 = 4;

/// Render the *merged* Perfetto timeline: the witnessed runtime
/// execution (virtual clock, pid 1: CPU/GPU/PCIe lanes plus a telemetry
/// dispatch lane) interleaved with the offline pipeline's telemetry
/// spans (wall clock, pid 2: compile/profile/schedule/serve lanes).
///
/// Executor spans share the witness's virtual clock, so they land *on*
/// the witness slices they describe; offline spans live in a separate
/// process group because their wall-clock timestamps are not comparable
/// to virtual microseconds. Zero-duration spans render as instants.
pub fn merged_perfetto_trace(
    process: &str,
    witness: &ExecutionWitness,
    spans: &[duet_telemetry::Span],
) -> String {
    let mut events = Vec::new();
    events.extend(metadata_for(
        2,
        &format!("{process} offline pipeline (wall clock)"),
        &[
            (stage_tid("compile"), "compile"),
            (stage_tid("profile"), "profile"),
            (stage_tid("schedule"), "schedule"),
            (stage_tid("serve"), "serve"),
        ],
    ));
    events.extend(witness_events(
        &format!("{process} runtime (virtual clock)"),
        witness,
    ));
    events.push(json!({
        "name": "thread_name", "ph": "M", "pid": 1, "tid": TELEMETRY_TID,
        "args": {"name": "dispatch (telemetry)"},
    }));
    for s in spans {
        let (pid, tid) = if s.kind.stage() == "execute" {
            (1, TELEMETRY_TID)
        } else {
            (2, stage_tid(s.kind.stage()))
        };
        let args = if s.is_traced() {
            json!({
                "seq": s.seq,
                "detail": s.detail,
                "arg0": s.arg0,
                "arg1": s.arg1,
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
            })
        } else {
            json!({
                "seq": s.seq,
                "detail": s.detail,
                "arg0": s.arg0,
                "arg1": s.arg1,
            })
        };
        if s.dur_us > 0.0 {
            events.push(json!({
                "name": s.kind.name(),
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": s.start_us,
                "dur": s.dur_us,
                "args": args,
            }));
        } else {
            events.push(json!({
                "name": s.kind.name(),
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": s.start_us,
                "args": args,
            }));
        }
    }
    render(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::{TransferKind, TriggerEdge, WitnessSource};

    #[test]
    fn witness_trace_annotates_slices_and_transfers() {
        let w = ExecutionWitness {
            model: "m".into(),
            source: WitnessSource::Executor,
            virtual_latency_us: 42.0,
            events: vec![
                WitnessEvent::Transfer {
                    node: 0,
                    kind: TransferKind::HostToDevice,
                    bytes: 128.0,
                    time_us: 2.0,
                    consumer: Some(0),
                },
                WitnessEvent::Start {
                    sg: 0,
                    name: "branch \"a\"\n\tcol\u{1}".into(),
                    device: DeviceKind::Gpu,
                    at_us: 2.0,
                    triggers: vec![TriggerEdge {
                        node: 0,
                        producer: None,
                        bytes: 128.0,
                        transfer_us: 2.0,
                    }],
                },
                WitnessEvent::Finish {
                    sg: 0,
                    device: DeviceKind::Gpu,
                    at_us: 40.0,
                },
                WitnessEvent::Transfer {
                    node: 3,
                    kind: TransferKind::DeviceToHost,
                    bytes: 16.0,
                    time_us: 2.0,
                    consumer: None,
                },
            ],
        };
        // Quotes, newlines and control characters in model and subgraph
        // names must still produce valid JSON.
        let json = witness_to_chrome_trace("multi\nline model", &w);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr[0]["args"]["name"], "multi\nline model (executor)");
        let slice = arr.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(slice["name"], "branch \"a\"\n\tcol\u{1}");
        assert_eq!(slice["tid"], 2);
        assert_eq!(slice["ts"], 2.0);
        assert_eq!(slice["dur"], 38.0);
        assert_eq!(slice["args"]["sg"], 0);
        assert_eq!(slice["args"]["triggers"][0]["bytes"], 128.0);
        let instants: Vec<&serde_json::Value> = arr.iter().filter(|e| e["ph"] == "i").collect();
        assert_eq!(instants.len(), 2);
        // H2D anchors at the consumer's start, final D2H at run end.
        assert_eq!(instants[0]["ts"], 2.0);
        assert_eq!(instants[1]["ts"], 42.0);
        assert!(instants.iter().all(|e| e["tid"] == 3));
    }

    #[test]
    fn merged_trace_separates_wall_and_virtual_domains() {
        use duet_telemetry::{Span, SpanKind};
        let w = ExecutionWitness {
            model: "m".into(),
            source: WitnessSource::Executor,
            virtual_latency_us: 42.0,
            events: vec![
                WitnessEvent::Start {
                    sg: 0,
                    name: "sg0".into(),
                    device: DeviceKind::Cpu,
                    at_us: 0.0,
                    triggers: vec![],
                },
                WitnessEvent::Finish {
                    sg: 0,
                    device: DeviceKind::Cpu,
                    at_us: 42.0,
                },
            ],
        };
        let spans = vec![
            Span {
                seq: 0,
                kind: SpanKind::PassCse,
                detail: 2,
                start_us: 1000.0,
                dur_us: 50.0,
                arg0: 0.0,
                arg1: 0.0,
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
            Span {
                seq: 1,
                kind: SpanKind::SchedMoveAccepted,
                detail: 5,
                start_us: 2000.0,
                dur_us: 0.0,
                arg0: 123.0,
                arg1: 1.5,
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
            Span {
                seq: 2,
                kind: SpanKind::ExecSubgraph,
                detail: 0,
                start_us: 0.0,
                dur_us: 42.0,
                arg0: 0.0,
                arg1: 0.0,
                trace_id: 0,
                span_id: 0,
                parent_id: 0,
            },
        ];
        let json = merged_perfetto_trace("m", &w, &spans);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        // Offline spans live in pid 2, runtime (witness + exec spans) in pid 1.
        let cse = arr.iter().find(|e| e["name"] == "cse").unwrap();
        assert_eq!(
            (cse["pid"].as_i64(), cse["ph"].as_str()),
            (Some(2), Some("X"))
        );
        let mv = arr.iter().find(|e| e["name"] == "move_accepted").unwrap();
        assert_eq!(
            (mv["pid"].as_i64(), mv["ph"].as_str()),
            (Some(2), Some("i"))
        );
        assert_eq!(mv["args"]["arg0"], 123.0);
        let exec = arr.iter().find(|e| e["name"] == "subgraph").unwrap();
        assert_eq!(exec["pid"].as_i64(), Some(1));
        assert_eq!(exec["tid"].as_i64(), Some(TELEMETRY_TID));
        // The witness slice and the exec span agree on the virtual clock.
        let slice = arr
            .iter()
            .find(|e| e["name"] == "sg0" && e["ph"] == "X")
            .unwrap();
        assert_eq!(slice["ts"], exec["ts"]);
        assert_eq!(slice["dur"], exec["dur"]);
        // Both process groups are named.
        let names: Vec<&str> = arr
            .iter()
            .filter(|e| e["name"] == "process_name")
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names.iter().any(|n| n.contains("wall clock")));
        assert!(names.iter().any(|n| n.contains("virtual clock")));
    }
}
