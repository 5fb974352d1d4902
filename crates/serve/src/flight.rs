//! Anomaly-triggered flight recorder: a bounded, always-on ring of the
//! most recently completed request span trees, dumped to disk exactly
//! once when an anomaly rule fires.
//!
//! The recorder is deliberately cheap enough to leave on in production:
//! recording a completed request is one `VecDeque` push under a short
//! mutex (the span tree was already built for the response), and the
//! ring is bounded (64 traces per served model). What makes it a
//! *flight recorder* rather than a log is the trigger discipline:
//!
//! * **Anomaly rules** ([`AnomalyRule`]) — SLO burn (a sliding window of
//!   sojourn breaches crossed its threshold), a shed event (admission
//!   queue full or SLA expiry), a drift-triggered plan hot-swap, or the
//!   D5xx model-check gate refusing a swap.
//! * **Dump-once latch** — the first rule to fire wins; every later
//!   firing only increments `duet_insight_dumps_suppressed_total`. A
//!   crashed-loop server therefore produces one forensic bundle, not a
//!   disk full of them.
//! * **Self-contained bundle** — the dump directory holds the last N
//!   traces, a full `/metrics` snapshot, the serving plan + fingerprint,
//!   the deployed system model and a freshly recorded execution witness,
//!   so `duet insight` and `duet trace --dump` can replay it with
//!   no access to the original process.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use duet_telemetry::registry as tm;
use duet_telemetry::{Span, SpanKind};
use serde_json::{json, Value};

use crate::insight::Attribution;

/// Why a flight dump was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyRule {
    /// The SLO monitor's sliding breach window crossed its threshold.
    SloBurn,
    /// A request was shed (admission queue full or SLA expiry).
    Shed,
    /// Confirmed drift hot-swapped at least one cached plan.
    DriftSwap,
    /// The D5xx model-check gate refused a re-corrected plan.
    SwapRefused,
}

impl AnomalyRule {
    /// The `rule` label value on `duet_insight_dumps_total`, also the
    /// dump directory suffix.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyRule::SloBurn => "slo_burn",
            AnomalyRule::Shed => "shed",
            AnomalyRule::DriftSwap => "drift_swap",
            AnomalyRule::SwapRefused => "swap_refused",
        }
    }

    fn counter(&self) -> &'static duet_telemetry::Counter {
        match self {
            AnomalyRule::SloBurn => &tm::INSIGHT_DUMPS_SLO_BURN,
            AnomalyRule::Shed => &tm::INSIGHT_DUMPS_SHED,
            AnomalyRule::DriftSwap => &tm::INSIGHT_DUMPS_DRIFT_SWAP,
            AnomalyRule::SwapRefused => &tm::INSIGHT_DUMPS_SWAP_REFUSED,
        }
    }
}

impl std::fmt::Display for AnomalyRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Sojourn SLO: breach when one request exceeds `limit_us`; *burn* when
/// `burn_threshold` of the last `window` requests breached.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Per-request wall-clock sojourn limit, microseconds.
    pub limit_us: f64,
    /// Sliding window length, requests.
    pub window: usize,
    /// Breaches within the window that constitute a burn.
    pub burn_threshold: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            limit_us: 100_000.0,
            window: 64,
            burn_threshold: 8,
        }
    }
}

/// What one observed sojourn did to the SLO state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloVerdict {
    /// This request exceeded the limit.
    pub breached: bool,
    /// The sliding window is at or past the burn threshold.
    pub burning: bool,
}

/// Sliding-window breach counter over completed request sojourns.
#[derive(Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    recent: VecDeque<bool>,
    breaches_in_window: usize,
}

impl SloMonitor {
    pub fn new(cfg: SloConfig) -> Self {
        SloMonitor {
            cfg,
            recent: VecDeque::new(),
            breaches_in_window: 0,
        }
    }

    /// Observe one completed request's sojourn.
    pub fn observe(&mut self, sojourn_us: f64) -> SloVerdict {
        let breached = sojourn_us > self.cfg.limit_us;
        self.recent.push_back(breached);
        if breached {
            self.breaches_in_window += 1;
        }
        while self.recent.len() > self.cfg.window.max(1) {
            if self.recent.pop_front() == Some(true) {
                self.breaches_in_window -= 1;
            }
        }
        SloVerdict {
            breached,
            burning: self.breaches_in_window >= self.cfg.burn_threshold.max(1),
        }
    }
}

/// One completed request's forensic record: identity, attribution and
/// the full causal span tree (admission → batch → subgraph → kernel).
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub trace_id: u64,
    pub model: String,
    /// Size of the batch the request was coalesced into.
    pub batch: usize,
    /// Metrics epoch the request completed in.
    pub epoch: usize,
    /// Fingerprint of the serving plan that executed the batch.
    pub plan_fingerprint: u64,
    /// Wall-clock sojourn, microseconds.
    pub sojourn_us: f64,
    pub attribution: Attribution,
    /// The request's span tree. Serve-stage spans are wall-clock
    /// microseconds; executor spans are virtual microseconds.
    pub spans: Vec<Span>,
}

// Span lives in dependency-free `duet-telemetry`, so its JSON codec
// lives here with the dump format that needs it.

/// Encode one span for `traces.json`.
pub fn span_to_value(s: &Span) -> Value {
    json!({
        "seq": s.seq,
        "kind": s.kind as u64,
        "name": s.kind.name(),
        "detail": s.detail,
        "start_us": s.start_us,
        "dur_us": s.dur_us,
        "arg0": s.arg0,
        "arg1": s.arg1,
        "trace_id": s.trace_id,
        "span_id": s.span_id,
        "parent_id": s.parent_id,
    })
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field `{key}` missing or not a number"))
}

/// An integer field, read as one: through `f64` a fingerprint or an id
/// above 2⁵³ would lose its low bits.
fn int(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("field `{key}` missing or not an unsigned integer"))
}

/// Decode one span of `traces.json`.
pub fn span_from_value(v: &Value) -> Result<Span, String> {
    let kind_raw = int(v, "kind")?;
    let kind =
        SpanKind::from_u64(kind_raw).ok_or_else(|| format!("unknown span kind {kind_raw}"))?;
    Ok(Span {
        seq: int(v, "seq")?,
        kind,
        detail: int(v, "detail")?,
        start_us: num(v, "start_us")?,
        dur_us: num(v, "dur_us")?,
        arg0: num(v, "arg0")?,
        arg1: num(v, "arg1")?,
        trace_id: int(v, "trace_id")?,
        span_id: int(v, "span_id")?,
        parent_id: int(v, "parent_id")?,
    })
}

impl RequestTrace {
    pub fn to_value(&self) -> Value {
        json!({
            "trace_id": self.trace_id,
            "model": self.model,
            "batch": self.batch,
            "epoch": self.epoch,
            "plan_fingerprint": self.plan_fingerprint,
            "sojourn_us": self.sojourn_us,
            "attribution": serde::Serialize::to_value(&self.attribution),
            "spans": Value::Array(self.spans.iter().map(span_to_value).collect()),
        })
    }

    pub fn from_value(v: &Value) -> Result<RequestTrace, String> {
        let spans = v
            .get("spans")
            .and_then(Value::as_array)
            .ok_or("trace has no `spans` array")?
            .iter()
            .map(span_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let attribution = v
            .get("attribution")
            .ok_or("trace has no `attribution`")
            .and_then(|a| {
                serde::Deserialize::from_value(a).map_err(|_| "bad `attribution` object")
            })?;
        Ok(RequestTrace {
            trace_id: int(v, "trace_id")?,
            model: v
                .get("model")
                .and_then(Value::as_str)
                .ok_or("trace has no `model`")?
                .to_string(),
            batch: int(v, "batch")? as usize,
            epoch: int(v, "epoch")? as usize,
            plan_fingerprint: int(v, "plan_fingerprint")?,
            sojourn_us: num(v, "sojourn_us")?,
            attribution,
            spans,
        })
    }
}

/// Everything a dump needs beyond the ring itself, built lazily by the
/// trigger site (the witness run is only paid when a dump is actually
/// written).
pub struct DumpPayload {
    pub model: String,
    /// `SchedulePlan::to_json` of the serving batch-1 plan.
    pub plan_json: String,
    pub plan_fingerprint: u64,
    /// Serialized deployed `SystemModel`.
    pub system_json: String,
    /// A freshly recorded `ExecutionWitness` (JSON), if the witnessed
    /// run succeeded.
    pub witness_json: Option<String>,
    /// The trace that tripped the rule, 0 if the rule has no single
    /// culprit (e.g. a refused swap).
    pub trigger_trace_id: u64,
}

/// The bounded ring + dump-once latch.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    dir: Option<PathBuf>,
    ring: Mutex<VecDeque<Arc<RequestTrace>>>,
    dumped: AtomicBool,
    last_dump: OnceLock<PathBuf>,
}

impl FlightRecorder {
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            dir,
            ring: Mutex::new(VecDeque::new()),
            dumped: AtomicBool::new(false),
            last_dump: OnceLock::new(),
        }
    }

    /// Append one completed request, evicting the oldest past capacity.
    pub fn record(&self, trace: Arc<RequestTrace>) {
        tm::INSIGHT_TRACES.inc();
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Snapshot of the ring, oldest first.
    pub fn traces(&self) -> Vec<Arc<RequestTrace>> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().cloned().collect()
    }

    /// Whether a trigger would actually write a dump (a directory is
    /// configured and the latch hasn't fired). Callers use this to skip
    /// building a [`DumpPayload`] on the fast path.
    pub fn armed(&self) -> bool {
        self.dir.is_some() && !self.dumped.load(Ordering::Relaxed)
    }

    /// Where the dump landed, if one was written.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.last_dump.get().cloned()
    }

    /// Fire an anomaly rule. The first firing writes the bundle and
    /// returns its directory; later firings count as suppressed. With no
    /// dump directory configured this is a cheap no-op (the payload
    /// closure is never called).
    pub fn trigger(
        &self,
        rule: AnomalyRule,
        payload: impl FnOnce() -> DumpPayload,
    ) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        if self.dumped.swap(true, Ordering::SeqCst) {
            tm::INSIGHT_DUMPS_SUPPRESSED.inc();
            return None;
        }
        let payload = payload();
        match self.write_dump(dir, rule, &payload) {
            Ok(path) => {
                rule.counter().inc();
                // The latch above lets one trigger this far: the set
                // cannot find the cell full.
                let _ = self.last_dump.set(path.clone());
                Some(path)
            }
            Err(e) => {
                eprintln!("duet-insight: flight dump failed: {e}");
                None
            }
        }
    }

    fn write_dump(
        &self,
        dir: &Path,
        rule: AnomalyRule,
        payload: &DumpPayload,
    ) -> Result<PathBuf, std::io::Error> {
        let dump = dir.join(format!("dump-{}", rule.as_str()));
        fs::create_dir_all(&dump)?;
        let traces = self.traces();
        let manifest = json!({
            "format": "duet-insight/1",
            "model": payload.model,
            "rule": rule.as_str(),
            "trigger_trace_id": payload.trigger_trace_id,
            "plan_fingerprint": payload.plan_fingerprint,
            "trace_count": traces.len() as u64,
        });
        fs::write(
            dump.join("manifest.json"),
            serde_json::to_string_pretty(&manifest).expect("manifest serializes"),
        )?;
        let trace_values = Value::Array(traces.iter().map(|t| t.to_value()).collect());
        fs::write(
            dump.join("traces.json"),
            serde_json::to_string_pretty(&trace_values).expect("traces serialize"),
        )?;
        fs::write(dump.join("metrics.prom"), duet_telemetry::prometheus_text())?;
        fs::write(dump.join("plan.json"), &payload.plan_json)?;
        fs::write(dump.join("system.json"), &payload.system_json)?;
        if let Some(w) = &payload.witness_json {
            fs::write(dump.join("witness.json"), w)?;
        }
        Ok(dump)
    }
}

/// A dump bundle read back from disk (`duet insight`, `duet trace
/// --dump`).
pub struct FlightDump {
    pub manifest: Value,
    pub traces: Vec<RequestTrace>,
    pub plan_json: String,
    pub system_json: String,
    pub metrics_prom: String,
    pub witness: Option<duet_runtime::ExecutionWitness>,
}

impl FlightDump {
    /// Load a dump directory written by [`FlightRecorder::trigger`].
    pub fn load(dir: &Path) -> Result<FlightDump, String> {
        let read = |name: &str| {
            fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let manifest: Value = serde_json::from_str(&read("manifest.json")?)
            .map_err(|e| format!("manifest.json: {e}"))?;
        let traces_raw: Value =
            serde_json::from_str(&read("traces.json")?).map_err(|e| format!("traces.json: {e}"))?;
        let traces = traces_raw
            .as_array()
            .ok_or("traces.json is not an array")?
            .iter()
            .map(RequestTrace::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let witness = match fs::read_to_string(dir.join("witness.json")) {
            Ok(s) => Some(
                serde_json::from_str::<duet_runtime::ExecutionWitness>(&s)
                    .map_err(|e| format!("witness.json: {e}"))?,
            ),
            Err(_) => None,
        };
        Ok(FlightDump {
            manifest,
            traces,
            plan_json: read("plan.json")?,
            system_json: read("system.json")?,
            metrics_prom: read("metrics.prom")?,
            witness,
        })
    }

    /// Model name recorded in the manifest.
    pub fn model(&self) -> Option<&str> {
        self.manifest.get("model").and_then(Value::as_str)
    }

    /// Rule that triggered the dump.
    pub fn rule(&self) -> Option<&str> {
        self.manifest.get("rule").and_then(Value::as_str)
    }

    /// Trace id that tripped the rule (0 = no single culprit).
    pub fn trigger_trace_id(&self) -> u64 {
        self.manifest
            .get("trigger_trace_id")
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            trace_id: id,
            model: "mlp".into(),
            batch: 1,
            epoch: 0,
            plan_fingerprint: 0xfeed,
            sojourn_us: 123.0,
            attribution: Attribution::default(),
            spans: vec![Span {
                seq: 0,
                kind: SpanKind::ServeRequest,
                detail: 1,
                start_us: 10.0,
                dur_us: 123.0,
                arg0: 0.0,
                arg1: 0.0,
                trace_id: id,
                span_id: id * 10,
                parent_id: 0,
            }],
        })
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let fr = FlightRecorder::new(3, None);
        for id in 1..=5 {
            fr.record(trace(id));
        }
        let ids: Vec<u64> = fr.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    /// A real plan fingerprint uses all 64 bits, more than an `f64` keeps.
    #[test]
    fn request_trace_round_trips_through_json() {
        let spec = crate::ModelSpec::serving_zoo("mlp").expect("serving model");
        let fingerprint = duet_ir::fingerprint(&spec.graph_at(1));
        assert_ne!(fingerprint as f64 as u64, fingerprint, "not exact in f64");
        let t = RequestTrace {
            plan_fingerprint: fingerprint,
            ..(*trace(7)).clone()
        };
        let back = RequestTrace::from_value(&t.to_value()).unwrap();
        assert_eq!(back.trace_id, 7);
        assert_eq!(back.model, "mlp");
        assert_eq!(back.plan_fingerprint, fingerprint);
        let text = serde_json::to_string(&t.to_value()).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = RequestTrace::from_value(&parsed).unwrap();
        assert_eq!(back.plan_fingerprint, fingerprint);
        assert_eq!(back.spans.len(), 1);
        assert_eq!(back.spans[0].kind, SpanKind::ServeRequest);
        assert_eq!(back.spans[0].span_id, 70);
    }

    #[test]
    fn trigger_without_dir_is_inert() {
        let fr = FlightRecorder::new(4, None);
        let fired = std::cell::Cell::new(false);
        assert!(!fr.armed());
        let out = fr.trigger(AnomalyRule::Shed, || {
            fired.set(true);
            unreachable!("payload must not be built without a dump dir")
        });
        assert!(out.is_none());
        assert!(!fired.get());
    }

    #[test]
    fn second_trigger_is_suppressed() {
        let dir = std::env::temp_dir().join(format!(
            "duet-flight-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(4, Some(dir.clone()));
        fr.record(trace(1));
        let payload = || DumpPayload {
            model: "mlp".into(),
            plan_json: "{}".into(),
            plan_fingerprint: 0xfeed,
            system_json: "{}".into(),
            witness_json: None,
            trigger_trace_id: 1,
        };
        let first = fr.trigger(AnomalyRule::SloBurn, payload);
        let path = first.expect("first trigger dumps");
        assert!(path.join("manifest.json").is_file());
        assert!(path.join("traces.json").is_file());
        assert!(path.join("metrics.prom").is_file());
        let second = fr.trigger(AnomalyRule::Shed, payload);
        assert!(second.is_none(), "latch suppresses the second dump");
        assert!(!fr.armed());
        // The bundle loads back and carries the ring contents.
        let dump = FlightDump::load(&path).unwrap();
        assert_eq!(dump.model(), Some("mlp"));
        assert_eq!(dump.rule(), Some("slo_burn"));
        assert_eq!(dump.trigger_trace_id(), 1);
        assert_eq!(dump.traces.len(), 1);
        assert_eq!(dump.traces[0].trace_id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every number in `v` as `f64` bits, in document order.
    fn f64_bits(v: &Value) -> Vec<u64> {
        match v {
            Value::Number(n) => vec![n.as_f64().expect("a number").to_bits()],
            Value::Array(items) => items.iter().flat_map(f64_bits).collect(),
            Value::Object(map) => map.values().flat_map(f64_bits).collect(),
            _ => Vec::new(),
        }
    }

    /// `duet trace --dump` holds the dumped witness to a fresh replay
    /// under the dumped system bit for bit (D310), so both files must read
    /// back with every `f64` they were written with: here a witness run
    /// under a drifted system, whose prices are no short decimals.
    #[test]
    fn dumped_witness_and_system_keep_every_f64_bit() {
        use duet_runtime::{ExecutionWitness, WitnessLog, WitnessSource};
        let system = crate::loadgen::degraded_gpu(&duet_device::SystemModel::paper_server());
        let spec = crate::ModelSpec::serving_zoo("wide_deep").expect("serving model");
        let engine = duet_core::Duet::builder().build(&spec.graph_at(1)).unwrap();
        let feeds = duet_models::input_feeds(engine.graph(), 3);
        let log = WitnessLog::default();
        let out = engine
            .executor_with(system.clone())
            .run_observed(&feeds, &log);
        let latency_us = out.unwrap().virtual_latency_us;
        let witness = log.seal(&engine.graph().name, WitnessSource::Executor, latency_us);

        let text = serde_json::to_string_pretty(&witness).unwrap();
        let back: ExecutionWitness = serde_json::from_str(&text).unwrap();
        assert_eq!(back, witness);
        let bits = |w: &ExecutionWitness| f64_bits(&serde_json::to_value(w));
        assert_eq!(bits(&back), bits(&witness));
        assert!(bits(&witness).len() > 10, "the witness carries its clocks");

        let text = serde_json::to_string_pretty(&system).unwrap();
        let back: duet_device::SystemModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back, system);
        let bits = |s: &duet_device::SystemModel| f64_bits(&serde_json::to_value(s));
        assert_eq!(bits(&back), bits(&system));
    }

    #[test]
    fn slo_monitor_burns_at_threshold() {
        let mut m = SloMonitor::new(SloConfig {
            limit_us: 100.0,
            window: 4,
            burn_threshold: 2,
        });
        assert_eq!(
            m.observe(50.0),
            SloVerdict {
                breached: false,
                burning: false
            }
        );
        assert_eq!(
            m.observe(150.0),
            SloVerdict {
                breached: true,
                burning: false
            }
        );
        let v = m.observe(200.0);
        assert!(v.breached && v.burning, "second breach in window burns");
        // Breaches age out of the window: after `window` healthy
        // observations the monitor stops burning.
        let verdicts: Vec<SloVerdict> = (0..4).map(|_| m.observe(10.0)).collect();
        assert!(verdicts.iter().all(|v| !v.breached));
        assert!(!verdicts.last().unwrap().burning);
    }
}
