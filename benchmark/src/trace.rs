//! The traced run's spans: one around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from the benchmark's own files only; spans inside
//! the program are a later issue. With the tracer off, `begin`/`end`
//! return without reading the clock, so the end-to-end windows pay one
//! predictable branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// 1-based id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Operation / request the span belongs to (shared by its spans).
    pub request: u64,
    /// Recording thread, numbered in order of first use.
    pub lane: u32,
}

/// Handle of a span that has begun; id 0 means tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Open {
    pub const NONE: Open = Open(0);
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Chrome-trace files list at most this many spans (the self-time table
/// always covers all of them): `serve_sat` records over a million.
const MAX_EVENTS: usize = 50_000;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&self, name: &'static str, parent: Open, request: u64) -> Open {
        if !self.on {
            return Open::NONE;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("no span recorder panics");
        spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: parent.0,
            request,
            lane: LANE.with(|l| *l),
        });
        Open(spans.len() as u32)
    }

    pub fn end(&self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let end_us = self.now_us();
        let mut spans = self.spans.lock().expect("no span recorder panics");
        spans[open.0 as usize - 1].end_us = end_us;
    }

    /// Time `f` as a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Open,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span recorder panics")
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    /// Duration minus the part of the interval child spans cover.
    pub self_us: f64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (a, b) = (s.start_us.max(p.start_us), s.end_us.min(p.end_us));
            if b > a {
                children[s.parent as usize - 1].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::MIN;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.end_us - s.start_us;
        t.self_us += self_us;
    }
    out
}

/// The self-time table, widest self time first.
pub fn render_table(totals: &BTreeMap<&'static str, NameTotals>) -> String {
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let mut out = format!(
        "{:<28} {:>9} {:>14} {:>14} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "mean_us"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>14.3} {:>14.3} {:>12.2}",
            name,
            t.count,
            t.total_us / 1e3,
            t.self_us / 1e3,
            t.total_us / t.count as f64
        );
    }
    out
}

/// Write Chrome-trace JSON (load in chrome://tracing or Perfetto): one
/// complete ("X") event per span with its id, parent and request id in
/// `args`, and the self-time table under `selfTime`.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    spans: &[Span],
    totals: &BTreeMap<&'static str, NameTotals>,
) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len().min(MAX_EVENTS) * 160 + 4096);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(MAX_EVENTS).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            s.name,
            s.lane,
            s.start_us,
            s.end_us - s.start_us,
            i + 1,
            s.parent,
            s.request
        );
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\":\"ms\",\n\"workload\":\"{workload}\",\n\"spansRecorded\":{},\n\
         \"spansWritten\":{},\n\"selfTime\":[\n",
        spans.len(),
        spans.len().min(MAX_EVENTS)
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"span\":\"{}\",\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3}}}",
            name, t.count, t.total_us, t.self_us
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: u32) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            request: 1,
            lane: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0,100]; children [10,40] and [30,60] overlap → cover 50;
        // a grandchild [12,20] only reduces its own parent.
        let spans = vec![
            span("op", 0.0, 100.0, 0),
            span("a", 10.0, 40.0, 1),
            span("b", 30.0, 60.0, 1),
            span("a.inner", 12.0, 20.0, 2),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 22.0, 30.0, 8.0]);
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].self_us, 50.0);
        assert_eq!(t["op"].total_us, 100.0);
        assert_eq!(t["a"].count, 1);
    }

    #[test]
    fn child_running_past_its_parent_is_clipped() {
        let spans = vec![span("op", 0.0, 10.0, 0), span("late", 8.0, 30.0, 1)];
        assert_eq!(self_times(&spans)[0], 8.0);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        let o = t.begin("x", Open::NONE, 0);
        t.end(o);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn tracer_links_parent_and_request() {
        let t = Tracer::new(true);
        let op = t.begin("op", Open::NONE, 9);
        t.span("child", op, 9, || ());
        t.end(op);
        let s = t.into_spans();
        assert_eq!((s[0].parent, s[1].parent, s[1].request), (0, 1, 9));
        assert!(s[0].end_us >= s[1].end_us);
    }
}
