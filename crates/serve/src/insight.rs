//! Tail-latency attribution: decompose one request's wall-clock sojourn
//! into named segments that sum *exactly* to the measured latency.
//!
//! Segments, in causal order:
//!
//! * **queue** — submit until the batcher pulled the request off the
//!   bounded queue (admission backlog).
//! * **linger** — pulled until the chunk started executing (time spent
//!   coalescing the batch, bounded by `ServeConfig::linger`; near zero
//!   when the last two arrivals were a whole `linger` or more apart,
//!   because the batcher then does not wait).
//! * **compute_cpu / compute_gpu / transfer** — the executor's wall time
//!   split by the ratios of its virtual-time [`ExecBreakdown`] (the
//!   virtual parts can overlap each other, so only their *ratios* are
//!   meaningful in the wall domain).
//! * **overhead** — everything the other segments don't account for:
//!   feed merging, output splitting, batching bookkeeping and the wall
//!   time the executor spent outside modeled compute/transfer.
//!
//! The invariant that all six segments sum to the measured sojourn
//! holds by construction (overhead is the remainder), which is what
//! makes per-segment P99 histograms an *attribution* rather than a
//! sampling estimate.

use duet_runtime::ExecBreakdown;
use duet_telemetry::percentile_sorted;
use serde::{Deserialize, Serialize};

/// One request's sojourn, decomposed. All values are wall-clock
/// microseconds and sum to the request's measured sojourn.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Attribution {
    pub queue_us: f64,
    pub linger_us: f64,
    pub compute_cpu_us: f64,
    pub compute_gpu_us: f64,
    pub transfer_us: f64,
    pub overhead_us: f64,
}

impl Attribution {
    /// Segment names, in causal order — the label values of the
    /// `duet_serve_segment_us` histogram family.
    pub const SEGMENTS: [&'static str; 6] = [
        "queue",
        "linger",
        "compute_cpu",
        "compute_gpu",
        "transfer",
        "overhead",
    ];

    /// Decompose one request. `exec_wall_us` is the whole execution
    /// phase (merge + run + split); `run_wall_us` is the executor call
    /// alone, split across compute/transfer by the breakdown's virtual
    /// ratios. The remainder of the execution phase is overhead.
    pub fn attribute(
        queue_us: f64,
        linger_us: f64,
        exec_wall_us: f64,
        run_wall_us: f64,
        breakdown: &ExecBreakdown,
    ) -> Attribution {
        let exec_wall = exec_wall_us.max(0.0);
        let run = run_wall_us.clamp(0.0, exec_wall);
        let total = breakdown.total_us();
        let (cpu, gpu, xfer) = if total > 0.0 {
            (
                run * breakdown.cpu_busy_us / total,
                run * breakdown.gpu_busy_us / total,
                run * breakdown.transfer_us / total,
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        Attribution {
            queue_us: queue_us.max(0.0),
            linger_us: linger_us.max(0.0),
            compute_cpu_us: cpu,
            compute_gpu_us: gpu,
            transfer_us: xfer,
            overhead_us: (exec_wall - cpu - gpu - xfer).max(0.0),
        }
    }

    /// `(name, value)` pairs in [`Attribution::SEGMENTS`] order.
    pub fn segments(&self) -> [(&'static str, f64); 6] {
        let values = [
            self.queue_us,
            self.linger_us,
            self.compute_cpu_us,
            self.compute_gpu_us,
            self.transfer_us,
            self.overhead_us,
        ];
        std::array::from_fn(|i| (Self::SEGMENTS[i], values[i]))
    }

    /// Sum of all segments — equals the request's sojourn by
    /// construction.
    pub fn total_us(&self) -> f64 {
        self.segments().iter().map(|(_, v)| v).sum()
    }
}

/// Aggregate statistics for one segment across many requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentSummary {
    pub segment: String,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Per-segment mean/P50/P99 over a set of attributed requests — what
/// the load generator prints at exit and embeds in its JSON report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributionSummary {
    pub requests: usize,
    pub segments: Vec<SegmentSummary>,
}

impl AttributionSummary {
    /// Summarize a set of per-request attributions; percentiles are
    /// nearest-rank ([`percentile_sorted`]). Empty input yields an
    /// all-zero summary with `requests == 0`.
    pub fn from_samples(samples: &[Attribution]) -> AttributionSummary {
        let segments = Attribution::SEGMENTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut vals: Vec<f64> = samples.iter().map(|a| a.segments()[i].1).collect();
                vals.sort_by(f64::total_cmp);
                let (mean_us, p50_us, p99_us) = match vals.len() {
                    0 => (0.0, 0.0, 0.0),
                    n => (
                        vals.iter().sum::<f64>() / n as f64,
                        percentile_sorted(&vals, 50.0),
                        percentile_sorted(&vals, 99.0),
                    ),
                };
                SegmentSummary {
                    segment: name.to_string(),
                    mean_us,
                    p50_us,
                    p99_us,
                }
            })
            .collect();
        AttributionSummary {
            requests: samples.len(),
            segments,
        }
    }

    /// Fixed-width table, one row per segment.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<12} {:>12} {:>12} {:>12}\n",
            "segment", "mean_us", "p50_us", "p99_us"
        ));
        for s in &self.segments {
            out.push_str(&format!(
                "  {:<12} {:>12.1} {:>12.1} {:>12.1}\n",
                s.segment, s.mean_us, s.p50_us, s.p99_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_sum_to_sojourn() {
        let b = ExecBreakdown {
            cpu_busy_us: 30.0,
            gpu_busy_us: 60.0,
            transfer_us: 10.0,
        };
        let a = Attribution::attribute(100.0, 50.0, 400.0, 300.0, &b);
        // queue + linger + exec_wall == sojourn (550).
        assert!((a.total_us() - 550.0).abs() < 1e-9);
        // run_wall split 3:6:1 over 300, overhead covers the other 100.
        assert!((a.compute_cpu_us - 90.0).abs() < 1e-9);
        assert!((a.compute_gpu_us - 180.0).abs() < 1e-9);
        assert!((a.transfer_us - 30.0).abs() < 1e-9);
        assert!((a.overhead_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_breakdown_attributes_exec_to_overhead() {
        let a = Attribution::attribute(0.0, 0.0, 250.0, 200.0, &ExecBreakdown::default());
        assert_eq!(a.compute_cpu_us + a.compute_gpu_us + a.transfer_us, 0.0);
        assert!((a.overhead_us - 250.0).abs() < 1e-9);
    }

    #[test]
    fn summary_orders_segments_and_computes_percentiles() {
        let samples: Vec<Attribution> = (0..100)
            .map(|i| Attribution {
                queue_us: i as f64,
                ..Attribution::default()
            })
            .collect();
        let s = AttributionSummary::from_samples(&samples);
        assert_eq!(s.requests, 100);
        assert_eq!(s.segments.len(), 6);
        assert_eq!(s.segments[0].segment, "queue");
        assert!((s.segments[0].mean_us - 49.5).abs() < 1e-9);
        // Nearest rank: the 50th and 99th of the 100 sorted values.
        assert_eq!(s.segments[0].p50_us, 49.0);
        assert_eq!(s.segments[0].p99_us, 98.0);
        // Untouched segments are all-zero.
        assert_eq!(s.segments[5].p99_us, 0.0);
    }

    /// One percentile definition for the workspace: of two samples the
    /// median is the first (nearest rank), not the second.
    #[test]
    fn summary_percentiles_are_nearest_rank() {
        let samples = [1.0, 2.0].map(|queue_us| Attribution {
            queue_us,
            ..Attribution::default()
        });
        let s = AttributionSummary::from_samples(&samples);
        assert_eq!(s.segments[0].p50_us, 1.0);
        assert_eq!(s.segments[0].p99_us, 2.0);
        let empty = AttributionSummary::from_samples(&[]);
        assert_eq!(empty.requests, 0);
        assert!(empty
            .segments
            .iter()
            .all(|s| (s.mean_us, s.p50_us, s.p99_us) == (0.0, 0.0, 0.0)));
    }

    #[test]
    fn attribution_round_trips_through_json() {
        let a = Attribution {
            queue_us: 1.5,
            linger_us: 2.5,
            compute_cpu_us: 3.0,
            compute_gpu_us: 4.0,
            transfer_us: 5.0,
            overhead_us: 6.0,
        };
        let s = serde_json::to_string_pretty(&a).unwrap();
        let back: Attribution = serde_json::from_str(&s).unwrap();
        assert_eq!(a, back);
    }
}
