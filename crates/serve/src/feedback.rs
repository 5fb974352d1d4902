//! Runtime feedback: detect sustained drift between the plan's predicted
//! latency and what execution actually measures.
//!
//! The scheduler's placements are only as good as the cost model they
//! were corrected against (§IV-C refines on *measured* latency for
//! exactly this reason). In a long-lived serving process the deployed
//! hardware drifts — thermal throttling, a co-tenant stealing PCIe
//! bandwidth, driver regressions — and a placement corrected against the
//! stale model silently loses its advantage. The monitor tracks an EWMA
//! of the ratio `measured / predicted` per executed batch; the ratio is
//! dimensionless, so one model-level monitor covers every batch-size
//! variant. When the EWMA stays above threshold for long enough, the
//! server re-runs Algorithm 1's correction against the observed costs
//! and hot-swaps every cached plan.

/// Drift detection tuning.
#[derive(Debug, Clone)]
pub struct FeedbackConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
    pub alpha: f64,
    /// Sustained `measured / predicted` ratio that triggers a swap. Under
    /// the plan's own system the executor reports the predicted latency
    /// exactly, so any excess is the deployed system's drift; the
    /// threshold leaves room for drifts too small to pay for a re-plan.
    pub threshold: f64,
    /// Minimum observations before the monitor may trigger — one noisy
    /// batch is not drift.
    pub min_samples: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            alpha: 0.3,
            threshold: 1.35,
            min_samples: 6,
        }
    }
}

/// Per-model EWMA drift monitor.
#[derive(Debug)]
pub struct DriftMonitor {
    cfg: FeedbackConfig,
    ewma: Option<f64>,
    samples: usize,
}

impl DriftMonitor {
    pub fn new(cfg: FeedbackConfig) -> Self {
        DriftMonitor {
            cfg,
            ewma: None,
            samples: 0,
        }
    }

    /// Record one executed batch's measured vs predicted virtual latency
    /// (same domain, microseconds). Returns `true` when drift is
    /// sustained and the caller should hot-swap.
    pub fn observe(&mut self, measured_us: f64, predicted_us: f64) -> bool {
        if predicted_us <= 0.0 || !measured_us.is_finite() {
            return false;
        }
        let ratio = measured_us / predicted_us;
        let ewma = match self.ewma {
            None => ratio,
            Some(prev) => self.cfg.alpha * ratio + (1.0 - self.cfg.alpha) * prev,
        };
        self.ewma = Some(ewma);
        self.samples += 1;
        self.samples >= self.cfg.min_samples && ewma > self.cfg.threshold
    }

    /// Forget history — call after a hot-swap so the new plan gets a
    /// fresh observation window.
    pub fn reset(&mut self) {
        self.ewma = None;
        self.samples = 0;
    }

    /// Current smoothed ratio, if any observations were made.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> DriftMonitor {
        DriftMonitor::new(FeedbackConfig::default())
    }

    #[test]
    fn healthy_ratio_never_triggers() {
        let mut m = monitor();
        for _ in 0..100 {
            assert!(!m.observe(108.0, 100.0));
        }
        assert!((m.ewma().unwrap() - 1.08).abs() < 1e-9);
    }

    #[test]
    fn sustained_drift_triggers_after_min_samples() {
        let mut m = monitor();
        let mut fired_at = None;
        for i in 1..=20 {
            if m.observe(1000.0, 100.0) {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(FeedbackConfig::default().min_samples));
    }

    #[test]
    fn spike_moves_ewma_but_reset_reopens_the_sample_floor() {
        let mut m = monitor();
        for _ in 0..10 {
            assert!(!m.observe(100.0, 100.0));
        }
        // One 10x outlier: EWMA moves to 0.3*10 + 0.7*1 = 3.7 — above
        // threshold. A *single* spike does trip a fast EWMA; what the
        // min_samples floor guarantees is that the first few batches
        // after startup or reset cannot.
        assert!(m.observe(1000.0, 100.0));
        m.reset();
        for _ in 0..FeedbackConfig::default().min_samples - 1 {
            assert!(!m.observe(1000.0, 100.0), "reset must reopen the floor");
        }
    }

    #[test]
    fn garbage_inputs_are_ignored() {
        let mut m = monitor();
        assert!(!m.observe(100.0, 0.0));
        assert!(!m.observe(f64::NAN, 100.0));
        assert!(m.ewma().is_none());
    }
}
