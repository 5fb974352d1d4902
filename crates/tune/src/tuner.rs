//! The tuning pipeline: search → prove → report.
//!
//! [`tune`] runs one beam search from Algorithm 1's placement on the
//! engine's own [`duet_runtime::Timeline`] — the price the result is
//! judged by, so the search's best makespan is already the latency the
//! D503 occupancy check re-derives — instantiates the best placement
//! via [`Duet::with_devices`] (re-applying the §VI-E
//! single-device fallback guardrail), and gates promotion on the D2xx
//! plan lints plus the D5xx model check. The result is never
//! worse than Algorithm 1: the seed placement is always a candidate. The
//! run reads nothing but its two arguments.

use std::time::Instant;

use duet_analysis::{lint_plan, LintConfig, ModelCheckConfig, ModelCheckOutcome, Report};
use duet_core::{Duet, SchedulePlan};
use duet_device::SystemModel;
use duet_telemetry::registry::{
    TUNE_ORACLE_WALL_US, TUNE_PROMOTIONS_ACCEPTED, TUNE_PROMOTIONS_REJECTED, TUNE_RUNS,
    TUNE_SEARCH_WALL_US,
};

use crate::oracle::Oracle;
use crate::strategy::beam_search;

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Oracle-evaluation budget for the search.
    pub budget: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig { budget: 2000 }
    }
}

/// Everything one tuning run produced.
#[derive(Debug)]
pub struct TuneOutcome {
    pub model: String,
    /// Algorithm 1's fallback-resolved latency, µs.
    pub algorithm1_us: f64,
    /// The tuned engine's fallback-resolved latency, µs.
    pub tuned_us: f64,
    /// Where the winning placement came from: "beam" when the search
    /// beat the seed placement, "algorithm1" when nothing did.
    pub winner: &'static str,
    /// Oracle evaluations spent, the seed placement's included.
    pub candidates: usize,
    /// End-to-end tuning wall time, µs.
    pub wall_us: f64,
    /// Critical-path lower bound of the engine's subgraphs, µs.
    pub critical_path_lb_us: f64,
    /// Drift runs only ([`tune_drifted`]): the latency of the placement
    /// that was *actually serving* (made for the planned system),
    /// re-evaluated under the deployed system — the baseline a hot-swap
    /// competes against. `None` for offline tuning.
    pub stale_us: Option<f64>,
    /// The tuned engine (winning placement, guardrail re-applied).
    pub tuned: Duet,
    /// The tuned engine's exported plan.
    pub plan: SchedulePlan,
    /// D2xx plan-lint report for the winning plan.
    pub lint: Report,
    /// D5xx model-check outcome for the winning plan.
    pub check: ModelCheckOutcome,
    /// True when the winning plan passed both gates.
    pub promoted: bool,
}

impl TuneOutcome {
    /// Algorithm 1 latency over tuned latency (≥ 1.0 by construction).
    pub fn speedup(&self) -> f64 {
        self.algorithm1_us / self.tuned_us
    }

    /// True when the tuned plan strictly beats Algorithm 1.
    pub fn strictly_better(&self) -> bool {
        self.tuned_us < self.algorithm1_us
    }

    /// Stale-plan latency over tuned latency (drift runs only).
    pub fn speedup_vs_stale(&self) -> Option<f64> {
        self.stale_us.map(|s| s / self.tuned_us)
    }
}

impl std::fmt::Display for TuneOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "tune report: {}", self.model)?;
        writeln!(
            f,
            "  algorithm 1: {:.3} ms   tuned: {:.3} ms   speedup: {:.3}x{}",
            self.algorithm1_us / 1e3,
            self.tuned_us / 1e3,
            self.speedup(),
            if self.strictly_better() { "" } else { " (tie)" },
        )?;
        if let Some(stale) = self.stale_us {
            writeln!(
                f,
                "  stale plan under deployed system: {:.3} ms   speedup vs stale: {:.3}x",
                stale / 1e3,
                stale / self.tuned_us,
            )?;
        }
        writeln!(
            f,
            "  bound: {:.3} ms ({:.2}x above)",
            self.critical_path_lb_us / 1e3,
            self.tuned_us / self.critical_path_lb_us,
        )?;
        writeln!(f, "  winner: {}", self.winner)?;
        writeln!(
            f,
            "  search: {} candidates in {:.1} ms",
            self.candidates,
            self.wall_us / 1e3,
        )?;
        write!(
            f,
            "  promotion: {} (D2xx {}, D5xx {})",
            if self.promoted {
                "accepted"
            } else {
                "REJECTED"
            },
            if self.lint.has_errors() {
                "dirty"
            } else {
                "clean"
            },
            if self.check.report.has_errors() {
                "dirty"
            } else {
                "clean"
            },
        )
    }
}

/// Tune one engine's placement. See the module docs for the pipeline.
pub fn tune(engine: &Duet, cfg: &TuneConfig) -> TuneOutcome {
    let t0 = Instant::now();
    TUNE_RUNS.inc();
    let graph = engine.graph();
    let oracle = Oracle::over(engine.timeline().clone());
    let found = beam_search(&oracle, engine.devices(), cfg.budget);
    TUNE_ORACLE_WALL_US.observe_us(t0.elapsed().as_secs_f64() * 1e6);
    // The search replaces its seed only on a strict improvement.
    let winner = if found.devices == engine.devices() {
        "algorithm1"
    } else {
        "beam"
    };

    // Promotion: instantiate (guardrail re-applies), lint, model-check.
    let tuned = engine.with_devices(found.devices);
    let plan = tuned.export_plan();
    let lint = lint_plan(graph, &plan.to_facts(), &LintConfig::default());
    let check = tuned.check_plan(&ModelCheckConfig::default());
    let promoted = !lint.has_errors() && !check.report.has_errors();
    if promoted {
        TUNE_PROMOTIONS_ACCEPTED.inc();
    } else {
        TUNE_PROMOTIONS_REJECTED.inc();
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6;
    TUNE_SEARCH_WALL_US.observe_us(wall_us);
    TuneOutcome {
        model: graph.name.clone(),
        algorithm1_us: engine.latency_us(),
        tuned_us: tuned.latency_us(),
        winner,
        candidates: found.evaluated,
        wall_us,
        critical_path_lb_us: engine.critical_path_lower_bound_us(),
        stale_us: None,
        tuned,
        plan,
        lint,
        check,
        promoted,
    }
}

/// Tune against a *drifted* deployment — the serving hot-swap scenario
/// (§IV-C: analytic estimates go stale). Re-profiles and re-corrects
/// under `deployed` (Algorithm 1's own drift response, so
/// `algorithm1_us` in the outcome is the *replanned* baseline, not the
/// stale one), then searches globally from that seed. The outcome's
/// `stale_us` is the currently-serving placement re-evaluated under the
/// deployed system — what keeps running if nothing is swapped, and the
/// baseline the strict-win numbers in EXPERIMENTS.md are measured
/// against.
pub fn tune_drifted(engine: &Duet, deployed: SystemModel, cfg: &TuneConfig) -> TuneOutcome {
    let stale_us = duet_runtime::measure_latency(engine.graph(), engine.placed(), &deployed);
    let replanned = engine.recorrect(deployed);
    let mut out = tune(&replanned, cfg);
    out.stale_us = Some(stale_us);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::zoo_model;

    #[test]
    fn tuning_wide_and_deep_is_never_worse_and_promotes() {
        let g = zoo_model("wide_and_deep").unwrap();
        let engine = Duet::builder().build(&g).unwrap();
        let out = tune(&engine, &TuneConfig::default());
        assert!(out.tuned_us <= out.algorithm1_us, "{out}");
        assert!(out.promoted, "winning plan must pass D2xx+D5xx:\n{out}");
        assert!(out.candidates > 3);
        // The promoted plan's claimed latency is the tuned engine's.
        assert_eq!(
            out.plan.expected_latency_us.to_bits(),
            out.tuned_us.to_bits()
        );
    }

    #[test]
    fn same_config_same_winner() {
        let g = zoo_model("siamese").unwrap();
        let engine = Duet::builder().build(&g).unwrap();
        let cfg = TuneConfig { budget: 400 };
        let a = tune(&engine, &cfg);
        let b = tune(&engine, &cfg);
        assert_eq!(a.plan.to_json(), b.plan.to_json());
        assert_eq!(a.tuned_us.to_bits(), b.tuned_us.to_bits());
    }
}
