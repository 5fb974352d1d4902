//! `duet-tune`: the search and its memoized simulator oracle. Moves
//! `plan_offline` latency — and its modeled latency, if a plan changes.

use duet_serve::loadgen::degraded_gpu;
use duet_tune::{tune, tune_drifted, Oracle, TuneConfig};

use super::{Probe, Readings};

pub fn probe(p: &Probe) -> Readings {
    let cfg = TuneConfig::default();
    let tune_ms = p.time_ms("tune.tune", || {
        tune(&p.wd, &cfg);
    });
    let degraded = degraded_gpu(p.wd.system());
    let tune_drifted_ms = p.time_ms("tune.tune_drifted", || {
        tune_drifted(&p.wd, degraded.clone(), &cfg);
    });
    let evals = tune(&p.wd, &cfg).candidates;
    let subgraphs: Vec<_> = p.wd.units().iter().map(|u| u.sg.clone()).collect();
    let oracle = Oracle::analytic(p.wd.graph(), &subgraphs, p.wd.system());
    let devices = p.wd.devices().to_vec();
    let oracle_eval_us = p.time_us("tune.oracle_eval", || {
        std::hint::black_box(oracle.evaluate(std::hint::black_box(&devices)));
    });
    vec![
        ("tune.tune_ms", tune_ms),
        ("tune.tune_drifted_ms", tune_drifted_ms),
        ("tune.evals", evals as f64),
        ("tune.oracle_eval_us", oracle_eval_us),
    ]
}
