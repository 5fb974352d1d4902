//! `duet-telemetry`: what span recording inside the program costs, as
//! the same executor loop with recording on and off. Matters where runs
//! are short: `serve_sat` throughput.

use super::{Probe, Readings};

pub fn probe(p: &Probe) -> Readings {
    let was_enabled = duet_telemetry::enabled();
    let timed = |on: bool, span| {
        duet_telemetry::set_enabled(on);
        p.time_us(span, || {
            p.tiny.run(&p.tiny_feeds).expect("siamese_tiny runs");
        })
    };
    // off, on, on, off: drift during the probe hits both sides equally.
    let off = timed(false, "telemetry.off");
    let on = timed(true, "telemetry.on") + timed(true, "telemetry.on");
    let off = off + timed(false, "telemetry.off");
    duet_telemetry::set_enabled(was_enabled);
    vec![("telemetry.span_overhead_share", on / off - 1.0)]
}
