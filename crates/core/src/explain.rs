//! Placement explanations.
//!
//! A placement report says *what* the scheduler decided; this module says
//! *why*: per subgraph, the profiled margin between devices, the
//! communication the placement incurs, and what the end-to-end cost of
//! flipping the decision would be. The CLI's `explain` command renders
//! it; deployment engineers debugging an unexpected schedule read this
//! instead of re-deriving Algorithm 1 by hand.

use duet_device::DeviceKind;

use crate::engine::Duet;

/// Why one subgraph sits where it sits.
#[derive(Debug, Clone)]
pub struct PlacementRationale {
    pub name: String,
    pub device: DeviceKind,
    /// Profiled time on the chosen device, microseconds.
    pub chosen_us: f64,
    /// Profiled time on the other device.
    pub other_us: f64,
    /// End-to-end latency if only this subgraph flipped devices.
    pub flipped_latency_us: f64,
    /// Boundary traffic this subgraph's placement moves over PCIe when
    /// flipped relative to its neighbours (input + output payload).
    pub boundary_bytes: f64,
}

impl PlacementRationale {
    /// Positive when the chosen device is locally faster.
    pub fn local_margin_us(&self) -> f64 {
        self.other_us - self.chosen_us
    }

    /// True when the subgraph sits on its locally *slower* device — the
    /// interesting cases, justified only by global schedule effects
    /// (load balancing or communication).
    pub fn counter_intuitive(&self) -> bool {
        self.local_margin_us() < 0.0
    }
}

/// Full explanation of an engine's schedule.
#[derive(Debug, Clone)]
pub struct Explanation {
    pub model: String,
    pub latency_us: f64,
    pub rationales: Vec<PlacementRationale>,
}

/// Explain every placement of a built engine by replaying single-flip
/// counterfactuals on its timeline (the same oracle the correction loop
/// used).
pub fn explain(duet: &Duet) -> Explanation {
    let graph = duet.graph();
    let timeline = duet.placed_timeline();
    let mut devices: Vec<DeviceKind> = duet.placed().iter().map(|p| p.device).collect();
    let latency_us = timeline.makespan(&devices);
    let rationales = duet
        .placed()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            devices[i] = p.device.other();
            let flipped_latency_us = timeline.makespan(&devices);
            devices[i] = p.device;
            PlacementRationale {
                name: p.sg.name.clone(),
                device: p.device,
                // Profile times come from the cost model directly.
                chosen_us: timeline.exec_time_us(i, p.device),
                other_us: timeline.exec_time_us(i, p.device.other()),
                flipped_latency_us,
                boundary_bytes: p.sg.input_bytes(graph) + p.sg.output_bytes(graph),
            }
        })
        .collect();
    Explanation {
        model: graph.name.clone(),
        latency_us,
        rationales,
    }
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {:.3} ms end-to-end; per-subgraph rationale:",
            self.model,
            self.latency_us / 1e3
        )?;
        for r in &self.rationales {
            let margin = r.local_margin_us();
            let regression = r.flipped_latency_us - self.latency_us;
            writeln!(
                f,
                "  {:<14} on {}: {:.3} ms here vs {:.3} ms there ({}{:.3} ms locally); \
                 flipping it makes the model {}{:.3} ms; boundary {:.1} KB",
                r.name,
                r.device,
                r.chosen_us / 1e3,
                r.other_us / 1e3,
                if margin >= 0.0 { "saves " } else { "costs " },
                margin.abs() / 1e3,
                if regression >= 0.0 { "+" } else { "" },
                regression / 1e3,
                r.boundary_bytes / 1e3,
            )?;
            if r.counter_intuitive() {
                writeln!(
                    f,
                    "      ^ kept on its locally slower device for global reasons \
                     (overlap or communication)"
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::{wide_and_deep, WideAndDeepConfig};

    fn engine() -> Duet {
        Duet::builder()
            .build(&wide_and_deep(&WideAndDeepConfig::default()))
            .unwrap()
    }

    #[test]
    fn every_subgraph_gets_a_rationale() {
        let duet = engine();
        let ex = explain(&duet);
        assert_eq!(ex.rationales.len(), duet.placed().len());
        assert_eq!(ex.latency_us, duet.latency_us());
    }

    #[test]
    fn flipping_a_converged_schedule_never_helps() {
        // The correction loop terminated, so no single flip can improve —
        // exactly what the counterfactuals must show.
        let ex = explain(&engine());
        for r in &ex.rationales {
            assert!(
                r.flipped_latency_us >= ex.latency_us - 1e-9,
                "{}: flip would improve, correction did not converge",
                r.name
            );
        }
    }

    #[test]
    fn rnn_rationale_shows_cpu_margin() {
        let ex = explain(&engine());
        let rnn = ex
            .rationales
            .iter()
            .find(|r| r.name.starts_with("rnn"))
            .unwrap();
        assert_eq!(rnn.device, DeviceKind::Cpu);
        assert!(
            rnn.local_margin_us() > 0.0,
            "CPU is locally faster for the RNN"
        );
    }

    #[test]
    fn display_mentions_each_subgraph() {
        let ex = explain(&engine());
        let s = ex.to_string();
        for r in &ex.rationales {
            assert!(s.contains(&r.name));
        }
    }
}
