//! Seeded inputs: the only thing `--seed` controls is which feeds are
//! sent and when.

/// SplitMix64: small, seedable, and its stream never changes under us
/// (the vendored `rand` stand-in makes no such promise).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (seconds from window start, ascending) of a Poisson
/// arrival process of `rate_per_s` over `seconds`, conditioned on its
/// expected count: given N arrivals in a window a Poisson process places
/// them as N independent uniforms, so gaps and bursts are Poisson's
/// while `attempted` — and with it `throughput_p90_per_s` — does not wander
/// by ±√N from seed to seed.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let n = (rate_per_s * seconds).round().max(1.0) as usize;
    let mut rng = SplitMix64::new(seed);
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Open-loop latency is timed from when the request was *due*, so a
/// stalled generator charges its lateness to the requests it delayed:
/// (submit − due) + the server's own submit→completion sojourn.
pub fn due_time_latency_ms(due_s: f64, submit_s: f64, sojourn_s: f64) -> f64 {
    ((submit_s - due_s).max(0.0) + sojourn_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let a = poisson_schedule(7, 25.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 25.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 25.0, 10.0));
    }

    #[test]
    fn schedule_has_the_expected_count_inside_the_window_in_order() {
        let s = poisson_schedule(1, 25.0, 10.0);
        assert_eq!(s.len(), 250);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s[0] >= 0.0 && *s.last().unwrap() < 10.0);
    }

    #[test]
    fn due_time_latency_charges_generator_lateness() {
        // due at 1.000 s, submitted 4 ms late, served in 15 ms → 19 ms
        assert!((due_time_latency_ms(1.000, 1.004, 0.015) - 19.0).abs() < 1e-9);
        // a submit that reads marginally before its due time is not a credit
        assert!((due_time_latency_ms(1.000, 0.9999, 0.015) - 15.0).abs() < 1e-9);
    }
}
