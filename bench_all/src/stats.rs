//! Percentiles, the sample-count rule that says which one may be
//! reported, and the measure of what the host took from a run.

use std::hint::black_box;
use std::time::Instant;

/// Linear-interpolated percentile `p` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Samples that lie beyond percentile `p` among `n`. A percentile is
/// resolved only with at least [`MIN_BEYOND`] of them: below that it
/// reports single slow ops, not the tail.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

pub const MIN_BEYOND: usize = 10;

/// Share of a measured run spent in the reference work.
pub const PROBE_SHARE: f64 = 0.05;

/// What the host gave this process of the time the process asked for,
/// measured by work that belongs to the harness and not to the program.
///
/// The hosts this benchmark runs on take the CPU away, or slow it, for
/// microseconds to minutes at a time: medians of one build differed by
/// 13 to 20 % between twenty-second runs, and the runs that were slow
/// were slow from end to end, so no part of them could be picked as
/// undisturbed. [`reference_work`] is a fixed amount of arithmetic on
/// registers. Undisturbed it takes the same time to a ten-thousandth
/// (its best time in a run was 55.23 µs in every one of thirty runs, the
/// slowest of which had a mean of 85 µs), so best ÷ mean is the share of
/// the asked-for time the host delivered: the quiet share. The measuring
/// loop runs the reference work between ops, for [`PROBE_SHARE`] of the
/// run, and the run's timings are multiplied by the quiet share. Every op
/// counts in them: nothing is selected, least of all by the quantity
/// being measured.
#[derive(Default)]
pub struct HostShare {
    best_ns: u64,
    total_ns: u64,
    probes: u64,
}

impl HostShare {
    /// Runs the reference work once and times it.
    pub fn probe(&mut self) {
        let started = Instant::now();
        black_box(reference_work());
        self.record(started.elapsed().as_nanos() as u64);
    }

    fn record(&mut self, ns: u64) {
        self.best_ns = if self.probes == 0 {
            ns
        } else {
            self.best_ns.min(ns)
        };
        self.total_ns += ns;
        self.probes += 1;
    }

    /// Seconds spent in the reference work so far.
    pub fn spent_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Best time ÷ mean time of the reference work: 1 on a host that was
    /// never disturbed.
    pub fn quiet_share(&self) -> f64 {
        assert!(self.probes > 0, "quiet share of no probes");
        self.best_ns as f64 * self.probes as f64 / self.total_ns as f64
    }
}

/// Eight independent multiply-add chains, 20,000 rounds: no memory, no
/// branch the predictor can miss, nothing of the program under test.
fn reference_work() -> u64 {
    let mut x = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for k in 0..20_000u64 {
        for (j, v) in x.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(k ^ j as u64);
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.875), 4.5);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_two_hundred_samples_to_have_ten_beyond_it() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(samples_beyond(1, 0.95), 0);
        assert!(samples_beyond(200, 0.95) >= MIN_BEYOND);
        assert!(samples_beyond(140, 0.95) < MIN_BEYOND);
    }

    #[test]
    fn quiet_share_is_best_over_mean() {
        let mut host = HostShare::default();
        for ns in [50, 100, 50, 200] {
            host.record(ns);
        }
        assert_eq!(host.probes(), 4);
        assert_eq!(host.spent_s(), 400e-9);
        assert_eq!(host.quiet_share(), 0.5);

        let mut real = HostShare::default();
        for _ in 0..20 {
            real.probe();
        }
        assert!(real.quiet_share() > 0.0 && real.quiet_share() <= 1.0);
    }
}
