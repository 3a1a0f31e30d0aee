//! Host-speed calibration.
//!
//! On a shared host, code like the program's (allocation, hashing, map
//! walks: throughput-bound) runs at a speed that drifts by up to 1.8x over
//! seconds to minutes, while a dependent multiply chain or a pointer chase
//! over 4 MiB keeps its speed. A fixed kernel of the program's kind, timed
//! between operations, reads the host's current speed.
//! The gated latencies and set-up times are reported scaled by
//! `REFERENCE_MS / kernel time`: as they would read on a host on which the
//! kernel takes [`REFERENCE_MS`]. A change to the program moves the scaled
//! figures; a change in the host's speed moves the kernel with them.

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Kernel time of the reference host, in ms.
pub const REFERENCE_MS: f64 = 0.5;
/// How often the open-loop driver times the kernel.
pub const EVERY_NS: u64 = 50_000_000;
/// Kernel runs around each set-up.
const SETUP_RUNS: usize = 5;

/// Runs the kernel once; returns its wall time in ms. It builds and
/// probes a string-keyed hash map and an ordered map of small vectors,
/// the allocation and lookup pattern of a stage. It runs cold, right after
/// the program's own work, as the program's code does.
pub fn kernel_ms() -> f64 {
    const N: u64 = 1500;
    let t = Instant::now();
    let mut by_name = HashMap::new();
    for i in 0..N {
        by_name.insert(format!("attendee{i:05}"), i);
    }
    let mut hits = 0;
    for i in 0..N {
        hits += by_name
            .get(&format!("attendee{:05}", i * 7 % N))
            .copied()
            .unwrap_or(0);
    }
    let mut ordered = BTreeMap::new();
    for i in 0..N {
        ordered.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20, vec![i; 3]);
    }
    let sum: u64 = ordered.values().map(|v| v[0]).sum();
    std::hint::black_box((hits, sum));
    t.elapsed().as_nanos() as f64 / 1e6
}

/// Median kernel time over a few runs: the host's speed around a set-up.
pub fn host_ms() -> f64 {
    let runs: Vec<f64> = (0..SETUP_RUNS).map(|_| kernel_ms()).collect();
    stats::median(&runs).unwrap_or(REFERENCE_MS)
}

/// Kernel times taken through a timed phase. The default times the
/// kernel whenever asked and adds no margin.
#[derive(Debug, Default)]
pub struct Calibration {
    every_ns: u64,
    margin_ns: u64,
    at_ns: Vec<u64>,
    ms: Vec<f64>,
}

impl Calibration {
    /// Times the kernel at most every `every_ns` (0: whenever asked) and
    /// scales a figure by the kernel times taken while it was measured,
    /// widened by `margin_ns` on either side.
    pub fn new(every_ns: u64, margin_ns: u64) -> Calibration {
        Calibration {
            every_ns,
            margin_ns,
            at_ns: Vec::new(),
            ms: Vec::new(),
        }
    }

    /// Whether the kernel is due at `now_ns` (time since the phase began).
    pub fn due(&self, now_ns: u64) -> bool {
        self.at_ns
            .last()
            .is_none_or(|&t| now_ns >= t + self.every_ns)
    }

    /// Times the kernel, starting at `now_ns`.
    pub fn sample(&mut self, now_ns: u64) {
        self.ms.push(kernel_ms());
        self.at_ns.push(now_ns);
    }

    /// Median kernel time over the whole phase.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.ms).unwrap_or(REFERENCE_MS)
    }

    /// The factor that scales a figure measured from `from_ns` to `to_ns`
    /// to the reference host: from the median kernel time in that span
    /// widened by the margin (of the whole phase if none falls in it).
    pub fn scale_over(&self, from_ns: u64, to_ns: u64) -> f64 {
        let lo = self
            .at_ns
            .partition_point(|&t| t + self.margin_ns < from_ns);
        let hi = self.at_ns.partition_point(|&t| t <= to_ns + self.margin_ns);
        let near = stats::median(&self.ms[lo..hi]).unwrap_or_else(|| self.median_ms());
        REFERENCE_MS / near
    }

    /// Latencies `ms[i]`, which ended at `end_ns[i]`, scaled to the
    /// reference host.
    pub fn scaled(&self, ms: &[f64], end_ns: &[u64]) -> Vec<f64> {
        ms.iter()
            .zip(end_ns)
            .map(|(&v, &end)| {
                let from = end.saturating_sub((v * 1e6) as u64);
                v * self.scale_over(from, end)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_kernel_times_around_a_figure() {
        let mut c = Calibration::new(EVERY_NS, 250_000_000);
        // Kernel timed every 100 ms: a host at reference speed for 2 s,
        // then half as fast for 4 s.
        for k in 0..60u64 {
            c.at_ns.push(k * 100_000_000);
            let slow = if k < 20 { 1.0 } else { 2.0 };
            c.ms.push(slow * REFERENCE_MS);
        }
        assert_eq!(c.scale_over(400_000_000, 500_000_000), 1.0);
        assert_eq!(c.scale_over(5_000_000_000, 5_500_000_000), 0.5);
        // Far beyond the last sample: the phase's median.
        assert_eq!(c.scale_over(60_000_000_000, 60_000_000_000), 0.5);
        // 4 ms ending at 10 ms, 8 ms ending at 5.9 s.
        assert_eq!(
            c.scaled(&[4.0, 8.0], &[10_000_000, 5_900_000_000]),
            vec![4.0, 4.0]
        );
        assert!(c.due(5_900_000_000 + EVERY_NS));
        assert!(!c.due(5_900_000_000 + EVERY_NS - 1));
        assert!(Calibration::new(0, 0).due(0));
    }

    #[test]
    fn kernel_takes_time() {
        assert!(kernel_ms() > 0.0);
        assert!(host_ms() > 0.0);
    }
}
