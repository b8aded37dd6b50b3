//! The calibration kernel: a fixed single-thread RNG + `FenwickSampler`
//! loop, timed at the start and the end of every run.
//!
//! Its work never changes with the workload or the seed, so its time is a
//! reading of the machine's speed at that moment. Two readings that differ
//! by more than the benchmark's bound flag the run as taken on a machine
//! whose speed moved under it. The end-to-end metrics are never rescaled by
//! it; it is recorded beside them for comparisons across machines.

use avc_population::sampler::FenwickSampler;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Categories in the sampler (a mid-sized AVC state space).
const CATEGORIES: usize = 1_024;
/// Draw-and-move iterations per reading.
const ITERATIONS: u64 = 4_000_000;

/// Seconds one pass of the fixed kernel takes on this machine now.
#[must_use]
pub fn calib_s() -> f64 {
    let started = Instant::now();
    black_box(kernel(black_box(ITERATIONS)));
    started.elapsed().as_secs_f64()
}

/// Moves one unit of weight at a time from a sampled category to a
/// pseudo-random one — the draw/update pattern of the count engines.
fn kernel(iterations: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x5eed_ca1b);
    let weights: Vec<u64> = (1..=CATEGORIES as u64).collect();
    let mut sampler = FenwickSampler::from_weights(&weights);
    let mut checksum = 0u64;
    for _ in 0..iterations {
        let from = sampler.select(rng.next_u64() % sampler.total());
        let to = (rng.next_u64() % CATEGORIES as u64) as usize;
        sampler.add(from, -1);
        sampler.add(to, 1);
        checksum = checksum.wrapping_add(from as u64);
    }
    checksum
}

/// Relative change between the start and end readings.
#[must_use]
pub fn drift(start_s: f64, end_s: f64) -> f64 {
    (end_s - start_s).abs() / start_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(10_000), kernel(10_000));
    }

    #[test]
    fn drift_is_relative() {
        assert!((drift(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((drift(2.0, 1.8) - 0.1).abs() < 1e-12);
    }
}
