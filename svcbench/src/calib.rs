//! Host-speed calibration: a fixed kernel of the benchmark's own, timed
//! between queries, that the latencies are scaled by.
//!
//! The host shares its cores with other machines, and its speed moves by
//! half between runs minutes apart: the hypervisor steals CPU time, one
//! of the two virtual CPUs is at times barely scheduled, and at other
//! times a neighbour on the same physical core slows every instruction.
//! Over ten `cold_prepare` runs of 50 s the measured median latency ranged
//! from 211 to 312 ms, and the CPU time of a query moved with it.
//!
//! The kernel — hashed scatter-adds into a 256 KiB table and a
//! floating-point sum, the shape of a sketch absorb — runs on two threads
//! at once, so that it slows with both kinds of contention: a slower core
//! and a missing one. In those ten runs, the median latency scaled by the
//! median kernel time ranged from 201 to 237 ms, nine of them within 4%.
//! A single-threaded kernel tracked far worse in trials, because it misses
//! the missing core. The scaling is a model, not a measurement of the
//! program: under heavy steal (20–30%), or when the host ran unusually
//! fast, about one run in ten still read up to 25% off the others.
//!
//! Every client times the kernel between its queries, never during one,
//! and at most every 100 ms (after each preparing query). The run's
//! latencies are reported at the reference speed, scaled by
//! [`REFERENCE_MS`] over the median kernel time of the window. The kernel
//! uses no code of the program under test, so a change to the program
//! cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in ms, on the host the benchmark is scaled to.
pub const REFERENCE_MS: f64 = 3.5;
const TABLE: usize = 1 << 15;
const STEPS: usize = 1_000_000;

/// Two tables, allocated once, that the kernel's two threads write.
pub struct Calibrator {
    tables: [Vec<u64>; 2],
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            tables: [vec![0; TABLE], vec![0; TABLE]],
        }
    }

    /// Runs the kernel on two threads at once and returns the wall time
    /// until both are done, in ms.
    pub fn pass_ms(&mut self) -> f64 {
        let [a, b] = &mut self.tables;
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            let other = sc.spawn(|| black_box(kernel(black_box(b), 2)));
            black_box(kernel(black_box(a), 1));
            other.join().expect("calibration thread");
        });
        t0.elapsed().as_secs_f64() * 1e3
    }
}

fn kernel(table: &mut [u64], seed: u64) -> u64 {
    table.fill(0);
    let mut x = seed;
    let mut acc = 0.0f64;
    for _ in 0..STEPS {
        // SplitMix64.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let j = (z as usize) & (TABLE - 1);
        table[j] = table[j].wrapping_add(z);
        acc += (z >> 11) as f64 * 1e-9;
    }
    table.iter().fold(acc.to_bits(), |a, &b| a ^ b)
}

/// The factor a run's latencies are scaled by: [`REFERENCE_MS`] over the
/// median of its kernel times; 1 without any.
pub fn speed_factor(calib_ms: &[f64]) -> f64 {
    crate::stats::median(calib_ms).map_or(1.0, |m| REFERENCE_MS / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_to_the_reference_by_the_median() {
        assert_eq!(speed_factor(&[2.0 * REFERENCE_MS, 9.0, 1.0]), 0.5);
        assert_eq!(speed_factor(&[]), 1.0);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        let mut t = vec![0; TABLE];
        let once = kernel(&mut t, 1);
        assert_eq!(kernel(&mut t, 1), once);
        assert_ne!(kernel(&mut t, 2), once);
    }
}
