//! The speed reference: a fixed piece of general-purpose work, timed
//! between the program's operations, that turns wall times into times at a
//! fixed host speed.
//!
//! On a shared host the speed of one core drifts by tens of percent, over
//! seconds and over minutes, while CPU time stays equal to wall time: the
//! neighbours slow the core down rather than take it away. A run cannot
//! escape the drift, but it can measure it. Every operation is bracketed by
//! two readings of [`reference_ns`], which runs the same work each time,
//! and its wall time is scaled by [`NOMINAL_NS`] over their mean.
//!
//! The work was chosen by how closely its slowdowns follow the
//! simulator's. On a 2-vCPU KVM guest (Intel Xeon, 2.1 GHz), with
//! candidates timed right before each of 5,500 simulation jobs over six
//! minutes and the slowdowns averaged over 30 s windows, the simulator's
//! slowdown went as the candidate's to the power 0.99 for this work
//! (number formatting and parsing, string sorting), 1.26 for a mix of
//! ordered and hashed maps, 1.55 for a small pipeline model and 2.29 for a
//! table-lookup loop; calibrating by this work cut the windows' spread
//! from 11.4% to 1.2% (standard deviation of the mean log time), about as
//! well as a short simulation job did (1.1%).
//!
//! The reference is part of the benchmark, not of the program: a change to
//! the program cannot speed it up, so it moves calibrated times exactly as
//! it moves wall times on a steady host.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::Outcome;
use crate::stats::{median, median_of};

/// Steps of the reference work: about 2 ms on the host above.
const STEPS: usize = 3_500;

/// The reference's time, in ns, at the speed calibrated times are
/// expressed at: about its time on the host above. It only sets the scale;
/// the benchmark compares runs with the same constant.
pub const NOMINAL_NS: f64 = 2.0e6;

/// One pass of the reference work. It is the same every time: a fixed
/// xorshift stream drives formatting a float in scientific notation and
/// parsing it back, formatting an integer in hexadecimal, and every 64
/// steps sorting and de-duplicating the strings made since.
fn work(steps: usize) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut words: Vec<String> = Vec::with_capacity(64);
    let mut acc = 0u64;
    for i in 0..steps as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
        acc += format!("{f:.6e}").parse::<f64>().map_or(0, |v| v as u64);
        words.push(format!("{:x}-{}", x >> 40, i % 97));
        if words.len() == 64 {
            words.sort();
            words.dedup();
            acc += words.iter().map(|w| w.len() as u64).sum::<u64>();
            words.clear();
        }
    }
    acc
}

/// Runs the reference work once and returns its wall time in ns.
pub fn reference_ns() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(STEPS)));
    start.elapsed().as_nanos() as f64
}

/// The factor that scales a time measured between reference readings
/// `before` and `after` (ns) to the nominal speed.
pub fn factor(before: f64, after: f64) -> f64 {
    NOMINAL_NS / ((before + after) / 2.0)
}

/// Scales each block of `times` to the nominal speed. `bounds[b]` is the
/// index of block `b`'s first time and `refs[b]` the reading taken just
/// before it; `refs` has one more reading, taken after the last block.
///
/// # Panics
///
/// Panics unless `refs` has one reading per block plus one.
pub fn calibrate(times: &[f64], bounds: &[usize], refs: &[f64]) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        bounds.len() + 1,
        "one reading per block plus one"
    );
    let mut out = Vec::with_capacity(times.len());
    for (b, &start) in bounds.iter().enumerate() {
        let end = bounds.get(b + 1).copied().unwrap_or(times.len());
        let f = factor(refs[b], refs[b + 1]);
        out.extend(times[start..end].iter().map(|t| t * f));
    }
    out
}

/// Records in the info line what calibration started from: the throughput
/// and median operation time of the uncalibrated wall times
/// (`wall_ms[round][operation]`, with `nominal` instructions per round), and
/// the reference's median reading. Their ratio to the calibrated figures
/// is the host's speed during the run.
pub fn record_wall_times(out: &mut Outcome, nominal: f64, wall_ms: &[Vec<f64>], refs_ns: &[f64]) {
    let typical = median_of(wall_ms);
    let busy_s = typical.iter().sum::<f64>() / 1e3;
    out.info
        .num("raw_sim_minst_per_s", nominal / busy_s / 1e6)
        .num("raw_latency_p50_ms", median(&typical))
        .num("reference_p50_ms", median(refs_ns) / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_the_same_every_time() {
        assert_eq!(work(3000), work(3000));
        assert_ne!(work(3000), work(6000));
    }

    #[test]
    fn calibration_scales_each_block_by_its_bracketing_readings() {
        let n = NOMINAL_NS;
        // Block 0 ran at half speed (readings 2n and 2n), block 1 between
        // a slow and a nominal reading (mean 1.5n).
        let got = calibrate(&[4.0, 6.0, 3.0], &[0, 2], &[2.0 * n, 2.0 * n, n]);
        assert_eq!(got, vec![2.0, 3.0, 2.0]);
        assert_eq!(factor(n, n), 1.0);
    }
}
