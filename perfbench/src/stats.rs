//! Sample statistics: nearest-rank percentiles and the tail rule.

/// The percentiles a tail may be reported at, lowest first. A fixed ladder
/// keeps the reported percentile the same from run to run when the sample
/// count moves a little.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in `n` samples. The small
/// slack keeps a product that should be whole (99.9% of 10000) from
/// rounding up past it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 50th percentile) of an unordered sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Each operation's median time over repeated rounds (one sample per
/// operation per round). Rounds lie seconds apart, so a slowdown of the
/// shared host rarely catches an operation in most of them.
///
/// # Panics
///
/// Panics when rounds differ in length or there are none.
pub fn median_of(rounds: &[Vec<f64>]) -> Vec<f64> {
    let first = rounds.first().expect("at least one round");
    (0..first.len())
        .map(|i| {
            let samples: Vec<f64> = rounds
                .iter()
                .map(|r| {
                    assert_eq!(
                        r.len(),
                        first.len(),
                        "rounds must repeat the same operations"
                    );
                    r[i]
                })
                .collect();
            median(&samples)
        })
        .collect()
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail latency and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile that still has at least [`TAIL_BEYOND`]
/// samples beyond its rank.
///
/// # Errors
///
/// Refuses a sample too small to support even the median with
/// [`TAIL_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Result<Tail, String> {
    let s = sorted(values);
    let n = s.len();
    let refuse = || {
        format!("{n} samples cannot support a tail percentile with {TAIL_BEYOND} samples beyond it")
    };
    if n == 0 {
        return Err(refuse());
    }
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, n - rank(n, p)))
        .find(|&(_, beyond)| beyond >= TAIL_BEYOND)
        .map(|(p, beyond)| Tail {
            percentile: p,
            value: percentile(&s, p),
            beyond,
            samples: n,
        })
        .ok_or_else(refuse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending on purpose: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
        let t = tail(&ramp(100)).expect("100 samples");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // 99 samples: p90 has rank 90 and only 9 beyond, so the rule
        // falls back to the median.
        let t = tail(&ramp(99)).expect("99 samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50.0, 49));
        // 1000 samples reach p99; 10000 reach p99.9.
        assert_eq!(tail(&ramp(1000)).expect("1000").percentile, 99.0);
        assert_eq!(tail(&ramp(10_000)).expect("10000").percentile, 99.9);
        assert_eq!(tail(&ramp(9_999)).expect("9999").percentile, 99.0);
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert!(tail(&[]).is_err());
        assert!(tail(&ramp(19)).is_err());
        let t = tail(&ramp(20)).expect("20 samples support the median");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn median_of_takes_each_operations_middle_round() {
        let rounds = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 4.5],
        ];
        assert_eq!(median_of(&rounds), vec![3.0, 4.0, 5.0]);
        assert_eq!(median_of(&rounds[..1]), rounds[0]);
        // An even count takes the lower middle sample (nearest rank).
        assert_eq!(median_of(&rounds[..2]), vec![2.0, 1.0, 5.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
