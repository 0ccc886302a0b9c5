//! Order statistics for job latencies and for comparing run sets.

/// Median of `xs` (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads `--compare` prints match the ones acceptance checks use.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `p`-th percentile of `xs` by nearest rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len().max(1));
    s.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// Percentile rungs the tail metric chooses from.
const RUNGS: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest rung with at least ten samples beyond it (nearest-rank),
/// and its value: the tail a run of `xs.len()` samples can support.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let p = RUNGS
        .iter()
        .copied()
        .rfind(|&p| n >= rank(p) + 10)
        .unwrap_or(50.0);
    (p, percentile(xs, p))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&xs[..99]).0, 75.0);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), (99.0, 990.0));
        assert_eq!(tail(&[1.0]).0, 50.0);
    }
}
