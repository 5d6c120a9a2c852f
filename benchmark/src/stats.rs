//! Order statistics used by the report and by `compare`.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `None` when the
/// sample is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it (p99 needs 1000 samples, p90 needs 100); below that the value is
/// noise and the caller must say so instead of printing it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = sorted.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < 10.0 {
        return None;
    }
    nearest_rank(sorted, q)
}

/// A tail percentile, falling back to the sample maximum (an upper bound
/// of it) when the sample is too small for [`tail_percentile`].
pub fn tail_or_max(sorted: &[f64], q: f64) -> f64 {
    tail_percentile(sorted, q)
        .or_else(|| sorted.last().copied())
        .unwrap_or(0.0)
}

/// Sorts a sample ascending (total order; the benchmark never produces NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the even-count midpoint rule. Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed here
/// match any reviewer's one-liner. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// FNV-1a over 64-bit words: the fingerprint of a cell's exact counts.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one value in.
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes a string in (length-prefixed so concatenations differ).
    pub fn add_str(&mut self, s: &str) {
        self.add(s.len() as u64);
        for byte in s.bytes() {
            self.add(u64::from(byte));
        }
    }

    /// The digest.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_on_known_inputs() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
    }

    #[test]
    fn tail_guard_refuses_p99_below_1000_samples() {
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.99), None);
        assert_eq!(tail_or_max(&small, 0.99), 999.0);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(990.0));
        let p90: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&p90, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&p90[..99], 0.90), None);
        assert_eq!(tail_or_max(&[], 0.99), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fingerprint_separates_order_and_content() {
        let digest = |vals: &[u64]| {
            let mut f = Fingerprint::default();
            for v in vals {
                f.add(*v);
            }
            f.value()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        let mut a = Fingerprint::default();
        a.add_str("ab");
        a.add_str("c");
        let mut b = Fingerprint::default();
        b.add_str("a");
        b.add_str("bc");
        assert_ne!(a.value(), b.value());
    }
}
