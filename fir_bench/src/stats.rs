//! Order statistics over timing samples, and the failure ratio.

/// The percentiles a tail may be reported at, lowest first, in tenths of
/// a percent (integers, so that "ten beyond" is exact).
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The `p`-th percentile (0–100) of an ascending slice, by linear
/// interpolation between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it; `None` below twenty samples, where even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&p| n * (1000 - p) / 1000 >= 10)
        .map(|&p| p as f64 / 10.0)
}

/// What one timing row reports: the median, the quartiles around it, the
/// sample count, and the highest percentile the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Errors, sheds, expiries and wrong results over everything attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// A small seeded generator (splitmix64): the request order and instance
/// choice of a run are a function of `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 62.5), 3.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_quartiles_and_supported_tail() {
        let samples: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.n, s.p50, s.q1, s.q3), (101, 51.0, 26.0, 76.0));
        assert_eq!(s.tail, Some((90.0, 91.0)));
        assert_eq!(Summary::of(&[2.0, 1.0]).tail, None);
    }

    #[test]
    fn failed_share_is_failures_over_attempts() {
        assert_eq!(failed_share(0, 1000), 0.0);
        assert_eq!(failed_share(5, 1000), 0.005);
        assert_eq!(failed_share(3, 3), 1.0);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(Rng::new(1).below(10) < 10);
        assert!((0.0..1.0).contains(&Rng::new(1).unit()));
    }
}
