//! Order statistics and small reporting helpers of the benchmark.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here over a set of run
//! results matches the one an external script computes over the same values.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Median over `groups` interleaved groups of samples, each valued at its
/// mean: group `g` holds samples `g`, `g + groups`, `g + 2·groups`, …, so
/// every group spans the whole series. On a host that flips between two
/// speed levels every few seconds, a plain median of time-ordered samples
/// jumps between the levels with the share of time spent in each; the
/// group means move smoothly with that share, and their median still drops
/// a stray group. `None` for an empty slice or no groups.
pub fn median_of_means(values: &[f64], groups: usize) -> Option<f64> {
    if values.is_empty() || groups == 0 {
        return None;
    }
    let means: Vec<f64> = (0..groups.min(values.len()))
        .map(|g| {
            let group: Vec<f64> = values.iter().skip(g).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len() as f64
        })
        .collect();
    median(&means)
}

/// First quartile, median and third quartile, interpolated exactly like
/// `statistics.quantiles(values, n=4)`. A single value is its own quartiles;
/// `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Minimum, quartiles and maximum of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, _, q3] = quartiles(values)?;
        let s = sorted(values);
        Some(Summary {
            count: s.len(),
            min: s[0],
            q1,
            median: median(values)?,
            q3,
            max: s[s.len() - 1],
        })
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
            self.count,
            num(self.min),
            num(self.q1),
            num(self.median),
            num(self.q3),
            num(self.max)
        )
    }
}

/// The highest whole percentile `p` (1 ≤ p ≤ 99) whose nearest-rank value
/// still has at least `min_beyond` samples strictly above its rank, with
/// that value. A tail percentile read from fewer samples than that is noise,
/// so `None` when even `p = 1` leaves too few samples beyond it.
pub fn tail_percentile(values: &[f64], min_beyond: usize) -> Option<(u32, f64)> {
    let s = sorted(values);
    let n = s.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= min_beyond).then(|| (p, s[rank - 1]))
    })
}

/// A ratio that always travels with its base: the numerator and the
/// denominator it was computed from, each with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
    pub unit: &'static str,
}

impl Ratio {
    /// `None` when the denominator is zero (the ratio has no base).
    pub fn value(&self) -> Option<f64> {
        (self.den != 0.0).then(|| self.num / self.den)
    }

    /// `"1.432 (6.600 s / 4.609 s)"`, or `"n/a (0 s base)"`.
    pub fn render(&self) -> String {
        match self.value() {
            Some(v) => format!(
                "{v:.3} ({:.3} {u} / {:.3} {u})",
                self.num,
                self.den,
                u = self.unit
            ),
            None => format!("n/a (0 {} base)", self.unit),
        }
    }
}

/// Failed operations as a share of attempted ones; `None` when nothing was
/// attempted (a run that did nothing has no failure rate, not a zero one).
pub fn failure_share(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// A finite JSON number (non-finite values have no JSON form and become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_of_means_interleaves_groups() {
        assert_eq!(median_of_means(&[], 4), None);
        assert_eq!(median_of_means(&[1.0], 0), None);
        // Groups [1, 3], [2, 2], [10, 20]: means 2, 2, 15.
        let v = [1.0, 2.0, 10.0, 3.0, 2.0, 20.0];
        assert_eq!(median_of_means(&v, 3), Some(2.0));
        // A slow level for the first 5 samples, then a fast one: the plain
        // median sits on a level, every interleaved group mixes both.
        let levels = [3.0, 3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(median(&levels), Some(3.0));
        // Groups [3, 3, 1], [3, 3, 1], [3, 1, 1].
        let m = median_of_means(&levels, 3).unwrap();
        assert!((m - 7.0 / 3.0).abs() < 1e-12);
        // More groups than samples: one group per sample.
        assert_eq!(median_of_means(&[4.0, 1.0], 8), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_spans_min_to_max() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.count, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 10), None);
        assert_eq!(tail_percentile(&[], 10), None);
        // 11 samples: p1 … p9 all have nearest rank 1 and leave 10 above.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&eleven, 10), Some((9, 1.0)));
        // 1000 samples: p99 has rank 990 and exactly 10 samples beyond.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 10), Some((99, 990.0)));
        // 100 samples: p90 (rank 90) is the highest with 10 beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 10), Some((90, 90.0)));
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio {
            num: 6.6,
            den: 4.4,
            unit: "s",
        };
        assert!((r.value().unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(r.render(), "1.500 (6.600 s / 4.400 s)");
        let zero = Ratio {
            num: 1.0,
            den: 0.0,
            unit: "s",
        };
        assert_eq!(zero.value(), None);
        assert_eq!(zero.render(), "n/a (0 s base)");
    }

    #[test]
    fn failure_share_is_undefined_without_attempts() {
        assert_eq!(failure_share(0, 0), None);
        assert_eq!(failure_share(0, 8), Some(0.0));
        assert_eq!(failure_share(2, 8), Some(0.25));
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(1.25), "1.25");
    }
}
