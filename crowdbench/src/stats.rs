//! The benchmark's one set of summary statistics.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie strictly beyond the
/// rank it falls on — a tail read off two or three outliers is noise.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - index;
    (beyond >= MIN_BEYOND).then(|| sorted[index])
}

/// Median: mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// First and third quartile, interpolated at positions `(n + 1) / 4` and
/// `3 (n + 1) / 4` of the sorted values (the "exclusive" method, Python's
/// `statistics.quantiles(values, n=4)`), clamped to the extremes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values.to_vec());
    let at = |q: f64| {
        let position = (q * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let (lo, frac) = (position.floor() as usize, position.fract());
        v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo])
    };
    (at(0.25), at(0.75))
}

/// Per statement of a replayed stream, its fastest execution: `runs[r][i]`
/// is the latency of statement `i` in repetition `r`, and every repetition
/// replays the same stream on an identically prepared engine, so the
/// minimum over `r` is the execution the host disturbed least. A slow
/// stretch of the host (they last seconds here) moves whole repetitions and
/// so moves medians of repetitions; it moves this only if it covers every
/// execution of a statement.
pub fn quiet(runs: &[&[f64]]) -> Vec<f64> {
    let first = runs.first().expect("quiet latencies of no repetition");
    assert!(
        runs.iter().all(|r| r.len() == first.len()),
        "repetitions of one stream differ in length"
    );
    (0..first.len())
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// A reported metric and how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    /// Disagreement inside the run, as a share of `value`: for a median of
    /// repetitions the distance between their quartiles, for a quiet-latency
    /// metric the distance between the first and the second half of the run.
    pub spread: f64,
    /// Extremes over single repetitions.
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    /// The median of `values`, with their quartile spread.
    pub fn median_of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let value = median(values);
        Summary {
            value,
            spread: share(q3 - q1, value),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len(),
        }
    }

    /// `value` measured over a whole run, beside the same metric taken over
    /// each half of the run and over each repetition alone.
    pub fn of_run(value: f64, halves: (f64, f64), per_repetition: &[f64]) -> Summary {
        Summary {
            value,
            spread: share((halves.0 - halves.1).abs(), value),
            ..Summary::median_of(per_repetition)
        }
    }
}

/// `part ÷ |whole|`, 0 for a zero whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole.abs()
    }
}

/// Asserts that a count repeated exactly across repetitions and returns it.
pub fn exact(name: &str, values: &[f64]) -> Result<f64, String> {
    let first = *values.first().ok_or_else(|| format!("{name}: no values"))?;
    match values.iter().find(|v| **v != first) {
        None => Ok(first),
        Some(other) => Err(format!(
            "{name} must repeat exactly for a seed but read {first} and {other}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits on rank 990: exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // One sample fewer leaves 9 beyond rank 990.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p50 of 20 samples sits on rank 10: 10 beyond; of 19, 9 beyond.
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(200);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One wild repetition does not move the reported value.
        assert_eq!(median(&[10.0, 11.0, 9.0, 10.5, 500.0]), 10.5);
    }

    #[test]
    fn summary_keeps_min_max_and_quartile_spread() {
        let s = Summary::median_of(&[10.0, 12.0, 8.0, 11.0, 9.0]);
        assert_eq!((s.value, s.min, s.max, s.samples), (10.0, 8.0, 12.0, 5));
        // Quartiles at positions 1.5 and 4.5 of 8, 9, 10, 11, 12: 8.5, 11.5.
        assert!((s.spread - 0.3).abs() < 1e-12);
        // One wild repetition widens min..max, not the quartile spread.
        let wild = Summary::median_of(&[10.0, 12.0, 8.0, 11.0, 9.0, 10.0, 10.5, 9.5, 500.0]);
        assert!(wild.spread < 0.25 && wild.max == 500.0);
        assert_eq!(Summary::median_of(&[0.0, 0.0]).spread, 0.0);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn quiet_latency_is_each_statements_fastest_execution() {
        // Repetition 2 ran on a host twice as slow; statement 1 was hit by
        // a spike in repetition 1. Neither shows.
        let runs: [&[f64]; 3] = [
            &[10.0, 90.0, 30.0],
            &[20.0, 40.0, 60.0],
            &[11.0, 21.0, 29.0],
        ];
        assert_eq!(quiet(&runs), [10.0, 21.0, 29.0]);
        assert_eq!(quiet(&runs[..1]), [10.0, 90.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn quiet_latency_needs_identical_streams() {
        quiet(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn run_summary_spread_is_the_disagreement_of_its_halves() {
        let s = Summary::of_run(100.0, (98.0, 104.0), &[120.0, 100.0, 180.0]);
        assert!((s.spread - 0.06).abs() < 1e-12);
        assert_eq!((s.value, s.min, s.max, s.samples), (100.0, 100.0, 180.0, 3));
    }

    #[test]
    fn exact_counts_must_repeat() {
        assert_eq!(exact("cents", &[7.0, 7.0, 7.0]), Ok(7.0));
        assert!(exact("cents", &[7.0, 8.0]).unwrap_err().contains("cents"));
        assert!(exact("cents", &[]).is_err());
    }
}
