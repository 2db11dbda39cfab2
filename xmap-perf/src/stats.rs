//! Order statistics over latency samples, with the sample-count rule.
//!
//! A percentile is only as good as the number of samples beyond it: the report
//! gives every percentile together with its sample count and how many samples
//! lie above it, and calls it *supported* when at least [`MIN_BEYOND`] do.

use xmap_eval::json::Json;

/// Samples that must lie strictly above a percentile for it to count as supported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile of a sample set, with its support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1]`.
    pub q: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub n: usize,
    /// Number of samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// The percentile as a report entry.
    pub fn json(&self) -> Json {
        Json::obj([
            ("q", Json::Num(self.q)),
            ("value", Json::Num(self.value)),
            ("n", Json::Num(self.n as f64)),
            ("beyond", Json::Num(self.beyond as f64)),
            ("supported", Json::Bool(self.supported())),
            ("n_needed", Json::Num(min_samples_for(self.q) as f64)),
        ])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q · n` samples at or
/// below it. `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        q,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median (mean of the two middle samples for an even count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Cuts a time-ordered sample stream into runs of `block` consecutive samples. A
/// trailing partial run is dropped when there is a full one; a stream shorter than
/// one block is a single run.
pub fn blocks(samples: &[f64], block: usize) -> impl Iterator<Item = &[f64]> {
    let block = block.max(1);
    let full = samples.len() / block;
    let take = if full == 0 {
        usize::from(!samples.is_empty())
    } else {
        full
    };
    samples.chunks(block).take(take)
}

/// The `q` percentile of the fastest block of a time-ordered latency stream, with
/// the number of blocks. When every block repeats the same work, interference from
/// other tenants of a shared host can only slow a block down, so the fastest block
/// is the one that estimates the program's own cost. `None` for an empty stream.
pub fn fastest_block_percentile(samples: &[f64], q: f64, block: usize) -> Option<(f64, usize)> {
    let per_block: Vec<f64> = blocks(samples, block)
        .filter_map(|b| percentile(b, q).map(|p| p.value))
        .collect();
    let fastest = per_block.iter().copied().min_by(f64::total_cmp)?;
    Some((fastest, per_block.len()))
}

/// Operations per second of the fastest block of a time-ordered latency stream
/// (`scale` converts one sample to seconds): the block's sample count over the sum
/// of its samples. NaN for an empty stream.
pub fn fastest_block_rate(samples: &[f64], block: usize, scale: f64) -> f64 {
    blocks(samples, block)
        .map(|b| b.len() as f64 / (b.iter().sum::<f64>() * scale))
        .max_by(f64::total_cmp)
        .unwrap_or(f64::NAN)
}

/// The smallest of a set of repeated timings; NaN when there are none.
pub fn fastest(times: &[f64]) -> f64 {
    times
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(f64::NAN)
}

/// The smallest sample count at which the `q` percentile is supported.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| percentile_rank_beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

fn percentile_rank_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.supported(), "1 sample beyond p99 is not enough");
        let p100 = percentile(&xs, 1.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5).unwrap().value, 3.0);
        assert_eq!(percentile(&xs, 0.2).unwrap().value, 1.0);
        assert_eq!(percentile(&xs, 0.21).unwrap().value, 2.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        // p99 needs 1000 samples (ten beyond rank 990), p95 needs 200.
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.95), 200);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&xs, 0.99).unwrap().supported());
        assert!(!percentile(&xs[..999], 0.99).unwrap().supported());
        let ys: Vec<f64> = (0..199).map(f64::from).collect();
        let p95 = percentile(&ys, 0.95).unwrap();
        assert_eq!(p95.beyond, 9);
        assert!(!p95.supported());
    }

    #[test]
    fn fastest_block_ignores_slow_blocks() {
        // Five blocks of 1,000 samples; all but the third are uniformly slower.
        let mut xs: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for (i, x) in xs.iter_mut().enumerate() {
            if !(2000..3000).contains(&i) {
                *x *= 2.0 + (i / 1000) as f64;
            }
        }
        let (p99, blocks) = fastest_block_percentile(&xs, 0.99, 1000).unwrap();
        assert_eq!((p99, blocks), (989.0, 5));
        assert!(percentile(&xs, 0.99).unwrap().value > 2000.0);
        // A trailing partial block is dropped; a short stream is one block.
        let mut longer = xs.clone();
        longer.extend((0..500).map(f64::from));
        assert_eq!(
            fastest_block_percentile(&longer, 0.5, 1000).unwrap(),
            (499.0, 5)
        );
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fastest_block_percentile(&few, 0.99, 1000), Some((99.0, 1)));
        assert_eq!(fastest_block_percentile(&[], 0.99, 1000), None);
        // Rates: the fastest of two blocks of two samples each, in µs.
        let us = [2.0, 2.0, 1.0, 1.0, 9.0];
        assert_eq!(fastest_block_rate(&us, 2, 1e-6), 1e6);
        assert!(fastest_block_rate(&[], 2, 1e-6).is_nan());
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
