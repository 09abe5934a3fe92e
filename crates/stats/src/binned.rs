//! Binned ratio estimation — the machinery behind the paper's empirical
//! distance preference function (Section V, equation 1):
//!
//! ```text
//!            # links with length in [d, d+b)
//! f̂(d) = ─────────────────────────────────────
//!          # node pairs with distance in [d, d+b)
//! ```
//!
//! A [`BinnedRatio`] accumulates the numerator (links) and denominator
//! (node pairs) into aligned fixed-width bins and yields the per-bin ratio
//! series (Figure 4), the small-`d` semi-log view (Figure 5), and the
//! cumulated series `F(d) = Σ_{d'<d} f(d')` for the large-`d` regime
//! (Figure 6).

use crate::dist::Histogram;
use serde::{Deserialize, Serialize};

/// Paired histograms producing a per-bin ratio estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedRatio {
    numerator: Histogram,
    denominator: Histogram,
}

/// One bin of the estimated function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioBin {
    /// Lower edge of the bin (the paper plots f(d) at multiples of b).
    pub d: f64,
    /// Estimated ratio; `None` when the denominator is empty.
    pub value: Option<f64>,
    /// Numerator count in the bin.
    pub num: u64,
    /// Denominator count in the bin.
    pub den: u64,
}

/// A cumulated series `F(d)` with its supporting points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CumulatedSeries {
    /// `(d, F(d))` points, one per bin edge.
    pub points: Vec<(f64, f64)>,
}

impl BinnedRatio {
    /// Creates aligned numerator/denominator histograms with `bins` bins
    /// of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `bin_width` or zero `bins` (programming
    /// errors).
    pub fn new(bin_width: f64, bins: usize) -> Self {
        BinnedRatio {
            numerator: Histogram::new(bin_width, bins),
            denominator: Histogram::new(bin_width, bins),
        }
    }

    /// Records one numerator observation (a link of length `d`).
    pub fn add_num(&mut self, d: f64) {
        self.numerator.add(d);
    }

    /// Records `n` numerator observations at `d`.
    pub fn add_num_n(&mut self, d: f64, n: u64) {
        self.numerator.add_n(d, n);
    }

    /// Records one denominator observation (a node pair at distance `d`).
    pub fn add_den(&mut self, d: f64) {
        self.denominator.add(d);
    }

    /// Records `n` denominator observations at `d` (grid-convolution path).
    pub fn add_den_n(&mut self, d: f64, n: u64) {
        self.denominator.add_n(d, n);
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        self.numerator.bin_width()
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.numerator.bins()
    }

    /// The estimated ratio series, one entry per bin.
    pub fn ratios(&self) -> Vec<RatioBin> {
        (0..self.bins())
            .map(|i| {
                let num = self.numerator.counts()[i];
                let den = self.denominator.counts()[i];
                RatioBin {
                    d: self.numerator.bin_lo(i),
                    value: if den > 0 {
                        Some(num as f64 / den as f64)
                    } else {
                        None
                    },
                    num,
                    den,
                }
            })
            .collect()
    }

    /// Cumulated series `F(d) = Σ_{d' < d} f(d')` over all bins with a
    /// defined estimate. `F` is evaluated at each bin's *upper* edge.
    /// Bins with an empty denominator contribute no point: `f` is
    /// undefined there, so repeating the accumulated value would plot a
    /// flat segment Figure 6 never measured (visible as spurious plateaus
    /// across sparse large-`d` gaps).
    pub fn cumulated(&self) -> CumulatedSeries {
        let mut acc = 0.0;
        let mut points = Vec::with_capacity(self.bins());
        for bin in self.ratios() {
            if let Some(v) = bin.value {
                acc += v;
                points.push((bin.d + self.bin_width(), acc));
            }
        }
        CumulatedSeries { points }
    }

    /// Mean ratio over bins `from..to` (for estimating the flat large-`d`
    /// level that Table V intersects with the exponential fit).
    pub fn mean_ratio_in(&self, from: usize, to: usize) -> Option<f64> {
        let bins = self.ratios();
        let vals: Vec<f64> = bins
            .get(from..to.min(bins.len()))?
            .iter()
            .filter_map(|b| b.value)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Total numerator observations that fell in range.
    pub(crate) fn num_total(&self) -> u64 {
        self.numerator.total()
    }

    /// Total denominator observations that fell in range.
    pub fn den_total(&self) -> u64 {
        self.denominator.total()
    }

    /// Numerator observations with `d` below `limit` as a fraction of all
    /// in-range numerator observations (the "% links < limit" column of
    /// Table V). `None` if no numerator observations are in range.
    pub fn num_fraction_below(&self, limit: f64) -> Option<f64> {
        let total = self.num_total();
        if total == 0 {
            return None;
        }
        let mut below = 0u64;
        for i in 0..self.bins() {
            if self.numerator.bin_lo(i) + self.bin_width() <= limit {
                below += self.numerator.counts()[i];
            } else if self.numerator.bin_lo(i) < limit {
                // Partial bin: attribute proportionally.
                let frac = (limit - self.numerator.bin_lo(i)) / self.bin_width();
                below += (self.numerator.counts()[i] as f64 * frac).round() as u64;
            }
        }
        Some(below as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert exact expected values; bitwise float equality is the point.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn ratio_basic() {
        let mut br = BinnedRatio::new(10.0, 3);
        // Bin 0: 2 links out of 8 pairs -> 0.25.
        for _ in 0..2 {
            br.add_num(5.0);
        }
        br.add_den_n(5.0, 8);
        // Bin 1: no pairs -> None.
        br.add_num(15.0);
        // Bin 2: pairs but no links -> 0.
        br.add_den_n(25.0, 4);
        let r = br.ratios();
        assert_eq!(r[0].value, Some(0.25));
        assert_eq!(r[1].value, None);
        assert_eq!(r[2].value, Some(0.0));
        assert_eq!(r[0].d, 0.0);
        assert_eq!(r[1].d, 10.0);
    }

    #[test]
    fn cumulated_is_monotone() {
        let mut br = BinnedRatio::new(1.0, 10);
        for i in 0..10 {
            br.add_num_n(i as f64 + 0.5, (10 - i) as u64);
            br.add_den_n(i as f64 + 0.5, 100);
        }
        let c = br.cumulated();
        for w in c.points.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        // F at the last edge = sum of all f values = (10+9+...+1)/100.
        let want = 55.0 / 100.0;
        assert!((c.points.last().unwrap().1 - want).abs() < 1e-12);
    }

    #[test]
    fn constant_f_gives_linear_cumulation() {
        let mut br = BinnedRatio::new(1.0, 50);
        for i in 0..50 {
            br.add_num_n(i as f64 + 0.5, 3);
            br.add_den_n(i as f64 + 0.5, 300);
        }
        let c = br.cumulated();
        // F(d) = 0.01 * d exactly.
        for (d, f) in &c.points {
            assert!((f - 0.01 * d).abs() < 1e-9, "d={d} f={f}");
        }
    }

    #[test]
    fn cumulated_skips_empty_denominator_bins() {
        // Bins 0 and 2 have estimates; bin 1 is an interior gap (no node
        // pair at that distance). The gap must yield no point at all —
        // not a repeat of the running total at the gap's edge.
        let mut br = BinnedRatio::new(10.0, 3);
        br.add_num_n(5.0, 2);
        br.add_den_n(5.0, 10); // bin 0: f = 0.2
        br.add_num(15.0); // bin 1: numerator only -> undefined
        br.add_num_n(25.0, 3);
        br.add_den_n(25.0, 10); // bin 2: f = 0.3
        let c = br.cumulated();
        assert_eq!(c.points.len(), 2, "undefined bin produced a point");
        assert_eq!(c.points[0], (10.0, 0.2));
        assert_eq!(c.points[1], (30.0, 0.5));
        assert!(
            c.points.iter().all(|(d, _)| *d != 20.0),
            "a point was emitted at the gap's upper edge"
        );
    }

    #[test]
    fn mean_ratio_in_range() {
        let mut br = BinnedRatio::new(1.0, 4);
        br.add_num_n(0.5, 1);
        br.add_den_n(0.5, 10); // 0.1
        br.add_num_n(1.5, 3);
        br.add_den_n(1.5, 10); // 0.3
        assert_eq!(br.mean_ratio_in(0, 2), Some(0.2));
        assert_eq!(br.mean_ratio_in(2, 4), None); // empty bins
    }

    #[test]
    fn mean_ratio_in_degenerate_windows() {
        let mut br = BinnedRatio::new(1.0, 4);
        for i in 0..4 {
            br.add_num_n(i as f64 + 0.5, 1);
            br.add_den_n(i as f64 + 0.5, 10);
        }
        // Inverted window (from > to): no bins, not a panic.
        assert_eq!(br.mean_ratio_in(3, 1), None);
        // Start past the end: out of range entirely.
        assert_eq!(br.mean_ratio_in(4, 8), None);
        assert_eq!(br.mean_ratio_in(17, 20), None);
        // End past the last bin clamps instead of failing.
        assert_eq!(br.mean_ratio_in(2, 100), Some(0.1));
        // Empty window at a valid index.
        assert_eq!(br.mean_ratio_in(2, 2), None);
    }

    #[test]
    fn fraction_below_limit() {
        let mut br = BinnedRatio::new(10.0, 10);
        // 8 links below 50, 2 links above.
        for d in [5.0, 15.0, 25.0, 35.0, 45.0, 5.0, 15.0, 25.0] {
            br.add_num(d);
        }
        br.add_num(75.0);
        br.add_num(85.0);
        let f = br.num_fraction_below(50.0).unwrap();
        assert!((f - 0.8).abs() < 1e-12, "{f}");
        assert_eq!(BinnedRatio::new(1.0, 2).num_fraction_below(1.0), None);
    }

    #[test]
    fn fraction_below_partial_bin() {
        let mut br = BinnedRatio::new(10.0, 10);
        br.add_num_n(5.0, 100); // bin [0,10)
        let f = br.num_fraction_below(5.0).unwrap();
        assert!((f - 0.5).abs() < 1e-12, "{f}");
    }

    #[test]
    fn exponential_decay_recoverable_via_semilog_fit() {
        // End-to-end: fill bins following f(d) = 0.01 exp(-d/100) and
        // recover the decay rate with the Figure-5 fit.
        let mut br = BinnedRatio::new(5.0, 60);
        for i in 0..60 {
            let d = i as f64 * 5.0;
            let f = 0.01 * (-d / 100.0).exp();
            let den = 1_000_000u64;
            br.add_den_n(d + 2.5, den);
            br.add_num_n(d + 2.5, (f * den as f64).round() as u64);
        }
        let bins = br.ratios();
        let xs: Vec<f64> = bins.iter().map(|b| b.d).collect();
        let ys: Vec<f64> = bins.iter().map(|b| b.value.unwrap_or(0.0)).collect();
        let fit = crate::regression::fit_semilog(&xs, &ys).unwrap();
        assert!((fit.slope + 0.01).abs() < 5e-4, "slope {}", fit.slope);
    }
}
