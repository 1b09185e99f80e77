//! Order statistics and quality aggregation.

use dscts_core::TreeMetrics;

/// Samples a nearest-rank percentile must leave beyond it before the
/// benchmark reports it: fewer would let one outlier be the percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 1.0,
        "quantile must lie strictly inside (0, 1)"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The Table III quality of one completed op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub latency_ps: f64,
    pub skew_ps: f64,
    pub wirelength_mm: f64,
    pub buffers: f64,
    pub ntsvs: f64,
}

impl Quality {
    pub fn of(m: &TreeMetrics) -> Self {
        Quality {
            latency_ps: m.latency_ps,
            skew_ps: m.skew_ps,
            wirelength_mm: m.wirelength_nm as f64 * 1e-6,
            buffers: f64::from(m.buffers),
            ntsvs: f64::from(m.ntsvs),
        }
    }
}

/// Geometric mean of each quality field over `ops`, taken in op-index
/// order whatever order the ops completed in, so the result repeats to
/// the bit. Buffer and nTSV counts use the shifted geometric mean
/// `exp(mean(ln(1 + x))) − 1`: a single-side fallback has zero nTSVs,
/// which would zero a plain geometric mean.
pub fn quality_geomean(ops: &[(usize, Quality)]) -> Quality {
    let mut sorted: Vec<&(usize, Quality)> = ops.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    let n = sorted.len() as f64;
    let gm = |f: &dyn Fn(&Quality) -> f64| {
        (sorted.iter().map(|(_, q)| f(q).ln()).sum::<f64>() / n).exp()
    };
    Quality {
        latency_ps: gm(&|q| q.latency_ps),
        skew_ps: gm(&|q| q.skew_ps),
        wirelength_mm: gm(&|q| q.wirelength_mm),
        buffers: gm(&|q| 1.0 + q.buffers) - 1.0,
        ntsvs: gm(&|q| 1.0 + q.ntsvs) - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 0.9);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn geomean_does_not_depend_on_completion_order() {
        let ops: Vec<(usize, Quality)> = (0..257)
            .map(|i| {
                let x = 1.0 + f64::from(i as u32).sqrt() * 0.731;
                let q = Quality {
                    latency_ps: 90.0 + x,
                    skew_ps: 10.0 / x,
                    wirelength_mm: 3.0 * x,
                    buffers: f64::from(i as u32 % 7),
                    ntsvs: f64::from(i as u32 % 3),
                };
                (i, q)
            })
            .collect();
        let want = quality_geomean(&ops);
        let mut shuffled = ops.clone();
        for k in 0..shuffled.len() {
            let j = (k * 101 + 13) % shuffled.len();
            shuffled.swap(k, j);
        }
        assert_ne!(shuffled, ops);
        let got = quality_geomean(&shuffled);
        assert_eq!(got.latency_ps.to_bits(), want.latency_ps.to_bits());
        assert_eq!(got.skew_ps.to_bits(), want.skew_ps.to_bits());
        assert_eq!(got.wirelength_mm.to_bits(), want.wirelength_mm.to_bits());
        assert_eq!(got.buffers.to_bits(), want.buffers.to_bits());
        assert_eq!(got.ntsvs.to_bits(), want.ntsvs.to_bits());
    }

    #[test]
    fn shifted_geomean_survives_zero_counts() {
        let q = |n| Quality {
            latency_ps: 1.0,
            skew_ps: 1.0,
            wirelength_mm: 1.0,
            buffers: 3.0,
            ntsvs: n,
        };
        let g = quality_geomean(&[(0, q(0.0)), (1, q(3.0))]);
        assert!((g.ntsvs - 1.0).abs() < 1e-12);
        assert!((g.buffers - 3.0).abs() < 1e-12);
    }
}
