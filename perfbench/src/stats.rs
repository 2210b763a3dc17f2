//! Medians and quartiles of repeated measurements.

/// The distribution summary reported for every sampled number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (at least one) with linearly interpolated
    /// quantiles over the sorted samples.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            n: sorted.len(),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Consecutive samples grouped into one end-to-end sample: the best of
/// each group is kept, so a burst of host contention that slows one
/// launch of a group does not move the median taken over the groups.
pub const BEST_OF: usize = 3;

/// The best of every [`BEST_OF`] consecutive samples — the largest when
/// `higher_is_better`, else the smallest. A trailing partial group is
/// dropped; with fewer than [`BEST_OF`] samples the best of all is kept.
pub fn best_of_groups(values: &[f64], higher_is_better: bool) -> Vec<f64> {
    let best = |group: &[f64]| {
        let it = group.iter().copied();
        if higher_is_better {
            it.fold(f64::NEG_INFINITY, f64::max)
        } else {
            it.fold(f64::INFINITY, f64::min)
        }
    };
    if values.len() < BEST_OF {
        return vec![best(values)];
    }
    values.chunks_exact(BEST_OF).map(best).collect()
}

/// The `p`-th percentile (0..=100) of `values` by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_groups_keeps_each_groups_best_and_drops_a_partial_group() {
        let v = [3.0, 1.0, 2.0, 5.0, 6.0, 4.0, 9.0];
        assert_eq!(best_of_groups(&v, true), vec![3.0, 6.0]);
        assert_eq!(best_of_groups(&v, false), vec![1.0, 4.0]);
        assert_eq!(best_of_groups(&[2.0, 7.0], true), vec![7.0]);
    }
}
