//! Order statistics and span self-time arithmetic.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the closest ranks. `None` for an empty input.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Length of the part of `[lo, hi)` covered by the union of `intervals`
/// (each `(start, end)`, possibly overlapping or reaching outside).
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(10, 20, &[(0, 12), (18, 40)]), 4);
        assert_eq!(covered(0, 10, &[(20, 30)]), 0);
        assert_eq!(covered(0, 10, &[(0, 10), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_parallel_children_once() {
        // Two servers running side by side inside one collective.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 70)]), 40);
        // Sequential children.
        assert_eq!(self_time(0, 100, &[(0, 30), (30, 100)]), 0);
        assert_eq!(self_time(5, 5, &[]), 0);
    }
}
