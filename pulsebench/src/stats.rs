//! The benchmark's own arithmetic: percentiles, host normalisation, and
//! span self time. Kept free of I/O so the self-tests pin it down.

/// The percentile `q` (in `[0, 1]`) of `values`, interpolating linearly
/// between closest ranks (rank `q·(n−1)`, as `numpy.percentile` does by
/// default), together with the sample count it rests on. `None` for an
/// empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = v[lo] + (v[hi] - v[lo]) * (pos - lo as f64);
    Some((value, v.len()))
}

/// Median shorthand; `0.0` for an empty sample (used only for
/// diagnostics that may legitimately have no samples on a workload).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |(v, _)| v)
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero).
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let (Some((q1, _)), Some((q3, _))) = (percentile(values, 0.25), percentile(values, 0.75))
    else {
        return 0.0;
    };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Host normalisation: a raw duration re-expressed at the reference host
/// speed, `raw × ref_nominal / ref_measured`. When the host runs slow the
/// reference kernel takes longer too, and the ratio cancels the drift.
pub fn normalise(raw: f64, ref_nominal: f64, ref_measured: f64) -> f64 {
    raw * ref_nominal / ref_measured
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval covered by its children (overlapping children are
/// counted once, and children are clipped to the parent).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks_and_reports_count() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some((3.0, 5)));
        assert_eq!(percentile(&v, 0.0), Some((1.0, 5)));
        assert_eq!(percentile(&v, 1.0), Some((5.0, 5)));
        // rank 0.9·4 = 3.6 → 4 + 0.6·(5 − 4)
        let (p90, n) = percentile(&v, 0.9).unwrap();
        assert!((p90 - 4.6).abs() < 1e-12);
        assert_eq!(n, 5);
        // Even count: the median sits halfway between the middle pair.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 10.0], 0.5), Some((2.5, 4)));
        assert_eq!(percentile(&[7.0], 0.9), Some((7.0, 1)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn iqr_ratio_is_relative_to_the_median() {
        // q1 = 2, q3 = 4, median 3.
        assert!((iqr_ratio(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn normalisation_cancels_a_uniform_slowdown() {
        // At reference speed the value is unchanged.
        assert_eq!(normalise(10.0, 4.0, 4.0), 10.0);
        // A host running 2x slow doubles both the op and the reference.
        assert_eq!(normalise(20.0, 4.0, 8.0), 10.0);
        // A fast host halves both.
        assert_eq!(normalise(5.0, 4.0, 2.0), 10.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120)]), 70);
        // A child covering everything leaves no self time.
        assert_eq!(self_time((10, 20), &[(0, 30)]), 0);
    }
}
