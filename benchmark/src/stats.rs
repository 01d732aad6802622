//! The arithmetic every reported number goes through: exact order statistics, medians,
//! and the interval algebra behind span self-times.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` as an exact order statistic: the element
/// at rank `ceil(q·n)` (1-based, clamped to `[1, n]`) of the sorted samples — no
/// interpolation, no buckets.  Sorts in place; `None` for an empty slice.
pub fn order_statistic<T: Copy + Ord>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    Some(*value)
}

/// The median of `values` (mean of the two middle elements for an even count); NaN
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// `(b − a) / a` signed so that **positive means worse**, given the metric direction.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let rel = (b - a) / a.abs();
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

/// A half-open time interval `[start, end)` in nanoseconds on the `qobs::now_ns` clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn new(start: u64, end: u64) -> Self {
        Interval {
            start,
            end: end.max(start),
        }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// A set of disjoint, sorted intervals: the union of whatever was put in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalSet(Vec<Interval>);

impl IntervalSet {
    /// The union of `intervals` (any order, overlaps allowed).
    pub fn union_of(intervals: impl IntoIterator<Item = Interval>) -> Self {
        let mut all: Vec<Interval> = intervals.into_iter().filter(|i| i.len() > 0).collect();
        all.sort_unstable();
        let mut merged: Vec<Interval> = Vec::with_capacity(all.len());
        for i in all {
            match merged.last_mut() {
                Some(last) if i.start <= last.end => last.end = last.end.max(i.end),
                _ => merged.push(i),
            }
        }
        IntervalSet(merged)
    }

    /// Total covered length.
    pub fn total(&self) -> u64 {
        self.0.iter().map(Interval::len).sum()
    }

    /// The intersection with another set (both are sorted and disjoint, so one merge
    /// pass suffices).
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.0.len() && j < other.0.len() {
            let (a, b) = (self.0[i], other.0[j]);
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                out.push(Interval { start, end });
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet(out)
    }

    /// The part of this set inside `window`.
    pub fn clip(&self, window: Interval) -> IntervalSet {
        self.intersect(&IntervalSet(vec![window]))
    }
}

/// A span's self time: its duration minus the part of it that its children cover
/// (children may overlap each other and may stick out of the parent; only the covered
/// part inside the parent counts).
pub fn self_time(parent: Interval, children: impl IntoIterator<Item = Interval>) -> u64 {
    parent.len() - IntervalSet::union_of(children).clip(parent).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn order_statistic_is_exact_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(order_statistic(&mut v, 0.5), Some(50));
        assert_eq!(order_statistic(&mut v, 0.99), Some(99));
        assert_eq!(order_statistic(&mut v, 0.999), Some(100));
        assert_eq!(order_statistic(&mut v, 0.0), Some(1));
        assert_eq!(order_statistic(&mut v, 1.0), Some(100));
        assert_eq!(order_statistic::<u64>(&mut [], 0.5), None);
        // Ties and a single sample.
        assert_eq!(order_statistic(&mut [7u64], 0.5), Some(7));
        assert_eq!(order_statistic(&mut [3u64, 3, 3, 9], 0.75), Some(3));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn worsening_sign_follows_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn union_merges_overlaps_and_touching() {
        let u = IntervalSet::union_of([iv(5, 8), iv(0, 2), iv(1, 3), iv(3, 4), iv(10, 10)]);
        assert_eq!(u, IntervalSet(vec![iv(0, 4), iv(5, 8)]));
        assert_eq!(u.total(), 7);
        assert_eq!(IntervalSet::union_of([]).total(), 0);
    }

    #[test]
    fn intersection_and_clip() {
        let a = IntervalSet::union_of([iv(0, 10), iv(20, 30)]);
        let b = IntervalSet::union_of([iv(5, 25), iv(28, 40)]);
        assert_eq!(
            a.intersect(&b),
            IntervalSet(vec![iv(5, 10), iv(20, 25), iv(28, 30)])
        );
        assert_eq!(a.clip(iv(8, 22)).total(), 4);
        assert_eq!(a.intersect(&IntervalSet::default()).total(), 0);
    }

    #[test]
    fn self_time_subtracts_covered_part_only() {
        // Children overlap each other and one sticks out of the parent.
        let parent = iv(100, 200);
        assert_eq!(
            self_time(parent, [iv(110, 130), iv(120, 140), iv(190, 250)]),
            60
        );
        assert_eq!(self_time(parent, []), 100);
        assert_eq!(self_time(parent, [iv(0, 300)]), 0);
        assert!(parent.contains(&iv(100, 200)) && !parent.contains(&iv(99, 150)));
    }
}
