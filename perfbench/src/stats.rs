//! The benchmark's own arithmetic: percentiles and the sample counts that
//! support them, medians, the unattributed-time residual, and open-loop
//! lateness accounting.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `q`-th quantile (`0 < q ≤ 1`) in a sorted
/// sample of `n` values: the smallest index whose rank covers `q · n`.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Whether a sample of `n` values supports reporting its `q`-th quantile:
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank_index(n, q) >= MIN_BEYOND
}

/// Nearest-rank `q`-th quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// Median (nearest-rank) of any non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A latency sample summarized as its median and one tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
}

/// Summarizes `values` at the median and the `tail_q` quantile.
///
/// # Errors
/// When the sample is too small for `tail_q` to have [`MIN_BEYOND`]
/// samples beyond it; the message names the shortfall.
pub fn summarize(what: &str, values: &[f64], tail_q: f64) -> Result<Summary, String> {
    if !supports(values.len(), tail_q) {
        return Err(format!(
            "{what}: {} samples do not support p{} (need {MIN_BEYOND} beyond it)",
            values.len(),
            tail_q * 100.0
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Summary {
        count: sorted.len(),
        p50: quantile(&sorted, 0.5),
        tail: quantile(&sorted, tail_q),
    })
}

/// The part of `total` that `parts` do not cover, clamped to `[0, total]`:
/// timed parts that overrun the total (clock skew between the two
/// measurements) leave no negative residual, and a negative total counts as
/// nothing measured.
pub fn residual(total: f64, parts: f64) -> f64 {
    let total = total.max(0.0);
    (total - parts.max(0.0)).clamp(0.0, total)
}

/// [`residual`] as a percentage of `total` (0 when `total` is not positive).
pub fn residual_pct(total: f64, parts: f64) -> f64 {
    if total > 0.0 {
        100.0 * residual(total, parts) / total
    } else {
        0.0
    }
}

/// The timing of one open-loop request, all instants in nanoseconds since
/// the schedule started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopTiming {
    /// When the schedule said the request was due.
    pub due: u64,
    /// When the generator actually sent it (never before `due`).
    pub sent: u64,
    /// When its response arrived.
    pub done: u64,
}

impl OpenLoopTiming {
    /// Latency as a user sees it: from when the request was due, so a stall
    /// that delays later sends is charged to every request it delays.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// Fixed-rate arrivals: request `i` is due `i · interval` after the start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Self {
        Self {
            interval_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    pub fn due(&self, i: u64) -> u64 {
        i * self.interval_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 over 1000 samples leaves exactly 10 above rank 990.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(21, 0.5));
        assert!(!supports(0, 0.5));
        assert!(summarize("x", &[1.0; 999], 0.99).is_err());
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 500.0);
        assert_eq!(quantile(&sorted, 0.99), 990.0);
        assert_eq!(quantile(&sorted, 1.0), 1000.0);
        let shuffled: Vec<f64> = (0..1000)
            .map(|i| f64::from((i * 7919) % 1000 + 1))
            .collect();
        let s = summarize("x", &shuffled, 0.99).unwrap();
        assert_eq!((s.count, s.p50, s.tail), (1000, 500.0, 990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn residual_is_nonnegative_and_bounded_by_the_total() {
        assert_eq!(residual(10.0, 4.0), 6.0);
        assert_eq!(residual(10.0, 12.0), 0.0);
        assert_eq!(residual(10.0, -3.0), 10.0);
        assert_eq!(residual(-1.0, 0.0), 0.0);
        assert_eq!(residual_pct(200.0, 150.0), 25.0);
        assert_eq!(residual_pct(0.0, 5.0), 0.0);
        for (total, parts) in [(1.0, 0.3), (5.0, 9.0), (3.0, 0.0)] {
            let r = residual(total, parts);
            assert!((0.0..=total).contains(&r));
            assert!((0.0..=100.0).contains(&residual_pct(total, parts)));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        // Requests due every 10 ns; the first takes 35 ns to serve, the
        // rest 1 ns, on one blocking connection.
        let schedule = Schedule { interval_ns: 10 };
        let service = [35, 1, 1, 1, 1];
        let mut free_at = 0;
        let timings: Vec<OpenLoopTiming> = service
            .iter()
            .enumerate()
            .map(|(i, &cost)| {
                let due = schedule.due(i as u64);
                let sent = due.max(free_at);
                free_at = sent + cost;
                OpenLoopTiming {
                    due,
                    sent,
                    done: free_at,
                }
            })
            .collect();
        let latency: Vec<u64> = timings.iter().map(OpenLoopTiming::latency).collect();
        let lateness: Vec<u64> = timings.iter().map(OpenLoopTiming::lateness).collect();
        assert_eq!(latency, [35, 26, 17, 8, 1]);
        assert_eq!(lateness, [0, 25, 16, 7, 0]);
        // Timed from the send instead, the stall would vanish from all but
        // the first request.
        assert!(timings.iter().skip(1).all(|t| t.done - t.sent == 1));
        assert_eq!(Schedule::per_second(400.0).interval_ns, 2_500_000);
    }
}
