//! Quantiles and failure accounting.

use msoc_net::{Response, WireOutcome};

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the
/// quantile's rank: such a tail is a handful of outliers, not a
/// percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it, needs {MIN_BEYOND}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `values` (the mean of the middle two for an even
/// count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// What one slice of the measured phase saw: the plan jobs completed in
/// it and the round trips (ms) of the requests answered in it.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub jobs: u64,
    pub rtts_ms: Vec<f64>,
}

/// The end-to-end figures of a measured phase cut into equal `slices`
/// of `slice_s` seconds each: every figure is the median of its
/// per-slice values, so a slowdown of the host that covers fewer than
/// half of the slices does not move it.
///
/// # Errors
///
/// Refuses when a slice is too thin for its p90 (see [`percentile`]).
pub fn sliced(slices: &[Slice], slice_s: f64) -> Result<(f64, f64, f64), String> {
    let mut rate = Vec::with_capacity(slices.len());
    let mut p50 = Vec::with_capacity(slices.len());
    let mut p90 = Vec::with_capacity(slices.len());
    for slice in slices {
        rate.push(slice.jobs as f64 / slice_s);
        p50.push(percentile(&slice.rtts_ms, 0.5)?);
        p90.push(percentile(&slice.rtts_ms, 0.9).map_err(|e| format!("a slice's {e}"))?);
    }
    Ok((median(&rate), median(&p50), median(&p90)))
}

/// Whether a reply is a success for the request it answers: every job
/// `Completed`, a `Registered` or a `Revised`. Anything else — an
/// interrupted, shed, rejected or failed job, an `Error` reply, a reply
/// of the wrong kind, or a transport error (`None`) — is a failure.
pub fn succeeded(reply: Option<&Response>) -> bool {
    match reply {
        Some(Response::Outcomes(outcomes)) => {
            !outcomes.is_empty() && outcomes.iter().all(|o| matches!(o, WireOutcome::Completed(_)))
        }
        Some(Response::Registered { .. } | Response::Revised { .. }) => true,
        _ => false,
    }
}

/// Requests attempted and failed over a timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent (a transport error counts as sent).
    pub attempted: u64,
    /// Requests that did not succeed (see [`succeeded`]).
    pub failed: u64,
}

impl Tally {
    /// Counts one request by its reply.
    pub fn record(&mut self, reply: Option<&Response>) {
        self.attempted += 1;
        if !succeeded(reply) {
            self.failed += 1;
        }
    }

    /// Failed requests over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_net::wire::WireResult;
    use msoc_net::WireStats;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&samples, 0.9).is_err(), "99 samples leave 9 beyond p90");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Ok(90.0));
        assert_eq!(percentile(&samples, 0.5), Ok(50.0));
        assert!(percentile(&samples, 0.99).is_err(), "p99 needs 1000 samples");
        assert!(percentile(&[], 0.5).is_err());
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&samples, 0.5).is_err(), "19 samples leave 9 beyond p50");
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(20);
        assert_eq!(percentile(&samples, 0.5), Ok(3.0));
    }

    #[test]
    fn sliced_figures_are_medians_over_slices() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let slice = |jobs, ms: f64| Slice { jobs, rtts_ms: vec![ms; 100] };
        // One slow slice out of three moves none of the figures.
        let slices = [slice(200, 1.0), slice(20, 9.0), slice(180, 1.5)];
        assert_eq!(sliced(&slices, 2.0), Ok((90.0, 1.5, 1.5)));
        let thin = [slice(200, 1.0), Slice { jobs: 5, rtts_ms: vec![1.0; 99] }];
        assert!(sliced(&thin, 2.0).is_err(), "99 round trips leave 9 beyond p90");
    }

    #[test]
    fn every_non_completed_outcome_and_transport_error_fails() {
        let completed = WireOutcome::Completed(WireResult::BestWidth {
            config: String::from("{A}"),
            width: 16,
            makespan: 1,
        });
        let failures = [
            WireOutcome::DeadlineExceeded,
            WireOutcome::Cancelled,
            WireOutcome::Overloaded { cap: 1, batch: 2 },
            WireOutcome::Rejected { error: String::from("bad") },
            WireOutcome::Failed { message: String::from("panic") },
        ];
        let mut tally = Tally::default();
        tally.record(Some(&Response::Outcomes(vec![completed.clone()])));
        tally.record(Some(&Response::Registered { soc_id: 1 }));
        tally.record(Some(&Response::Revised { soc_id: 1, revision: 1 }));
        assert_eq!(tally, Tally { attempted: 3, failed: 0 });
        for failure in &failures {
            tally.record(Some(&Response::Outcomes(vec![failure.clone()])));
            tally.record(Some(&Response::Outcomes(vec![completed.clone(), failure.clone()])));
        }
        tally.record(Some(&Response::Outcomes(Vec::new())));
        tally.record(Some(&Response::Error { message: String::from("unknown id") }));
        tally.record(Some(&Response::Stats(WireStats::default())));
        tally.record(None);
        assert_eq!(tally, Tally { attempted: 17, failed: 14 });
        assert!((tally.failed_share() - 14.0 / 17.0).abs() < 1e-12);
    }
}
