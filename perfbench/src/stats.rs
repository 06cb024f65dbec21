//! The benchmark's metric arithmetic: percentile selection, the cold/warm
//! job split, failure accounting and the one-line JSON result.

use std::fmt::Write as _;

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile picked from a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selected {
    /// The sample at the percentile.
    pub value: f64,
    /// How many samples the set held.
    pub samples: usize,
    /// How many samples lie strictly above the selected rank.
    pub beyond: usize,
}

/// The 0-based nearest-rank index of percentile `p` (0 < p < 1) in `n`
/// sorted samples: the smallest rank with at least `p·n` samples at or
/// below it.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The fewest samples for which percentile `p` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - 1 - rank(n, p) >= MIN_BEYOND)
        .expect("some n suffices")
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Selected> {
    if samples.len() < min_samples(p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len(), p);
    Some(Selected {
        value: sorted[r],
        samples: sorted.len(),
        beyond: sorted.len() - 1 - r,
    })
}

/// The plain median (no sample-count floor) — for repetitions inside one
/// run, such as the set-up passes.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One submitted job, as the closed loop saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSample {
    /// Submit to final result, ms.
    pub ms: f64,
    /// Submit to the first progress event, ms.
    pub first_ms: f64,
    /// Whether the same grid was submitted earlier in the run.
    pub resubmitted: bool,
    /// Whether any of the job's cells had to be simulated (no cache, or a
    /// cache miss).
    pub simulated: bool,
    /// Whether the job completed and passed every check.
    pub ok: bool,
}

/// The job latencies split the way the end-to-end metrics report them.
/// Latencies are bimodal when a cache answers resubmissions, so cold and
/// warm jobs are never pooled into one percentile.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct JobSplit {
    /// Jobs that simulated at least one cell: `job_ms_*`.
    pub cold_ms: Vec<f64>,
    /// First-progress latency of the same jobs: `first_result_ms_p50`.
    pub cold_first_ms: Vec<f64>,
    /// Resubmitted jobs, whether or not a cache answered them:
    /// `warm_job_ms_p50`.
    pub resubmitted_ms: Vec<f64>,
}

impl JobSplit {
    /// Splits the successful jobs; failed jobs count only in [`Tally`].
    pub fn of(jobs: &[JobSample]) -> JobSplit {
        let mut split = JobSplit::default();
        for job in jobs.iter().filter(|j| j.ok) {
            if job.simulated {
                split.cold_ms.push(job.ms);
                split.cold_first_ms.push(job.first_ms);
            }
            if job.resubmitted {
                split.resubmitted_ms.push(job.ms);
            }
        }
        split
    }

    /// Whether every reported percentile has enough samples.
    pub fn sufficient(&self) -> bool {
        self.cold_ms.len() >= min_samples(0.9)
            && self.cold_first_ms.len() >= min_samples(0.5)
            && self.resubmitted_ms.len() >= min_samples(0.5)
    }
}

/// Operations attempted and failed.  A failure is a client error, a
/// panicked cell or any failed correctness check; each is recorded once,
/// against the operation it concerns.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the human-readable report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Adds another tally's operations to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed operations divided by attempted ones (zero when nothing was
    /// attempted — which the result line reports as incorrect anyway).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether the run is correct: something was attempted and nothing
    /// failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's fixed name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric value with its name and unit.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
/// Non-finite values cannot travel in JSON; they are reported as failures
/// by the caller before this point and printed as 0 here.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&ramp(99), 0.9).is_none());
        let p50 = percentile(&ramp(20), 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (9.0, 20, 10));
        let p90 = percentile(&ramp(100), 0.9).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (89.0, 100, 10));
    }

    #[test]
    fn percentile_beyond_count_holds_for_every_size() {
        for n in 1..400 {
            for p in [0.5, 0.9] {
                match percentile(&ramp(n), p) {
                    Some(s) => {
                        assert!(s.beyond >= MIN_BEYOND, "n={n} p={p}");
                        assert_eq!(s.samples, n);
                        // Nearest rank: at least p·n samples at or below.
                        assert!((n - s.beyond) as f64 >= p * n as f64);
                    }
                    None => assert!(n < min_samples(p)),
                }
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn job(ms: f64, resubmitted: bool, simulated: bool, ok: bool) -> JobSample {
        JobSample {
            ms,
            first_ms: ms / 2.0,
            resubmitted,
            simulated,
            ok,
        }
    }

    #[test]
    fn cold_and_warm_jobs_are_split_apart() {
        let jobs = [
            job(30.0, false, true, true),  // new: simulated
            job(2.0, true, false, true),   // resubmitted, answered by the cache
            job(28.0, true, true, true),   // resubmitted with no cache: both
            job(99.0, false, true, false), // failed: in neither
        ];
        let split = JobSplit::of(&jobs);
        assert_eq!(split.cold_ms, vec![30.0, 28.0]);
        assert_eq!(split.cold_first_ms, vec![15.0, 14.0]);
        assert_eq!(split.resubmitted_ms, vec![2.0, 28.0]);
        assert!(!split.sufficient());
    }

    #[test]
    fn split_sufficiency_follows_the_percentile_floors() {
        let mut jobs: Vec<JobSample> = (0..100).map(|i| job(i as f64, false, true, true)).collect();
        assert!(!JobSplit::of(&jobs).sufficient(), "no resubmissions yet");
        jobs.extend((0..20).map(|_| job(1.0, true, false, true)));
        assert!(JobSplit::of(&jobs).sufficient());
    }

    #[test]
    fn failed_frac_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.record(Ok(()));
        t.record(Ok(()));
        t.record(Err("digest mismatch".into()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert!(!t.correct());
        assert_eq!(t.failures, vec!["digest mismatch".to_string()]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.record(Ok(()));
        let line = result_json(
            &t,
            &[
                Metric::new("latency_ms", "ms", 1.25),
                Metric::new("setup_s", "s", f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
