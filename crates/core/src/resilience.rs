//! Retry policy and collection reporting for fault-tolerant training.
//!
//! The paper's own campaign hit lost I/O-server connections "in around 1h
//! of experiments" (§5.6 observation 5).  A production trainer therefore
//! treats every simulated benchmark run as fallible: aborted runs are
//! retried with deterministic exponential-backoff *accounting* (the
//! backoff is charged to the campaign's simulated wall clock, never slept),
//! and a point that keeps failing is skipped and recorded rather than
//! sinking the whole campaign.  [`CollectionReport`] is the structured
//! summary of what happened.

use crate::error::AcicError;

/// Bounded-retry policy for one training point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per run beyond the first attempt.
    pub max_retries: u32,
    /// Backoff charged before retry `k` (1-based) is
    /// `backoff_base_secs * backoff_factor^(k-1)` seconds.
    pub backoff_base_secs: f64,
    /// Exponential backoff growth factor.
    pub backoff_factor: f64,
    /// Per-point budget of accounted seconds (simulated attempts, backoff
    /// and the baseline share); once exceeded the point is skipped.
    /// Infinite by default.
    pub point_budget_secs: f64,
}

impl RetryPolicy {
    /// Paper-informed default: three retries, 5 s doubling backoff, no
    /// per-point budget.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_retries: 3,
        backoff_base_secs: 5.0,
        backoff_factor: 2.0,
        point_budget_secs: f64::INFINITY,
    };

    /// Never retry and never skip-on-budget (a run failure is terminal).
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff_base_secs: 0.0,
        backoff_factor: 1.0,
        point_budget_secs: f64::INFINITY,
    };

    /// Backoff charged before the `attempt`-th retry (1-based).
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        self.backoff_base_secs * self.backoff_factor.powi(attempt as i32 - 1)
    }

    /// Total backoff charged by `retries` consecutive retries.
    pub fn total_backoff(&self, retries: u32) -> f64 {
        (1..=retries).map(|k| self.backoff_before(k)).sum()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Provenance of one completed observation, in campaign index order —
/// exactly parallel to [`Collection`]'s `db.points`.  The durable store
/// ingests this alongside the observations: recording the attempt count
/// per sample keeps provenance identical whether a campaign ran straight
/// through or was killed and resumed (resumed entries restore their
/// journaled attempts instead of defaulting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointProvenance {
    /// Index of the point in the campaign's point list.
    pub index: usize,
    /// Runs attempted to produce the observation (>= 1).
    pub attempts: u32,
}

/// A point the campaign gave up on, with why.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedPoint {
    /// Index of the point in the campaign's point list.
    pub index: usize,
    /// Runs attempted before giving up (0 when restored from a journal
    /// whose entry did not record attempts).
    pub attempts: u32,
    /// The terminal error.
    pub error: AcicError,
}

/// Structured summary of a collection campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionReport {
    /// Points in the campaign plan.
    pub planned: usize,
    /// Points that produced a training observation this session.
    pub completed: usize,
    /// Points restored from a checkpoint journal instead of re-run.
    pub resumed: usize,
    /// Points answered from the durable store's canonical sample index
    /// (lookup-before-measure) — zero simulated runs, zero baselines.
    /// Store hits also count in `completed`; `completed - store_hits` is
    /// the number of points actually simulated this session.
    pub store_hits: usize,
    /// Points abandoned after retries/budget (including journaled skips).
    pub skipped: Vec<SkippedPoint>,
    /// Per-observation provenance, parallel to the collected database.
    pub point_log: Vec<PointProvenance>,
    /// Retry attempts across all runs (training points and baselines).
    pub retries: usize,
    /// Runs killed by injected faults (data-corrupting connection losses).
    pub aborts: usize,
    /// Connection losses absorbed inside successful runs as time penalties.
    pub faults_tolerated: usize,
    /// Distinct baseline configurations executed.
    pub baseline_runs: usize,
    /// Simulated seconds charged as exponential backoff.
    pub backoff_secs: f64,
    /// Simulated seconds burned by aborted attempts.
    pub wasted_secs: f64,
    /// Simulated USD burned by aborted attempts.
    pub wasted_cost_usd: f64,
    /// Simulated seconds of successful runs (training + baseline shares).
    pub sim_secs: f64,
    /// Group commits the journal's writer plane issued for this session
    /// (0 when the campaign ran unjournaled).  Deterministic for a given
    /// campaign and commit batch: `ceil(journaled_entries / batch)`.
    pub group_commits: usize,
}

impl CollectionReport {
    /// True when every planned point made it into the database.
    pub fn is_complete(&self) -> bool {
        self.completed + self.resumed == self.planned && self.skipped.is_empty()
    }

    /// Render as an aligned text block (the CLI's `--report` output).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "collection report:").unwrap();
        writeln!(s, "  points planned                       {}", self.planned).unwrap();
        writeln!(s, "  points completed                     {}", self.completed).unwrap();
        writeln!(s, "  points resumed from journal          {}", self.resumed).unwrap();
        writeln!(s, "  points answered from store           {}", self.store_hits).unwrap();
        writeln!(s, "  points skipped                       {}", self.skipped.len()).unwrap();
        writeln!(s, "  runs retried                         {}", self.retries).unwrap();
        writeln!(s, "  runs aborted by faults               {}", self.aborts).unwrap();
        writeln!(s, "  faults tolerated in-run              {}", self.faults_tolerated).unwrap();
        writeln!(s, "  distinct baselines executed          {}", self.baseline_runs).unwrap();
        writeln!(s, "  backoff charged                      {:.1}s", self.backoff_secs).unwrap();
        writeln!(s, "  simulated time wasted on aborts      {:.1}s", self.wasted_secs).unwrap();
        writeln!(s, "  simulated money wasted on aborts     ${:.2}", self.wasted_cost_usd).unwrap();
        writeln!(s, "  simulated time in successful runs    {:.1}s", self.sim_secs).unwrap();
        writeln!(s, "  journal group commits                {}", self.group_commits).unwrap();
        for sk in &self.skipped {
            writeln!(s, "  skipped point #{} after {} attempt(s): {}", sk.index, sk.attempts, sk.error)
                .unwrap();
        }
        s
    }
}

/// A collected database together with the campaign's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    /// The training database (points in campaign order).
    pub db: crate::training::TrainingDb,
    /// What it took to collect it.
    pub report: CollectionReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = RetryPolicy::DEFAULT;
        assert_eq!(p.backoff_before(0), 0.0);
        assert_eq!(p.backoff_before(1), 5.0);
        assert_eq!(p.backoff_before(2), 10.0);
        assert_eq!(p.backoff_before(3), 20.0);
        assert_eq!(p.total_backoff(3), 35.0);
        assert_eq!(RetryPolicy::NONE.total_backoff(5), 0.0);
    }

    #[test]
    fn report_renders_and_tracks_completeness() {
        let mut r = CollectionReport { planned: 3, completed: 3, ..Default::default() };
        assert!(r.is_complete());
        r.skipped.push(SkippedPoint {
            index: 1,
            attempts: 4,
            error: AcicError::Invalid("boom".into()),
        });
        r.completed = 2;
        assert!(!r.is_complete());
        let text = r.render();
        assert!(text.contains("points skipped"), "{text}");
        assert!(text.contains("skipped point #1 after 4 attempt(s)"), "{text}");
    }

    #[test]
    fn resumed_points_count_toward_completeness() {
        let r = CollectionReport { planned: 5, completed: 2, resumed: 3, ..Default::default() };
        assert!(r.is_complete());
    }
}
