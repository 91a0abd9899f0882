//! Tenant sessions and their service-level-objective classes.
//!
//! A [`Session`] is the unit of tenancy the cluster arbitrates between: every
//! [`PipelineRequest`](crate::session::PipelineRequest) names the session it
//! belongs to, and the session's [`SloClass`] decides how its stages compete
//! for queue space and dispatch order:
//!
//! * **admission weighting** — when an admission limit is configured, queue
//!   capacity is shared weighted-fair across the sessions in the batch
//!   ([`SloClass::weight`]: latency 4, standard 2, best-effort 1), so one hot
//!   best-effort tenant cannot starve a latency-tier tenant out of the queue;
//! * **dispatch bias** — under slack-aware dispatch, best-effort
//!   stages are dispatched as if deadline-free (they drain after every
//!   deadline-carrying request, FIFO among themselves), while their outcomes
//!   are still *reported* against the original deadline.
//!
//! A batch whose sessions are all [`SloClass::Standard`] engages none of
//! this — the serve is bitwise identical to one with no session tier at all.

use std::fmt;

/// The latency tier a session is served under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SloClass {
    /// Interactive tier: largest weighted-fair admission share.
    Latency,
    /// The default tier, and the class of a session absent from the
    /// serve's list.
    #[default]
    Standard,
    /// Throughput tier: smallest admission share, and dispatched as
    /// deadline-free under slack-aware dispatch — best-effort absorbs the
    /// shed load when the fleet saturates.
    BestEffort,
}

impl SloClass {
    /// Every class, in tier order.
    pub const ALL: [SloClass; 3] = [SloClass::Latency, SloClass::Standard, SloClass::BestEffort];

    /// The weighted-fair admission weight (latency 4, standard 2,
    /// best-effort 1).
    pub fn weight(self) -> u64 {
        match self {
            SloClass::Latency => 4,
            SloClass::Standard => 2,
            SloClass::BestEffort => 1,
        }
    }

    /// Index into per-class metric arrays.
    pub fn index(self) -> usize {
        match self {
            SloClass::Latency => 0,
            SloClass::Standard => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// A short stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            SloClass::Latency => "latency",
            SloClass::Standard => "standard",
            SloClass::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One tenant session: an id plus the SLO class its pipelines are served
/// under. Pipelines reference sessions by id; a pipeline naming an undeclared
/// session is served as [`SloClass::Standard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Caller-chosen session identifier.
    pub id: u64,
    /// The latency tier this session's pipelines are served under.
    pub slo: SloClass,
}

impl Session {
    /// A standard-class session.
    pub fn new(id: u64) -> Self {
        Session {
            id,
            slo: SloClass::default(),
        }
    }

    /// Sets the SLO class.
    #[must_use]
    pub fn with_slo(mut self, slo: SloClass) -> Self {
        self.slo = slo;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_rank_latency_over_standard_over_best_effort() {
        assert!(SloClass::Latency.weight() > SloClass::Standard.weight());
        assert!(SloClass::Standard.weight() > SloClass::BestEffort.weight());
        assert_eq!(SloClass::default(), SloClass::Standard);
        let labels: Vec<&str> = SloClass::ALL.iter().map(|class| class.label()).collect();
        assert_eq!(labels, vec!["latency", "standard", "best-effort"]);
        let indices: Vec<usize> = SloClass::ALL.iter().map(|class| class.index()).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        assert_eq!(SloClass::BestEffort.to_string(), "best-effort");
    }

    #[test]
    fn sessions_default_to_standard() {
        let session = Session::new(3);
        assert_eq!(session.slo, SloClass::Standard);
        assert_eq!(
            Session::new(3).with_slo(SloClass::Latency).slo,
            SloClass::Latency
        );
    }
}
