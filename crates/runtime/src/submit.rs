//! Streaming request submission into a live serve loop.
//!
//! [`Cluster::serve_stream`](crate::Cluster::serve_stream) hands its feeder a
//! [`Submitter`]: a clonable handle over a *bounded* mpsc channel into the
//! event loop. The bound is the ingest buffer — when the loop falls behind,
//! [`Submitter::submit`] blocks (backpressure) and
//! [`Submitter::try_submit`] fails fast with
//! [`SubmitError::Backpressure`]. Dropping every `Submitter` clone marks the
//! end of the trace and lets the loop drain and return.
//!
//! Requests travel the channel as [`Arc<Request>`], so submission never deep-
//! clones a workload: callers hand over ownership (a plain [`Request`]
//! converts on the way in) or share an existing `Arc`.
//!
//! Submission order is the runtime's arrival order: arrival timestamps must
//! be non-decreasing across `submit` calls (the loop rejects the whole serve
//! with [`RuntimeError::OutOfOrderArrival`](crate::RuntimeError::OutOfOrderArrival)
//! otherwise), which is what makes the virtual-time loop deterministic.
//! Submission order is also the commit order of the session tier: within a
//! session, [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines)
//! retires pipelines through a
//! [`ReorderBuffer`](crate::ReorderBuffer) in exactly the order they were
//! submitted, however far out of order their stages complete.
//!
//! When tracing is on ([`Cluster::with_tracing`](crate::Cluster::with_tracing)
//! with an enabled [`TraceConfig`](crate::obs::TraceConfig)), each request's
//! spans open with a `Submit` instant at its arrival timestamp — the anchor
//! every later lifecycle span ([`SpanKind`](crate::obs::SpanKind)) of that
//! request hangs off.

use std::fmt;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;

use crate::request::Request;

/// Why a submission did not enter the ingest queue. The request is handed
/// back so the caller can retry or reroute it.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// `try_submit` found the bounded ingest channel full.
    Backpressure(Arc<Request>),
    /// The serve loop is gone: it returned (end of serve) or failed.
    Closed(Arc<Request>),
}

impl SubmitError {
    /// The request that was not submitted.
    pub fn request(&self) -> &Request {
        match self {
            SubmitError::Backpressure(request) | SubmitError::Closed(request) => request,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure(request) => {
                write!(f, "ingest queue full (request {})", request.id)
            }
            SubmitError::Closed(request) => {
                write!(f, "serve loop has shut down (request {})", request.id)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Streaming handle into a running [`Cluster::serve_stream`](crate::Cluster::serve_stream)
/// call.
///
/// Cloning gives multiple producers over the same bounded ingest queue; the
/// serve ends once every clone is dropped. Arrival timestamps must be
/// non-decreasing in overall submission order — with several producers that
/// ordering is the caller's responsibility.
#[derive(Debug, Clone)]
pub struct Submitter {
    tx: SyncSender<Arc<Request>>,
}

impl Submitter {
    pub(crate) fn new(tx: SyncSender<Arc<Request>>) -> Self {
        Submitter { tx }
    }

    /// Submits a request, blocking while the bounded ingest queue is full.
    /// Accepts a [`Request`] by value or an already-shared `Arc<Request>` —
    /// either way the workload is moved, never cloned.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Closed`] when the serve loop has shut down
    /// (typically because an earlier request failed it).
    pub fn submit(&self, request: impl Into<Arc<Request>>) -> Result<(), SubmitError> {
        self.tx
            .send(request.into())
            .map_err(|err| SubmitError::Closed(err.0))
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Backpressure`] when the ingest queue is full
    /// and [`SubmitError::Closed`] when the serve loop has shut down.
    pub fn try_submit(&self, request: impl Into<Arc<Request>>) -> Result<(), SubmitError> {
        self.tx.try_send(request.into()).map_err(|err| match err {
            TrySendError::Full(request) => SubmitError::Backpressure(request),
            TrySendError::Disconnected(request) => SubmitError::Closed(request),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::KernelSpec;
    use overlay_sim::Workload;
    use std::sync::mpsc;

    fn request(id: u64) -> Request {
        let spec = KernelSpec::from_source("saxpy", "kernel saxpy(a, x, y) { out r = a * x + y; }");
        Request::new(id, spec, Workload::ramp(3, 2))
    }

    #[test]
    fn try_submit_reports_backpressure_and_returns_the_request() {
        let (tx, _rx) = mpsc::sync_channel(1);
        let submitter = Submitter::new(tx);
        submitter.submit(request(0)).unwrap();
        let err = submitter.try_submit(request(1)).unwrap_err();
        assert!(matches!(err, SubmitError::Backpressure(_)));
        assert_eq!(err.request().id, 1);
        assert!(err.to_string().contains("full"));
    }

    #[test]
    fn submissions_fail_once_the_loop_is_gone() {
        let (tx, rx) = mpsc::sync_channel(4);
        let submitter = Submitter::new(tx);
        drop(rx);
        let err = submitter.submit(request(2)).unwrap_err();
        assert!(matches!(err, SubmitError::Closed(_)));
        assert!(err.to_string().contains("shut down"));
        let err = submitter.try_submit(request(3)).unwrap_err();
        assert!(matches!(err, SubmitError::Closed(_)));
    }

    #[test]
    fn an_arc_request_streams_without_copying() {
        let (tx, rx) = mpsc::sync_channel(1);
        let submitter = Submitter::new(tx);
        let shared = Arc::new(request(7));
        submitter.submit(Arc::clone(&shared)).unwrap();
        let received = rx.recv().unwrap();
        assert!(
            Arc::ptr_eq(&shared, &received),
            "submission moves the Arc, not a deep copy"
        );
    }
}
