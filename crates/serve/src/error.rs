//! Structured service errors — admission control, deadlines, and a
//! panicking batch all speak through these. No path in the service
//! answers a client with a panic: every way a request can fail is a
//! [`ServeError`] variant a client can match on.

use std::fmt;

/// Why the service declined — or failed — a submission or a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the batch: the work queue was at
    /// capacity under `Shed` (or under `Defer` with no worker to drain
    /// it). Carries the observed depth and the bound.
    Overloaded {
        /// Queue depth at rejection time.
        depth: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The request's deadline expired while it waited in the queue;
    /// it was dropped at pop time instead of being executed uselessly.
    /// Carries how late it already was when a worker saw it.
    DeadlineExceeded {
        /// Nanoseconds past the deadline at pop time.
        late_ns: u64,
    },
    /// The worker executing this request's batch panicked. The panic
    /// was caught at the batch boundary and the worker carried on with
    /// fresh scratch; the request itself was not answered and may be
    /// safely retried.
    WorkerPanicked,
    /// No snapshot has been published yet; there is nothing to query.
    NotReady,
    /// The service is shutting down; no further work is accepted.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "overloaded: queue depth {depth} at capacity {capacity}")
            }
            ServeError::DeadlineExceeded { late_ns } => {
                write!(f, "deadline exceeded: {late_ns}ns late at pop time")
            }
            ServeError::WorkerPanicked => write!(f, "worker panicked executing this batch"),
            ServeError::NotReady => write!(f, "no snapshot published yet"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
