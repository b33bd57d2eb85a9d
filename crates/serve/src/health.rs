//! How the service's threads ended: [`ShutdownReport`] is the
//! structured record [`crate::QueryService::shutdown`] returns — a late
//! panic shows up here as data instead of aborting the process.

/// How one thread's join ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinOutcome {
    /// The thread was never spawned.
    NotSpawned,
    /// Joined cleanly.
    Clean,
    /// A panic escaped the thread and its join returned an error. The
    /// process did not abort; the report carries the fact instead.
    Panicked,
}

/// Aggregate worker-pool join accounting, assembled at shutdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerJoinStats {
    /// Worker threads spawned over the service's life.
    pub spawned: usize,
    /// Joins that returned cleanly.
    pub clean: usize,
    /// Joins that returned an error (a panic escaped the worker's loop;
    /// a panicking *batch* is caught and does not count here).
    pub panicked: usize,
}

/// The structured outcome of [`crate::QueryService::shutdown`]: every
/// thread's ending, in one value.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// The last epoch the writer published (`None` when no writer ran).
    pub last_epoch: Option<u64>,
    /// How the writer ended.
    pub writer: JoinOutcome,
    /// Worker-pool join accounting.
    pub workers: WorkerJoinStats,
    /// How the flight sampler ended.
    pub sampler: JoinOutcome,
}

impl ShutdownReport {
    /// True when every thread ended cleanly.
    pub fn is_clean(&self) -> bool {
        self.writer != JoinOutcome::Panicked
            && self.sampler != JoinOutcome::Panicked
            && self.workers.panicked == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_report_cleanliness() {
        let clean = ShutdownReport {
            last_epoch: Some(3),
            writer: JoinOutcome::Clean,
            workers: WorkerJoinStats { spawned: 4, clean: 4, panicked: 0 },
            sampler: JoinOutcome::NotSpawned,
        };
        assert!(clean.is_clean());
        let dirty = ShutdownReport {
            workers: WorkerJoinStats { spawned: 4, clean: 3, panicked: 1 },
            ..clean
        };
        assert!(!dirty.is_clean());
    }
}
