//! A fixed-rate schedule: epoch `i` is due at `origin + i × period`,
//! whatever happened to the epochs before it.
//!
//! The `serve_mixed` writer runs on one, so a cheaper publish shortens
//! the writer's epochs without changing how often the readers are
//! disturbed. An epoch that starts late does not move the ones after it:
//! a writer that falls behind runs back to back until it has caught up,
//! and every epoch it started late is counted.

use std::time::{Duration, Instant};

pub struct FixedRate {
    origin: Instant,
    period: Duration,
    issued: u32,
    late: u64,
}

/// What the schedule says at some instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// The next epoch is not due for this long.
    Wait(Duration),
    /// The next epoch is due (and has been for `late_by`); it is now
    /// issued.
    Due { late_by: Duration },
}

impl FixedRate {
    /// A schedule whose epoch 0 is due at `origin`.
    pub fn new(origin: Instant, period: Duration) -> FixedRate {
        FixedRate { origin, period, issued: 0, late: 0 }
    }

    /// Issues the next epoch if it is due at `now`. An epoch counts as
    /// late when it is issued more than a tenth of a period after it
    /// was due — wake-up jitter is not lateness.
    pub fn poll(&mut self, now: Instant) -> Tick {
        let due = self.origin + self.period * self.issued;
        if now < due {
            return Tick::Wait(due - now);
        }
        let late_by = now - due;
        self.issued += 1;
        if late_by > self.period / 10 {
            self.late += 1;
        }
        Tick::Due { late_by }
    }

    /// Epochs issued so far.
    pub fn issued(&self) -> u32 {
        self.issued
    }

    /// Epochs issued late.
    pub fn late(&self) -> u64 {
        self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn epochs_are_due_on_the_grid() {
        let t0 = Instant::now();
        let mut s = FixedRate::new(t0, 25 * MS);
        assert_eq!(s.poll(t0), Tick::Due { late_by: Duration::ZERO });
        assert_eq!(s.poll(t0 + 10 * MS), Tick::Wait(15 * MS));
        assert_eq!(s.poll(t0 + 26 * MS), Tick::Due { late_by: MS });
        assert_eq!(s.poll(t0 + 26 * MS), Tick::Wait(24 * MS));
        assert_eq!((s.issued(), s.late()), (2, 0));
    }

    #[test]
    fn a_stall_is_counted_and_caught_up_without_moving_the_grid() {
        let t0 = Instant::now();
        let mut s = FixedRate::new(t0, 25 * MS);
        assert!(matches!(s.poll(t0), Tick::Due { .. }));
        // Epoch 0 took 80 ms: epochs 1, 2 and 3 are all overdue.
        let now = t0 + 80 * MS;
        assert_eq!(s.poll(now), Tick::Due { late_by: 55 * MS });
        assert_eq!(s.poll(now), Tick::Due { late_by: 30 * MS });
        assert_eq!(s.poll(now), Tick::Due { late_by: 5 * MS });
        // Epoch 4 is back on the grid, at 100 ms.
        assert_eq!(s.poll(now), Tick::Wait(20 * MS));
        assert_eq!((s.issued(), s.late()), (4, 3));
    }
}
