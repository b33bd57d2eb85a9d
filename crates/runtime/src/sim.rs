//! The discrete-event distributed-machine simulator.
//!
//! [`Sim`] plays the role Charm++ plays for the reference code: it owns
//! the notion of ranks, workers, message delivery, and time. The engine
//! layered on top executes the real algorithm inside event handlers and
//! charges costs in *calibrated seconds* (measured on the Stampede2
//! Skylake baseline and scaled by the machine's clock).
//!
//! Scheduling rules:
//!
//! * a task spawned on a rank goes to that rank's **least busy worker**
//!   (the paper's fill-assignment policy) and runs for its cost,
//! * an *exclusive* task additionally serialises on a named per-rank
//!   resource — this models the XWrite cache's insertion lock and the
//!   one-message-at-a-time semantics of chares (partitions),
//! * a message occupies the sender's NIC for `bytes × byte_time`
//!   (injection serialisation), then arrives `latency` later.
//!
//! Determinism: the event queue breaks time ties by sequence number, so
//! identical inputs replay identical timelines.

use crate::ledger::Ledger;
use crate::machine::MachineSpec;
use crate::phase::Phase;
use paratreet_telemetry::{MetricSource, MetricsRegistry, Telemetry, Track};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};

/// Identifies one worker thread: `(rank, worker index within rank)`.
pub type WorkerId = (u32, u32);

/// A pending event.
struct Scheduled<P> {
    time: f64,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for Scheduled<P> {}
impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reverse for a min-heap on (time, seq).
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Communication counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl MetricSource for CommStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.messages"), self.messages);
        registry.set_u64(format!("{prefix}.bytes"), self.bytes);
    }
}

/// The simulator. `P` is the engine's event payload type.
pub struct Sim<P> {
    /// The machine being simulated.
    pub machine: MachineSpec,
    now: f64,
    seq: u64,
    queue: BinaryHeap<Scheduled<P>>,
    /// `rank * workers_per_rank + worker` → busy-until time.
    worker_free: Vec<f64>,
    /// Per-rank NIC busy-until time.
    nic_free: Vec<f64>,
    /// Named exclusive resources → busy-until time.
    resource_free: HashMap<u64, f64>,
    /// Busy-interval accounting.
    pub ledger: Ledger,
    /// Communication accounting.
    pub comm: CommStats,
    /// Span sink. Every task the simulator schedules becomes one span on
    /// the `(rank, worker)` track it ran on, stamped in *virtual*
    /// microseconds — a disabled handle (the default) records nothing.
    pub telemetry: Telemetry,
    compute_scale: f64,
}

impl<P> Sim<P> {
    /// A fresh simulator for `machine` at time zero.
    pub fn new(machine: MachineSpec) -> Sim<P> {
        let workers = machine.total_workers();
        let nodes = machine.nodes;
        let compute_scale = machine.compute_scale();
        Sim {
            machine,
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            worker_free: vec![0.0; workers],
            nic_free: vec![0.0; nodes],
            resource_free: HashMap::new(),
            ledger: Ledger::new(),
            comm: CommStats::default(),
            telemetry: Telemetry::disabled(),
            compute_scale,
        }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> u32 {
        self.machine.nodes as u32
    }

    fn push(&mut self, time: f64, payload: P) {
        self.seq += 1;
        self.queue.push(Scheduled { time, seq: self.seq, payload });
    }

    /// Index of the least-busy worker on `rank`.
    fn least_busy_worker(&self, rank: u32) -> usize {
        let w = self.machine.workers_per_rank;
        let base = rank as usize * w;
        let mut best = base;
        for i in base..base + w {
            if self.worker_free[i] < self.worker_free[best] {
                best = i;
            }
        }
        best
    }

    /// Runs `cost` calibrated-seconds of `phase` work on `rank`'s least
    /// busy worker; `payload` fires when it completes.
    pub fn spawn(&mut self, rank: u32, phase: Phase, cost: f64, payload: P) {
        self.spawn_inner(rank, None, phase, cost, payload);
    }

    /// Like [`Sim::spawn`], but also serialises on exclusive resource
    /// `resource` (a caller-chosen id, e.g. a partition id or a lock id):
    /// the task cannot start until both a worker and the resource are
    /// free, and it holds the resource for its duration.
    pub fn spawn_exclusive(
        &mut self,
        rank: u32,
        resource: u64,
        phase: Phase,
        cost: f64,
        payload: P,
    ) {
        self.spawn_inner(rank, Some(resource), phase, cost, payload);
    }

    fn spawn_inner(
        &mut self,
        rank: u32,
        resource: Option<u64>,
        phase: Phase,
        cost: f64,
        payload: P,
    ) {
        debug_assert!((rank as usize) < self.machine.nodes, "rank out of range");
        debug_assert!(cost >= 0.0);
        let cost = cost * self.compute_scale;
        let w = self.least_busy_worker(rank);
        let mut start = self.now.max(self.worker_free[w]);
        if let Some(r) = resource {
            let free = self.resource_free.entry(r).or_insert(0.0);
            start = start.max(*free);
            *free = start + cost;
        }
        let end = start + cost;
        self.worker_free[w] = end;
        self.ledger.record(start, end, phase);
        let local = (w - rank as usize * self.machine.workers_per_rank) as u32;
        self.telemetry.span_at(
            Track { rank, worker: local },
            phase.label(),
            start * 1e6,
            (end - start) * 1e6,
            None,
        );
        self.push(end, payload);
    }

    /// Sends `bytes` from `from` to `to`; `payload` fires on arrival.
    /// Rank-local sends skip the NIC and latency entirely (shared
    /// memory), which is exactly the saving the node-wide cache exploits.
    pub fn send(&mut self, from: u32, to: u32, bytes: u64, payload: P) {
        self.send_delayed(from, to, bytes, 0.0, payload);
    }

    /// Like [`Sim::send`], but the message spends `extra_delay` extra
    /// seconds in flight. This is the fault layer's delay/reorder knob:
    /// a delayed message arrives after messages sent later, so handlers
    /// observe genuine reordering.
    pub fn send_delayed(&mut self, from: u32, to: u32, bytes: u64, extra_delay: f64, payload: P) {
        debug_assert!(extra_delay >= 0.0);
        self.comm.messages += 1;
        if from == to {
            self.push(self.now + extra_delay, payload);
            return;
        }
        self.comm.bytes += bytes;
        let nic = &mut self.nic_free[from as usize];
        let inject_done = self.now.max(*nic) + bytes as f64 * self.machine.byte_time_s;
        *nic = inject_done;
        let arrive = inject_done + self.machine.latency_s + extra_delay;
        self.push(arrive, payload);
    }

    /// Fires `payload` at the current time without occupying a worker
    /// (control messages, iteration barriers).
    pub fn post(&mut self, payload: P) {
        self.push(self.now, payload);
    }

    /// Fires `payload` `delay` seconds from now without occupying a
    /// worker — timers, e.g. the engine's fetch-retry timeout.
    pub fn post_after(&mut self, delay: f64, payload: P) {
        debug_assert!(delay >= 0.0);
        self.push(self.now + delay, payload);
    }

    /// Drains the event queue, advancing time and calling `handler` for
    /// every event. Returns the makespan: the later of the last event and
    /// the last worker-busy end.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Sim<P>, P)) -> f64 {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.time >= self.now - 1e-12, "time must not run backwards");
            self.now = self.now.max(ev.time);
            handler(self, ev.payload);
        }
        self.makespan()
    }

    /// The later of "now" and every worker's busy-until.
    pub fn makespan(&self) -> f64 {
        self.worker_free.iter().copied().fold(self.now, f64::max)
    }

    /// Total worker-seconds of capacity up to the makespan.
    pub fn capacity(&self) -> f64 {
        self.makespan() * self.machine.total_workers() as f64
    }

    /// Fraction of capacity spent busy (0..=1).
    pub fn utilization(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0.0 {
            0.0
        } else {
            self.ledger.total_busy() / cap
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------

/// The pipeline stage a scheduled rank crash interrupts (the crash
/// fires as the stage *begins*, so the rank's whole contribution to it
/// is lost and must be re-derived during recovery).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPhase {
    /// During decomposition (before the rank's sort finishes).
    Decomposition,
    /// During the local tree builds.
    TreeBuild,
    /// During summary/leaf sharing.
    LeafSharing,
    /// After traversal has started.
    Traversal,
}

impl CrashPhase {
    /// Stable index for metrics (`fault.crash.phase_idx`).
    pub fn index(self) -> u32 {
        match self {
            CrashPhase::Decomposition => 0,
            CrashPhase::TreeBuild => 1,
            CrashPhase::LeafSharing => 2,
            CrashPhase::Traversal => 3,
        }
    }
}

/// When the scheduled crash fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrashTrigger {
    /// At the virtual instant a pipeline stage begins.
    AtPhase(CrashPhase),
    /// At an absolute virtual time (seconds).
    AtTime(f64),
}

/// One deterministic crash-stop failure: `rank` dies at the trigger
/// point, loses all in-memory state (cache fills, traversal progress,
/// built subtrees), and either restarts after `restart_delay_s`
/// (recovering from its checkpoint) or stays dead forever, in which
/// case the engine re-shards its subtrees and partitions across the
/// survivors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashConfig {
    /// The rank that crashes (must be a valid rank of a ≥2-rank machine).
    pub rank: u32,
    /// When it crashes.
    pub trigger: CrashTrigger,
    /// Whether the rank comes back.
    pub restart: bool,
    /// Reboot time before the restarted rank begins recovery (seconds
    /// after the crash is detected).
    pub restart_delay_s: f64,
}

impl Default for CrashConfig {
    fn default() -> CrashConfig {
        CrashConfig {
            rank: 0,
            trigger: CrashTrigger::AtPhase(CrashPhase::Traversal),
            restart: true,
            restart_delay_s: 5e-3,
        }
    }
}

/// Probabilities and magnitudes for deterministic message-fault
/// injection. All decisions derive from `seed` through a splitmix64
/// stream, so a given config replays the identical fault pattern every
/// run — faults are part of the simulated timeline, not noise.
///
/// The three probabilities partition one uniform draw per message, so
/// they must sum to at most 1. `drop_p` must stay below 1.0: a message
/// stream that loses everything can never be recovered by retries.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub duplicate_p: f64,
    /// Probability a message is delayed (and thereby reordered past
    /// messages sent after it).
    pub delay_p: f64,
    /// Mean extra in-flight time of a delayed message (seconds); the
    /// actual delay is uniform in `[0.5, 1.5] × delay_s`.
    pub delay_s: f64,
    /// How long the engine waits for a fill before re-requesting.
    pub retry_timeout_s: f64,
    /// Optional scheduled rank crash (crash-stop model).
    pub crash: Option<CrashConfig>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0x5EED_CAFE,
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            delay_s: 0.0,
            retry_timeout_s: 2e-3,
            crash: None,
        }
    }
}

/// Why a [`FaultConfig`] was rejected by [`FaultInjector::new`]. Every
/// variant names the offending knob and value so CLI layers can print
/// it without re-deriving the check.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultConfigError {
    /// A probability was NaN, negative, or above 1.
    InvalidProbability {
        /// Which knob (`drop_p`, `duplicate_p`, `delay_p`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The three probabilities do not partition a unit draw.
    OverfullProbabilities {
        /// Their sum (> 1).
        sum: f64,
    },
    /// `drop_p = 1` would defeat every retry.
    CertainDrop,
    /// `retry_timeout_s` was NaN or not positive (the retry/crash
    /// detection machinery needs a real timeout).
    InvalidTimeout {
        /// The rejected value.
        value: f64,
    },
    /// The crash schedule is unusable (negative time/delay, NaN).
    InvalidCrash {
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::InvalidProbability { name, value } => {
                write!(f, "fault probability {name} = {value} is not in [0, 1]")
            }
            FaultConfigError::OverfullProbabilities { sum } => {
                write!(f, "fault probabilities must sum to at most 1 (got {sum})")
            }
            FaultConfigError::CertainDrop => {
                write!(f, "drop_p = 1 would defeat every retry")
            }
            FaultConfigError::InvalidTimeout { value } => {
                write!(f, "retry_timeout_s = {value} must be positive")
            }
            FaultConfigError::InvalidCrash { reason } => {
                write!(f, "invalid crash schedule: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// What the injector decided for one message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Do not deliver at all.
    Drop,
    /// Deliver twice.
    Duplicate,
    /// Deliver with this many extra seconds in flight.
    Delay(f64),
}

/// Counts of injected faults, for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
}

impl MetricSource for FaultStats {
    fn register_metrics(&self, prefix: &str, registry: &mut MetricsRegistry) {
        registry.set_u64(format!("{prefix}.dropped"), self.dropped);
        registry.set_u64(format!("{prefix}.duplicated"), self.duplicated);
        registry.set_u64(format!("{prefix}.delayed"), self.delayed);
    }
}

/// The seeded decision stream. One [`FaultInjector::decide`] call per
/// message, in a deterministic order, yields a deterministic fault
/// pattern.
#[derive(Debug)]
pub struct FaultInjector {
    /// The configuration in force.
    pub config: FaultConfig,
    /// Faults injected so far.
    pub stats: FaultStats,
    state: u64,
}

impl FaultInjector {
    /// A fresh injector. Rejects (rather than panics on) every config a
    /// user-facing knob could produce: NaN or out-of-range
    /// probabilities, probabilities that do not partition a unit draw,
    /// a certain drop that no retry could survive, a timeout the retry
    /// machinery cannot arm, and unusable crash schedules.
    pub fn new(config: FaultConfig) -> Result<FaultInjector, FaultConfigError> {
        for (name, value) in [
            ("drop_p", config.drop_p),
            ("duplicate_p", config.duplicate_p),
            ("delay_p", config.delay_p),
        ] {
            if !(0.0..=1.0).contains(&value) {
                // NaN fails the range test too.
                return Err(FaultConfigError::InvalidProbability { name, value });
            }
        }
        let sum = config.drop_p + config.duplicate_p + config.delay_p;
        if sum > 1.0 {
            return Err(FaultConfigError::OverfullProbabilities { sum });
        }
        if config.drop_p >= 1.0 {
            return Err(FaultConfigError::CertainDrop);
        }
        if config.retry_timeout_s.is_nan() || config.retry_timeout_s <= 0.0 {
            return Err(FaultConfigError::InvalidTimeout { value: config.retry_timeout_s });
        }
        if let Some(crash) = &config.crash {
            if let CrashTrigger::AtTime(t) = crash.trigger {
                if t.is_nan() || t < 0.0 {
                    return Err(FaultConfigError::InvalidCrash {
                        reason: "crash time must be a non-negative number of seconds",
                    });
                }
            }
            if crash.restart_delay_s.is_nan() || crash.restart_delay_s < 0.0 {
                return Err(FaultConfigError::InvalidCrash {
                    reason: "restart delay must be a non-negative number of seconds",
                });
            }
        }
        Ok(FaultInjector { config, stats: FaultStats::default(), state: config.seed })
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, seedable, and plenty for fault decisions.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of the next message.
    pub fn decide(&mut self) -> FaultAction {
        let u = self.next_unit();
        let c = &self.config;
        if u < c.drop_p {
            self.stats.dropped += 1;
            FaultAction::Drop
        } else if u < c.drop_p + c.duplicate_p {
            self.stats.duplicated += 1;
            FaultAction::Duplicate
        } else if u < c.drop_p + c.duplicate_p + c.delay_p {
            self.stats.delayed += 1;
            FaultAction::Delay(c.delay_s * (0.5 + self.next_unit()))
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec::test(2, 2)
    }

    #[test]
    fn tasks_run_in_time_order_deterministically() {
        let mut sim: Sim<u32> = Sim::new(machine());
        sim.spawn(0, Phase::TreeBuild, 2.0, 1);
        sim.spawn(0, Phase::TreeBuild, 1.0, 2);
        sim.spawn(1, Phase::TreeBuild, 0.5, 3);
        let mut order = Vec::new();
        sim.run(|_, p| order.push(p));
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn least_busy_worker_balances() {
        // Two workers on rank 0: four 1s tasks finish at 1,1,2,2 not 1,2,3,4.
        let mut sim: Sim<u32> = Sim::new(machine());
        for i in 0..4 {
            sim.spawn(0, Phase::LocalTraversal, 1.0, i);
        }
        let makespan = sim.run(|_, _| {});
        assert!((makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_resource_serialises() {
        // Two workers, but both tasks hold resource 7: they serialise.
        let mut sim: Sim<u32> = Sim::new(machine());
        sim.spawn_exclusive(0, 7, Phase::CacheInsertion, 1.0, 0);
        sim.spawn_exclusive(0, 7, Phase::CacheInsertion, 1.0, 1);
        let makespan = sim.run(|_, _| {});
        assert!((makespan - 2.0).abs() < 1e-12);
        // Without the resource they would overlap.
        let mut sim2: Sim<u32> = Sim::new(machine());
        sim2.spawn(0, Phase::CacheInsertion, 1.0, 0);
        sim2.spawn(0, Phase::CacheInsertion, 1.0, 1);
        assert!((sim2.run(|_, _| {}) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn messages_pay_latency_and_bandwidth() {
        let m = machine();
        let latency = m.latency_s;
        let byte_time = m.byte_time_s;
        let mut sim: Sim<&str> = Sim::new(m);
        sim.send(0, 1, 1000, "arrived");
        let mut arrival = 0.0;
        sim.run(|s, p| {
            assert_eq!(p, "arrived");
            arrival = s.now();
        });
        let expected = 1000.0 * byte_time + latency;
        assert!((arrival - expected).abs() < 1e-15);
        assert_eq!(sim.comm.messages, 1);
        assert_eq!(sim.comm.bytes, 1000);
    }

    #[test]
    fn rank_local_sends_are_free() {
        let mut sim: Sim<&str> = Sim::new(machine());
        sim.send(1, 1, 1_000_000, "local");
        let mut arrival = f64::NAN;
        sim.run(|s, _| arrival = s.now());
        assert_eq!(arrival, 0.0);
        assert_eq!(sim.comm.bytes, 0, "local bytes do not hit the network");
    }

    #[test]
    fn nic_injection_serialises_sends() {
        let m = machine();
        let byte_time = m.byte_time_s;
        let mut sim: Sim<u32> = Sim::new(m);
        sim.send(0, 1, 1_000_000, 1);
        sim.send(0, 1, 1_000_000, 2);
        let mut times = Vec::new();
        sim.run(|s, p| times.push((p, s.now())));
        // Second message injects only after the first.
        let gap = times[1].1 - times[0].1;
        assert!((gap - 1_000_000.0 * byte_time).abs() < 1e-12);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim: Sim<u32> = Sim::new(machine());
        sim.spawn(0, Phase::LocalTraversal, 1.0, 0);
        let mut count = 0;
        sim.run(|s, p| {
            count += 1;
            if p < 3 {
                s.spawn(0, Phase::LocalTraversal, 1.0, p + 1);
            }
        });
        assert_eq!(count, 4);
        assert!((sim.makespan() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut sim: Sim<u32> = Sim::new(MachineSpec::test(1, 2));
        sim.spawn(0, Phase::LocalTraversal, 2.0, 0); // one of two workers busy
        sim.run(|_, _| {});
        assert!((sim.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn post_after_fires_at_the_requested_time() {
        let mut sim: Sim<u32> = Sim::new(machine());
        sim.post_after(2.5, 1);
        sim.post(0);
        let mut order = Vec::new();
        sim.run(|s, p| order.push((p, s.now())));
        assert_eq!(order[0].0, 0);
        assert_eq!(order[1].0, 1);
        assert!((order[1].1 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn delayed_sends_reorder_past_later_sends() {
        let m = machine();
        let mut sim: Sim<u32> = Sim::new(m);
        sim.send_delayed(0, 1, 10, 1.0, 1); // sent first, delayed
        sim.send(0, 1, 10, 2); // sent second, arrives first
        let mut order = Vec::new();
        sim.run(|_, p| order.push(p));
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn fault_injector_is_deterministic_and_counts() {
        let cfg = FaultConfig {
            seed: 42,
            drop_p: 0.2,
            duplicate_p: 0.2,
            delay_p: 0.2,
            delay_s: 1e-3,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(cfg).unwrap();
        let mut b = FaultInjector::new(cfg).unwrap();
        let seq_a: Vec<FaultAction> = (0..256).map(|_| a.decide()).collect();
        let seq_b: Vec<FaultAction> = (0..256).map(|_| b.decide()).collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same faults");
        assert_eq!(
            a.stats.dropped + a.stats.duplicated + a.stats.delayed,
            seq_a.iter().filter(|x| !matches!(x, FaultAction::Deliver)).count() as u64
        );
        // Rough sanity: each fault kind actually fires at these rates.
        assert!(a.stats.dropped > 20 && a.stats.duplicated > 20 && a.stats.delayed > 20);
        // A different seed gives a different pattern.
        let mut c = FaultInjector::new(FaultConfig { seed: 43, ..cfg }).unwrap();
        let seq_c: Vec<FaultAction> = (0..256).map(|_| c.decide()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn fault_injector_rejects_overfull_probabilities() {
        let err = FaultInjector::new(FaultConfig {
            drop_p: 0.6,
            duplicate_p: 0.6,
            ..FaultConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, FaultConfigError::OverfullProbabilities { sum: 1.2 });
        assert!(err.to_string().contains("sum to at most 1"));
    }

    #[test]
    fn fault_injector_rejects_nan_and_negative_probabilities() {
        for bad in [f64::NAN, -0.1, 1.5] {
            let err =
                FaultInjector::new(FaultConfig { duplicate_p: bad, ..FaultConfig::default() })
                    .unwrap_err();
            match err {
                FaultConfigError::InvalidProbability { name, value } => {
                    assert_eq!(name, "duplicate_p");
                    assert!(value.is_nan() == bad.is_nan() && (value == bad || bad.is_nan()));
                }
                other => panic!("expected InvalidProbability, got {other:?}"),
            }
        }
    }

    #[test]
    fn fault_injector_rejects_certain_drop() {
        let err =
            FaultInjector::new(FaultConfig { drop_p: 1.0, ..FaultConfig::default() }).unwrap_err();
        assert_eq!(err, FaultConfigError::CertainDrop);
    }

    #[test]
    fn fault_injector_rejects_bad_timeouts() {
        for bad in [0.0, -1.0, f64::NAN] {
            let err =
                FaultInjector::new(FaultConfig { retry_timeout_s: bad, ..FaultConfig::default() })
                    .unwrap_err();
            match err {
                FaultConfigError::InvalidTimeout { .. } => {}
                other => panic!("expected InvalidTimeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn fault_injector_rejects_bad_crash_schedules() {
        let bad_time = FaultConfig {
            crash: Some(CrashConfig {
                trigger: CrashTrigger::AtTime(-1.0),
                ..CrashConfig::default()
            }),
            ..FaultConfig::default()
        };
        assert!(matches!(
            FaultInjector::new(bad_time).unwrap_err(),
            FaultConfigError::InvalidCrash { .. }
        ));
        let bad_delay = FaultConfig {
            crash: Some(CrashConfig { restart_delay_s: f64::NAN, ..CrashConfig::default() }),
            ..FaultConfig::default()
        };
        assert!(matches!(
            FaultInjector::new(bad_delay).unwrap_err(),
            FaultConfigError::InvalidCrash { .. }
        ));
    }

    #[test]
    fn compute_scale_applies_to_costs() {
        // Summit's 3.1 GHz clock makes a 1.0s-calibrated task faster.
        let mut sim: Sim<u32> = Sim::new(MachineSpec::summit(1));
        sim.spawn(0, Phase::LocalTraversal, 1.0, 0);
        let makespan = sim.run(|_, _| {});
        assert!((makespan - 2.1 / 3.1).abs() < 1e-12);
    }
}
