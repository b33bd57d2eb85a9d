//! Machine descriptions, including the Table I supercomputers.
//!
//! A [`MachineSpec`] is everything the discrete-event simulator needs to
//! charge time: per-node worker count, a relative compute speed (scaled
//! by clock frequency against the Stampede2 Skylake baseline the kernel
//! costs were calibrated on), and a communication model (per-message
//! latency, per-byte time, sender injection serialisation).

/// A distributed machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Human-readable name ("Summit", "Stampede2", "Bridges2", ...).
    pub name: String,
    /// Number of nodes (processes; one rank per node, as the paper runs
    /// one process per node with node-wide tree aggregation).
    pub nodes: usize,
    /// Worker threads per rank.
    pub workers_per_rank: usize,
    /// CPU type label for Table I output.
    pub cpu_type: String,
    /// Core clock in GHz (scales compute cost).
    pub clock_ghz: f64,
    /// Communication layer label for Table I output.
    pub comm_layer: String,
    /// One-way small-message latency in seconds.
    pub latency_s: f64,
    /// Per-byte transfer time in seconds (1/bandwidth).
    pub byte_time_s: f64,
}

/// The Skylake clock the kernel cost constants are calibrated against.
pub const BASELINE_CLOCK_GHZ: f64 = 2.1;

impl MachineSpec {
    /// Total workers across the machine.
    pub fn total_workers(&self) -> usize {
        self.nodes * self.workers_per_rank
    }

    /// Compute-cost multiplier relative to the calibration baseline
    /// (slower clock → larger multiplier).
    pub fn compute_scale(&self) -> f64 {
        BASELINE_CLOCK_GHZ / self.clock_ghz
    }

    /// Summit (ORNL): POWER9, 42 cores/node, 2-way SMT → 84 workers, UCX.
    /// The paper's Fig. 10 platform.
    pub fn summit(nodes: usize) -> MachineSpec {
        MachineSpec {
            name: "Summit".into(),
            nodes,
            workers_per_rank: 84,
            cpu_type: "POWER9".into(),
            clock_ghz: 3.1,
            comm_layer: "UCX".into(),
            latency_s: 1.5e-6,
            byte_time_s: 1.0 / 12.5e9, // ~100 Gb/s EDR
        }
    }

    /// Stampede2 SKX partition (TACC): Skylake, 48 cores/node, MPI.
    /// The paper's Figs. 3, 9, 11, 13 and Table II platform.
    pub fn stampede2(nodes: usize) -> MachineSpec {
        MachineSpec {
            name: "Stampede2".into(),
            nodes,
            workers_per_rank: 48,
            cpu_type: "Skylake".into(),
            clock_ghz: 2.1,
            comm_layer: "MPI".into(),
            latency_s: 2.0e-6,
            byte_time_s: 1.0 / 12.5e9,
        }
    }

    /// Stampede2 configured as the paper runs Fig. 3: 24 cores to a
    /// process, one thread per core (two ranks per node).
    pub fn stampede2_24(processes: usize) -> MachineSpec {
        MachineSpec { workers_per_rank: 24, ..MachineSpec::stampede2(processes) }
    }

    /// Bridges2 regular memory partition (PSC): EPYC 7742, 128
    /// cores/node, InfiniBand. The paper's Fig. 12 platform.
    pub fn bridges2(nodes: usize) -> MachineSpec {
        MachineSpec {
            name: "Bridges2".into(),
            nodes,
            workers_per_rank: 128,
            cpu_type: "EPYC 7742".into(),
            clock_ghz: 2.25,
            comm_layer: "Infiniband".into(),
            latency_s: 1.2e-6,
            byte_time_s: 1.0 / 25.0e9, // HDR-200
        }
    }

    /// A tiny machine for unit tests: deterministic and fast.
    pub fn test(nodes: usize, workers_per_rank: usize) -> MachineSpec {
        MachineSpec {
            name: "test".into(),
            nodes,
            workers_per_rank,
            cpu_type: "test".into(),
            clock_ghz: BASELINE_CLOCK_GHZ,
            comm_layer: "channel".into(),
            latency_s: 1.0e-6,
            byte_time_s: 1.0e-10,
        }
    }

    /// The Table I rows, as (name, cores/node, cpu, clock, comm layer).
    pub fn table1() -> Vec<(String, usize, String, f64, String)> {
        [MachineSpec::summit(1), MachineSpec::stampede2(1), MachineSpec::bridges2(1)]
            .into_iter()
            .map(|m| {
                let physical = if m.name == "Summit" { 42 } else { m.workers_per_rank };
                (m.name, physical, m.cpu_type, m.clock_ghz, m.comm_layer)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let rows = MachineSpec::table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], ("Summit".into(), 42, "POWER9".into(), 3.1, "UCX".into()));
        assert_eq!(rows[1], ("Stampede2".into(), 48, "Skylake".into(), 2.1, "MPI".into()));
        assert_eq!(
            rows[2],
            ("Bridges2".into(), 128, "EPYC 7742".into(), 2.25, "Infiniband".into())
        );
    }

    #[test]
    fn compute_scale_is_relative_to_skylake() {
        assert_eq!(MachineSpec::stampede2(4).compute_scale(), 1.0);
        assert!(MachineSpec::summit(4).compute_scale() < 1.0); // faster clock
        let m = MachineSpec::bridges2(2);
        assert_eq!(m.total_workers(), 256);
    }

    #[test]
    fn summit_uses_smt2() {
        assert_eq!(MachineSpec::summit(1).workers_per_rank, 84);
    }

    #[test]
    fn fig3_config_runs_24_per_process() {
        let m = MachineSpec::stampede2_24(64);
        assert_eq!(m.workers_per_rank, 24);
        assert_eq!(m.total_workers(), 1536);
    }
}
