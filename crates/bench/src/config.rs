//! Harness configuration from environment variables.
//!
//! This module is one of the three allowlisted `TASKBENCH_*` parse
//! helpers (with `ws::parse_workers` and `obs::env`) — the lint rule
//! `env-discipline` keeps every other file from reading the environment
//! directly, so each knob has exactly one parse and one default.

/// Output directory override for adversary-matrix archives
/// (`TASKBENCH_ADV_DIR`), if set.
pub fn adversary_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("TASKBENCH_ADV_DIR").map(std::path::PathBuf::from)
}

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Master seed; all per-instance seeds derive from it.
    pub seed: u64,
    /// Paper-scale sampling when true; quick (CI-sized) sweeps otherwise.
    pub full: bool,
}

impl Config {
    /// Read `TASKBENCH_SEED` / `TASKBENCH_FULL` from the environment.
    pub fn from_env() -> Config {
        let seed = std::env::var("TASKBENCH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x1998);
        let full = std::env::var("TASKBENCH_FULL")
            .map(|v| v == "1")
            .unwrap_or(false);
        Config { seed, full }
    }

    /// Quick test config.
    pub fn quick(seed: u64) -> Config {
        Config { seed, full: false }
    }

    /// RGNOS samples per graph size: (ccr, parallelism) pairs.
    pub fn rgnos_points(&self) -> Vec<(f64, u32)> {
        if self.full {
            let mut v = Vec::new();
            for &ccr in &dagsched_suites::rgnos::CCRS {
                for &par in &dagsched_suites::rgnos::PARALLELISMS {
                    v.push((ccr, par));
                }
            }
            v
        } else {
            vec![(0.1, 3), (1.0, 3), (10.0, 3)]
        }
    }

    /// RGNOS graph sizes.
    pub fn rgnos_sizes(&self) -> Vec<usize> {
        if self.full {
            dagsched_suites::rgnos::sizes()
        } else {
            vec![50, 100, 200, 300, 400, 500]
        }
    }

    /// Branch-and-bound node cap for the RGBOS optimality reference.
    ///
    /// Raised (quick 400k→1M, full 8M→32M) so that more instances *prove*
    /// instead of reporting a best-known bound, which tightens the
    /// degradation tables; the grid solves its cells concurrently.
    pub fn bnb_node_limit(&self) -> u64 {
        if self.full {
            32_000_000
        } else {
            1_000_000
        }
    }

    /// "Virtually unlimited" processor count for BNP algorithms (§6.4.2):
    /// one per task, capped at 32 (no experiment in the paper benefits from
    /// more; an uncapped ETF/DLS pair scan would be quadratically slower
    /// for zero schedule-quality change).
    pub fn bnp_unlimited_procs(&self, v: usize) -> usize {
        v.min(32)
    }

    /// The APN machine of the figures: 8 processors in a hypercube
    /// ("a 500-node task graph is scheduled to 8 processors", §6.4).
    pub fn apn_topology(&self) -> dagsched_platform::Topology {
        dagsched_platform::Topology::hypercube(3).expect("dim 3 is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_small() {
        let c = Config::quick(1);
        assert!(!c.full);
        assert_eq!(c.rgnos_points().len(), 3);
        assert!(c.bnb_node_limit() <= 1_000_000);
        assert!(
            c.bnb_node_limit()
                < Config {
                    seed: 1,
                    full: true
                }
                .bnb_node_limit()
        );
        assert_eq!(c.bnp_unlimited_procs(500), 32);
        assert_eq!(c.bnp_unlimited_procs(10), 10);
    }

    #[test]
    fn full_config_covers_the_paper_sweep() {
        let c = Config {
            seed: 1,
            full: true,
        };
        assert_eq!(c.rgnos_points().len(), 25);
        assert_eq!(c.rgnos_sizes().len(), 10);
    }

    #[test]
    fn apn_machine_has_eight_procs() {
        let c = Config::quick(1);
        assert_eq!(c.apn_topology().num_procs(), 8);
    }
}
