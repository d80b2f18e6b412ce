#![forbid(unsafe_code)]
//! # dagsched-bench — the experiment harness
//!
//! One binary per table and figure of Kwok & Ahmad (IPPS 1998), §6:
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1_psg` | Table 1 — schedule lengths of UNC+BNP algorithms on the Peer Set Graphs |
//! | `table2_rgbos_unc` | Table 2 — % degradation from branch-and-bound optimal, RGBOS, UNC |
//! | `table3_rgbos_bnp` | Table 3 — % degradation from branch-and-bound optimal, RGBOS, BNP |
//! | `table4_rgpos_unc` | Table 4 — % degradation from constructed optimal, RGPOS, UNC |
//! | `table5_rgpos_bnp` | Table 5 — % degradation from constructed optimal, RGPOS, BNP |
//! | `table6_runtimes` | Table 6 — average running times on RGNOS |
//! | `fig2_nsl_rgnos` | Fig. 2(a–c) — average NSL vs graph size per class |
//! | `fig3_procs_rgnos` | Fig. 3(a–b) — average processors used vs graph size |
//! | `fig4_cholesky` | Fig. 4(a–c) — average NSL on Cholesky traced graphs |
//! | `apn_topology` | §6.4 text — topology sensitivity of the APN class |
//! | `ablations` | design-choice ablations the paper's conclusions call out |
//! | `run_all` | everything above, streamed to stdout |
//!
//! Every experiment is deterministic given the seed. Two knobs, via
//! environment variables:
//!
//! * `TASKBENCH_FULL=1` — paper-scale sample counts (slower);
//! * `TASKBENCH_SEED=<u64>` — alternative master seed (default
//!   `0x1998`, the publication year).

pub mod config;
pub mod experiments;
pub mod report;
pub mod runner;

pub use config::Config;
pub use runner::{run_timed, RunRecord};
