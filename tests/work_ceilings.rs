//! Logical-work ceilings on the headline instances of the DSC, MD, DCP
//! and BSA hot-path overhauls (paper-scale RGNOS, parallelism 3), each run
//! once on the test thread.
//!
//! Every run must reproduce its committed
//! [`Outcome::digest`](taskbench::core::Outcome::digest), and its
//! `obs::registry` counter deltas are gated on logical work:
//!
//! * DSC pops each task once (`heap.pops == v`) within [`HEAP_OPS_MAX`]
//!   heap operations per task (a scan selects with no pops);
//! * MD and DCP make one engine repair per placement (`engine.repairs ==
//!   v`) within [`CONE_NODES_MAX`] cone nodes per repair (a rescan touches
//!   2v);
//! * BSA commits at most [`MSGS_MAX`] messages per trial (a full replay
//!   recommits every cross-processor message).
//!
//! Counters of a single-threaded run are identical on every host, so these
//! gates need no core-count exemption and no retries. The branch-and-bound
//! search is pinned node for node by the `BNB` table of
//! `tests/placement_digests.rs`, whose digests fold `proven` and
//! `nodes_expanded`.
//!
//! `obs::registry` is process-global: any other test running beside this
//! one in the same binary would leak its work into the counter deltas.
//! This file is therefore its own test binary and holds exactly one
//! `#[test]`; add instances to [`WORK`], never a second test.

use taskbench::bench::Config;
use taskbench::obs::{global, Metric::*};
use taskbench::prelude::*;
use taskbench::suites::rgnos::{self, RgnosParams};

/// Ceiling on DSC's `heap.*` operations per task (5.99 at v=5000).
const HEAP_OPS_MAX: f64 = 12.0;
/// Ceiling on MD/DCP `(engine.fwd_nodes + engine.bwd_nodes) / repairs`
/// (44 and 52 at v=2000; a full rescan touches 2v = 4000 per placement).
const CONE_NODES_MAX: f64 = 100.0;
/// Ceiling on BSA's `apn.msgs_committed / bsa.trials` (427 at v=500, CCR
/// 0.1; a full replay recommits up to e = 2632 messages per trial).
const MSGS_MAX: f64 = 1000.0;

/// One instance: RGNOS `(v, ccr, seed)` at parallelism 3 and the
/// committed digest of its schedule.
type WorkInstance = (usize, f64, u64, [u64; 2]);

/// The instances per algorithm; BSA runs on the quick APN topology (the
/// 8-processor hypercube). The digests were generated from the
/// pre-overhaul reference schedulers, which the live ones matched.
const WORK: &[(&str, &[WorkInstance])] = &[
    (
        "DSC",
        &[
            (500, 1.0, 42, [0xf9f93f868ddd6823, 0x145879764e97f098]),
            (1000, 1.0, 42, [0xa9a6103fbe9308bb, 0x68179e96194e6905]),
            (1000, 1.0, 43, [0x73521a470ed8f028, 0x00d8bc2a6434994b]),
            (2000, 1.0, 42, [0x0db71b2e4548b2f1, 0x35641c5bc935671b]),
            (5000, 1.0, 42, [0x54643699064d2fe2, 0x96e4761e2139925c]),
            (5000, 1.0, 43, [0x3249d43d77396e0f, 0xe4d457b5d644cc7c]),
        ],
    ),
    (
        "MD",
        &[
            (1000, 1.0, 42, [0x5172631ff470f4f6, 0xfe97717fe7d785b9]),
            (2000, 1.0, 42, [0x16bf209b976e59a6, 0x49b14af2f6e02c08]),
            (2000, 1.0, 43, [0x760e87047a8edb2f, 0x60d7f3285bd93c6f]),
        ],
    ),
    (
        "DCP",
        &[
            (1000, 1.0, 42, [0x9173b36fe1ce4402, 0xf4a78658206773b9]),
            (2000, 1.0, 42, [0xc7f2a0dd95cda5b4, 0x7817f42908189f3c]),
            (2000, 1.0, 43, [0x6840135b66ef625a, 0xc296061d6691dba4]),
        ],
    ),
    (
        "BSA",
        &[
            (500, 0.1, 42, [0xbbdea3c473d9fa56, 0x7fce281a4a0cfcf7]),
            (500, 1.0, 42, [0x58e3872c82edf92f, 0x3f7a316697c6f2bf]),
            (500, 10.0, 42, [0xd603be9b99c074ae, 0x30a7dc24dbae8407]),
        ],
    ),
];

#[test]
fn headline_instances_keep_their_placements_within_their_work_ceilings() {
    let reg = global();
    let apn = Env::apn(Config::quick(0x1998).apn_topology());
    let unc = Env::bnp(1); // UNC algorithms ignore the environment
    for &(name, instances) in WORK {
        let algo = registry::by_name(name).unwrap();
        let env = if name == "BSA" { &apn } else { &unc };
        for &(v, ccr, seed, digest) in instances {
            let tag = format!("{name} v={v} ccr={ccr} seed={seed}");
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let before = reg.snapshot();
            let out = algo.schedule(&g, env).expect("schedules");
            let d = reg.snapshot().since(&before);
            assert_eq!(out.digest(), digest, "{tag}: placement digest changed");
            let pops = d.get(HeapPops);
            let heap_ops = pops + d.get(HeapInserts) + d.get(HeapRekeys) + d.get(HeapRemoves);
            let repairs = d.get(EngineRepairs);
            let cone = d.get(EngineFwdNodes) + d.get(EngineBwdNodes);
            let (msgs, trials) = (d.get(ApnMsgsCommitted), d.get(BsaTrials));
            // Work per unit against its ceiling.
            let v64 = v as u64;
            let (key, num, den, max) = match name {
                "DSC" => ("heap_ops_per_task", heap_ops, v64, HEAP_OPS_MAX),
                "BSA" => ("msgs_per_trial", msgs, trials, MSGS_MAX),
                _ => ("cone_nodes_per_repair", cone, repairs, CONE_NODES_MAX),
            };
            let value = num as f64 / den.max(1) as f64;
            assert!(
                value <= max,
                "{tag}: {key} {value:.2} > ceiling {max}; counters {:?}",
                d.nonzero()
            );
            // Exactly one heap pop per DSC task, one repair per MD/DCP placement.
            match name {
                "DSC" => assert_eq!(pops, v64, "{tag}: heap.pops must equal v"),
                "MD" | "DCP" => assert_eq!(repairs, v64, "{tag}: engine.repairs must equal v"),
                _ => {}
            }
        }
    }
}
