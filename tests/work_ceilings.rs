//! Logical-work ceilings on the headline instances of the DSC, MD, DCP,
//! BSA, MH, DLS-APN and MCP hot-path overhauls (paper-scale RGNOS,
//! parallelism 3), each run once on the test thread.
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
//!   recommits every cross-processor message);
//! * MH probes at most [`PROBE_SHARE_MAX`] of the `p·e` parent arrivals an
//!   exhaustive processor scan probes (`apn.probe_arrivals`), and visits at
//!   most [`LINK_SLOTS_MAX`] link slots and block summaries per probed
//!   arrival (`apn.link_slots_scanned`; a slot-by-slot scan gives 44–183);
//! * DLS-APN probes at most [`DLS_PROBE_PER_PE_MAX`] parent arrivals per
//!   `p·e` (an exhaustive (ready task × processor) scan re-probes every
//!   ready task on every step and gives 22–81);
//! * MCP pulls at most [`ALAP_ELEMS_MAX`] ALAP values per task to order
//!   tied-ALAP nodes (`mcp.alap_list_elems`; building each tied node's
//!   full list costs 23–280).
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
/// Ceiling on MH's `apn.probe_arrivals / (p·e)` (0.14 / 0.30 / 0.33 at
/// v=500, CCR 0.1/1/10, and 0.31 at v=1000 with best-first probing; 0.21 /
/// 0.50 / 0.54 and 0.52 when the lowest-bound processor was always probed
/// in full; probing every processor in full gives 1.0).
const PROBE_SHARE_MAX: f64 = 0.45;
/// Ceiling on DLS-APN's `apn.probe_arrivals / (p·e)` (0.25 / 4.97 / 4.02
/// at v=500, CCR 0.1/1/10, and 7.65 at v=1000 with best-first probing;
/// 0.43 / 7.06 / 5.79 and 10.55 for the bound-ordered capped scan; the
/// exhaustive scan gives 46.3 / 45.3 / 22.0 / 81.4).
const DLS_PROBE_PER_PE_MAX: f64 = 10.0;
/// Ceiling on MH's `apn.link_slots_scanned / apn.probe_arrivals` (9.78 /
/// 14.24 / 13.11 / 19.39 with block summaries and best-first probing,
/// which never probes a local parent; 44.38 / 87.67 / 83.60 / 183.40 when
/// every probe scanned slot by slot).
const LINK_SLOTS_MAX: f64 = 40.0;
/// Ceiling on MCP's `mcp.alap_list_elems / v` (0.60 / 1.08 / 1.40 with
/// lazy comparisons; 23–280 when every tied node's list is built in full).
const ALAP_ELEMS_MAX: f64 = 4.0;

/// One instance: RGNOS `(v, ccr, seed)` at parallelism 3 and the
/// committed digest of its schedule.
type WorkInstance = (usize, f64, u64, [u64; 2]);

/// The instances per algorithm; BSA, MH and DLS-APN run on the quick APN
/// topology (the 8-processor hypercube), MCP on 8 fully connected
/// processors. The digests were generated from the pre-overhaul reference
/// schedulers, which the live ones matched; MH's and DLS-APN's from their
/// exhaustive scans, MCP's from its full-lists sort.
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
    (
        "MH",
        &[
            (500, 0.1, 42, [0x6a24e100252a0fbb, 0x9ed9da58ea02013b]),
            (500, 1.0, 42, [0x5a6314542bd7a75e, 0x93dbe5d18cc1fb36]),
            (500, 10.0, 42, [0x086809fb793dce2c, 0x40362d1a1c91e9a4]),
            (1000, 1.0, 42, [0x65e1ef1e547860a0, 0xbe04104b2030e90a]),
        ],
    ),
    (
        "DLS-APN",
        &[
            (500, 0.1, 42, [0x77ed938eafecae4f, 0x2a7fd27ff8fb33c8]),
            (500, 1.0, 42, [0x592919596c9c3b07, 0x37f467fa4704aff9]),
            (500, 10.0, 42, [0xf010e80f88513107, 0x86eba48b2e419210]),
            (1000, 1.0, 42, [0xaf72f18ae759cbd3, 0x9ca5304a20fcf75e]),
        ],
    ),
    (
        "MCP",
        &[
            (500, 1.0, 42, [0x168e31ebc71f98cc, 0x59e2b0fd12d1eaa1]),
            (1000, 0.1, 42, [0x50f617855c585089, 0xe8c8966dc001b9a2]),
            (2000, 0.1, 42, [0x188c4e36b59ac481, 0x139b65385918c060]),
        ],
    ),
];

#[test]
fn headline_instances_keep_their_placements_within_their_work_ceilings() {
    let reg = global();
    let apn = Env::apn(Config::quick(0x1998).apn_topology());
    let bnp = Env::parse_spec("bnp:8").unwrap();
    let unc = Env::bnp(1); // UNC algorithms ignore the environment
    for &(name, instances) in WORK {
        let algo = registry::by_name(name).unwrap();
        let env = match name {
            "BSA" | "MH" | "DLS-APN" => &apn,
            "MCP" => &bnp,
            _ => &unc,
        };
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
            let exhaustive = (env.procs() * g.num_edges()) as u64;
            // Work per unit against its ceiling.
            let v64 = v as u64;
            let (key, num, den, max) = match name {
                "DSC" => ("heap_ops_per_task", heap_ops, v64, HEAP_OPS_MAX),
                "BSA" => ("msgs_per_trial", msgs, trials, MSGS_MAX),
                "MH" => (
                    "probe_arrivals_per_pe",
                    d.get(ApnProbeArrivals),
                    exhaustive,
                    PROBE_SHARE_MAX,
                ),
                "DLS-APN" => (
                    "probe_arrivals_per_pe",
                    d.get(ApnProbeArrivals),
                    exhaustive,
                    DLS_PROBE_PER_PE_MAX,
                ),
                "MCP" => (
                    "alap_list_elems_per_task",
                    d.get(McpAlapListElems),
                    v64,
                    ALAP_ELEMS_MAX,
                ),
                _ => ("cone_nodes_per_repair", cone, repairs, CONE_NODES_MAX),
            };
            let value = num as f64 / den.max(1) as f64;
            assert!(
                value <= max,
                "{tag}: {key} {value:.2} > ceiling {max}; counters {:?}",
                d.nonzero()
            );
            // Exactly one heap pop per DSC task, one repair per MD/DCP
            // placement; MH's link scans within their ceiling per arrival.
            match name {
                "DSC" => assert_eq!(pops, v64, "{tag}: heap.pops must equal v"),
                "MD" | "DCP" => assert_eq!(repairs, v64, "{tag}: engine.repairs must equal v"),
                "MH" => {
                    let arrivals = d.get(ApnProbeArrivals).max(1) as f64;
                    let slots = d.get(ApnLinkSlotsScanned) as f64 / arrivals;
                    assert!(
                        slots <= LINK_SLOTS_MAX,
                        "{tag}: link_slots_per_arrival {slots:.2} > ceiling {LINK_SLOTS_MAX}; \
                         counters {:?}",
                        d.nonzero()
                    );
                }
                _ => {}
            }
        }
    }
}
