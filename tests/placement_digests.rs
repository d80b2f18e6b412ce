//! Placement-digest regression suite: every placement (and, for BSA,
//! every committed message) the schedulers make on the RGNOS sweeps that
//! validated each hot-path overhaul, pinned as one [`Outcome::digest`]
//! fold per (algorithm, size) cell.
//!
//! The DSC, MD, DCP, BSA and BNP tables were generated from the
//! pre-overhaul reference implementations (the scan-selection and
//! clone-per-step DSC, the full-rescan MD/DCP, the replay-per-trial BSA
//! and the six monolithic BNP list schedulers) and checked equal to the
//! live schedulers' digests before those implementations were retired.
//! The EZ, LC, MH, DLS-APN and BU tables were generated from the live
//! schedulers before any engine work on them, so that work starts pinned.
//! The branch-and-bound table pins the serial search's length, proof,
//! node and prune counters and placements; it was generated while a
//! parallel search still existed beside it, and held unchanged through
//! that search's removal.
//! Any intentional algorithm change must update its table *and* say why
//! in the commit; a failing cell prints the recomputed table for its
//! family.

use taskbench::core::{bnp, digest_words};
use taskbench::obs::{ArgVal, Event, MemSink};
use taskbench::prelude::*;
use taskbench::suites::rgnos::{self, RgnosParams};

// One table per family: a `(cell label, digest)` row per cell, in the
// order the `*_cells` builders below produce them.

const DSC: &[(&str, [u64; 2])] = &[
    ("v=12", [0xee4a0ca0662fda18, 0x82fc9d3fbf8d7297]),
    ("v=25", [0x65d43b058d3fef5c, 0x948defeb82f2aef1]),
    ("v=40", [0x04c85d1202b51be5, 0x919e91002cf2a934]),
    ("v=60", [0xd4a6885ac58b44c2, 0x71213746b98f94d3]),
    ("v=90", [0x9afb2f0dff1c8932, 0xbe02829203b849af]),
    ("v=400", [0x8bdf13da8ee83db4, 0x714ef1a424debd2b]),
];

const DSC_SPOT: &[(&str, [u64; 2])] = &[
    ("spot v=60", [0xb11f05003efdd65f, 0x8b2375b63eede85c]),
    ("spot v=120", [0x837e463cbee3503f, 0xfa6ad0bce9a9c6db]),
];

const MD: &[(&str, [u64; 2])] = &[
    ("v=12", [0x9e9516e992885e60, 0x3c1a0b1d5457d09e]),
    ("v=25", [0x9fbc4528421f36fe, 0xadfd71c3d50daac3]),
    ("v=40", [0x8f222bb27c84bd1e, 0xf458fbbbbc7dda25]),
    ("v=60", [0xeb6ff8341e22db66, 0xda90d27c332ac064]),
    ("v=90", [0xaaa7c86b80568d27, 0x44ae2784ef639693]),
    ("v=300", [0x5ec7906d3fd08d86, 0x205ed005aa42c238]),
];

const DCP: &[(&str, [u64; 2])] = &[
    ("v=12", [0x3592f3d279955a51, 0xd07d982f186fe9ea]),
    ("v=25", [0x99253693d6037f0b, 0x10413d3865c32d7d]),
    ("v=40", [0x8315cd8707f0c66f, 0x0793ad1eb809f02d]),
    ("v=60", [0xf000b7def58c5a9f, 0x48879c621cb07c99]),
    ("v=90", [0x24a4dcc8803e4675, 0xc7036d6f733ef445]),
    ("v=300", [0xb1aa4197a74ff23a, 0x7e4bbcd4eafd91d7]),
];

const HLFET: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0x44361eef27a89bb9, 0xcdb1e53c22b13ada]),
    ("p=4 v=18", [0xc153d523e15b1d46, 0xffac0dfb1b982a49]),
    ("p=4 v=30", [0xc1dfed04f73a2170, 0xd7aaba0c2cc4c3ff]),
    ("p=4 v=45", [0xa451c6712862096a, 0x7d4367efba18b34a]),
    ("p=4 v=60", [0x692ff7334765bfdb, 0x5edf22f20c78de38]),
    ("p=4 v=150", [0x72c7a1428fa426f3, 0x807dac82fdbb8b13]),
    ("p=8 v=100", [0x8abca3e60b2c3b3c, 0x561246fa928e96c3]),
    ("p=8 v=300", [0x7299cbcde354fd86, 0xae5a2cc5620e3c35]),
    ("p=1 v=35", [0x1e89720f4875b05e, 0x3f2c014a56991e4e]),
    ("p=2 v=35", [0x9097ce58534add27, 0x5ba27cd666de444f]),
    ("p=3 v=35", [0x6236829bb4633377, 0x082f0d8dc9d508f5]),
    ("p=8 v=35", [0x50b146aea9ff6e5c, 0xf5e5741e1bdd9deb]),
    ("p=16 v=35", [0x024538bb3650d0a9, 0xde10d68fe10df5de]),
];

const ISH: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0xcbf53f109931e891, 0xc25fa88c51f22cb2]),
    ("p=4 v=18", [0x81ec4288c0cba867, 0x707879c91968c325]),
    ("p=4 v=30", [0x379be3d211cf93b3, 0x1c7d731ac46821e3]),
    ("p=4 v=45", [0x46033fa20c05e622, 0xbea9d23e68187f7f]),
    ("p=4 v=60", [0x6179ddda0ec372f8, 0xa34014b175cb9fca]),
    ("p=4 v=150", [0x031c10ea2a9db423, 0x5664314b8f190311]),
    ("p=8 v=100", [0x6401025bba394427, 0xe0d55ca29c4fa3dd]),
    ("p=8 v=300", [0xb280fd410a701b70, 0x2b0597fa039c935a]),
    ("p=1 v=35", [0x1e89720f4875b05e, 0x3f2c014a56991e4e]),
    ("p=2 v=35", [0x3d145615aff96ae5, 0x3198a391e1b7d4ab]),
    ("p=3 v=35", [0x2ea848e0add77dfa, 0x3ea8efc91f2895bf]),
    ("p=8 v=35", [0x896bdf05b42a61d6, 0x278bfbff9b86962d]),
    ("p=16 v=35", [0x10c6bb77589930bf, 0xf75de38ece6bb047]),
];

const MCP: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0x34d2d7a4d9c60dcc, 0x61a6f60913d26081]),
    ("p=4 v=18", [0x620cd09e488e7801, 0x5ca7540042b85d3b]),
    ("p=4 v=30", [0x34b454f5a8b635a3, 0x71160a1e1b0aa7f9]),
    ("p=4 v=45", [0xbc38aa19b4693332, 0x4f164cc132951798]),
    ("p=4 v=60", [0xefa153d40a175691, 0xfa481aa518edc7f5]),
    ("p=4 v=150", [0x991cb8b2a91b7a81, 0xffa70176343ed74b]),
    ("p=8 v=100", [0x0eefceae6a52dbe4, 0x505e4705243a47b1]),
    ("p=8 v=300", [0x7010943f94b044a4, 0x04d672f5afc285af]),
    ("p=1 v=35", [0x06baa9f3ec973ec3, 0xb86ce58d800c142a]),
    ("p=2 v=35", [0xfaf7351d72a17396, 0xe89e99052fdec54b]),
    ("p=3 v=35", [0xc0fdd2860b281d8a, 0xfe2b1631a476affe]),
    ("p=8 v=35", [0x43888f8b48314db1, 0x08e5546b1ae58c28]),
    ("p=16 v=35", [0xa3a0c2494bf6ebbc, 0x5edcbec4b5a94aa3]),
];

const ETF: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0x00a31fb984a6f89e, 0x62b47e816dffd392]),
    ("p=4 v=18", [0xface32d7bc1c1cde, 0x8a2a2f377fe66e17]),
    ("p=4 v=30", [0x43962503f7889cae, 0xd705e136fcdf542b]),
    ("p=4 v=45", [0x0b635f21b08b4968, 0x4ad771c16edc5c43]),
    ("p=4 v=60", [0xe39a158638b2acea, 0x7b8c97925082cd84]),
    ("p=4 v=150", [0x09727268a5d0adda, 0xc6ad008120a8de37]),
    ("p=8 v=100", [0x04a5a6f72a65cbdf, 0xa2fe83fbd3f03865]),
    ("p=8 v=300", [0x864cc270793885d5, 0x3fa9b35c058b34c1]),
    ("p=1 v=35", [0x1e89720f4875b05e, 0x3f2c014a56991e4e]),
    ("p=2 v=35", [0x8979da5c0b4a34ca, 0x503d4ac31f1fc5b5]),
    ("p=3 v=35", [0x0d920538809fc422, 0xa4eee036e3667615]),
    ("p=8 v=35", [0x752e1ed51e056d84, 0x190b788dc19c5d35]),
    ("p=16 v=35", [0xed0a91581fe0f091, 0xa9bca0bf6db56376]),
];

const DLS: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0x68f0c493aae645d4, 0x8186c0e521ffd894]),
    ("p=4 v=18", [0xf8fa527682c7eab6, 0x9acbe0b1fc5e73da]),
    ("p=4 v=30", [0x7f24210bafa21436, 0xff5c70eb0e76765f]),
    ("p=4 v=45", [0x78fa196809108353, 0xc91187b20dce8bf4]),
    ("p=4 v=60", [0xd48e8e6edec3dd20, 0xfa87b59e45f7d73d]),
    ("p=4 v=150", [0x86ccfdf85a9e40dd, 0xaa3884d7fb871828]),
    ("p=8 v=100", [0x23c8411c305e2df0, 0x25f920a97862d6e1]),
    ("p=8 v=300", [0xa87d967128afd883, 0x8f5defd41320970d]),
    ("p=1 v=35", [0x1e89720f4875b05e, 0x3f2c014a56991e4e]),
    ("p=2 v=35", [0x7d259bc77c9326a5, 0x5a348e24c4130cb2]),
    ("p=3 v=35", [0x0b0876164554a6c7, 0xf30b3924fdbc926c]),
    ("p=8 v=35", [0xd865d18d423859ba, 0xdaea6860c92d58fa]),
    ("p=16 v=35", [0x58895f33c1004761, 0x51600fba9501a84f]),
];

const LAST: &[(&str, [u64; 2])] = &[
    ("p=4 v=10", [0xa6fe51aca70de83c, 0x7c14536da4e8c252]),
    ("p=4 v=18", [0x718eb2d240527fd2, 0xe5a7b763ff3674db]),
    ("p=4 v=30", [0x2024794bf18b9797, 0xddccf5c7aa065109]),
    ("p=4 v=45", [0x77acb13b0b23312b, 0x87b1b7a846e2a8f2]),
    ("p=4 v=60", [0x83242eb1b759f359, 0xdd5f326aa8fccf6c]),
    ("p=4 v=150", [0xb0bf75b91d03d3c1, 0x62dfdc50baa9546e]),
    ("p=8 v=100", [0x34312e280be38a2a, 0x2023252853035ac4]),
    ("p=8 v=300", [0x0d9e4f72e81eac0f, 0x6e96bb539a45c6d7]),
    ("p=1 v=35", [0xbb91c33024080817, 0x0d11e53e189c49b3]),
    ("p=2 v=35", [0x5409497ed0314477, 0x20de26667c313453]),
    ("p=3 v=35", [0x617850c40f715b9f, 0xb9a3482620687d68]),
    ("p=8 v=35", [0xadad3c722852112f, 0x6b9d237f0733cd88]),
    ("p=16 v=35", [0x5143735b11844f71, 0x86d87c95ec5b1e80]),
];

const MCP_APPEND: &[(&str, [u64; 2])] = &[
    ("p=4 v=20", [0xc25cbf88dbedd5e5, 0x4cab0441491b0971]),
    ("p=4 v=40", [0x92e36452c800c6af, 0x8c3bcd7b1c20fd95]),
    ("p=4 v=60", [0x49f4de2e9a2a7db8, 0xc49c459e699ce452]),
];

const BSA: &[(&str, [u64; 2])] = &[
    ("v=30 chain:4", [0x4091fd2ac380839a, 0xeb1e79bed85f50a2]),
    ("v=30 hypercube:3", [0xd5598f7a3e17dd45, 0xfd4d37293a94ed07]),
    ("v=30 mesh:2x3", [0xab05da095747bd14, 0xa6834567e0c4c428]),
    ("v=50 chain:4", [0xe3db847887cd0223, 0xb45e532ddf29fc85]),
    ("v=50 hypercube:3", [0x35c2640cb30b774a, 0x002ebc513d75301b]),
    ("v=50 mesh:2x3", [0xce82365f45f8610b, 0xd6f148cbefd1036c]),
    ("v=80 chain:4", [0x92deaddceed88f02, 0x7350a42d10bfed47]),
    ("v=80 hypercube:3", [0xd03e8176abb9946a, 0x38e9db45a9ea9c33]),
    ("v=80 mesh:2x3", [0xb0521ef6e1aa3025, 0x827cd9fa29aca2bf]),
];

const EZ: &[(&str, [u64; 2])] = &[
    ("v=12", [0xf4af859c54d0360a, 0x540d2d95e72c2b56]),
    ("v=25", [0xad6bf70bb11162b7, 0xca01e237b321ec5c]),
    ("v=40", [0x6691de7d729be919, 0xa122b0cd47df0296]),
    ("v=60", [0xc47e85ebf331bd56, 0xf87d589a25d0ceb1]),
    ("v=90", [0x1c77889cde8978b2, 0xa0eb970a77727b2d]),
];

const LC: &[(&str, [u64; 2])] = &[
    ("v=12", [0xbfead65e258af777, 0xa0be2a44ebece445]),
    ("v=25", [0x55debe370ca70304, 0xb277331863520391]),
    ("v=40", [0xc57fc37ca2e0d8e1, 0x2669557a4e237ead]),
    ("v=60", [0xa100430b4a3bfad6, 0xa96c05ac665ba644]),
    ("v=90", [0x70960e49d5efe17e, 0x5864da42e859a895]),
];

const MH: &[(&str, [u64; 2])] = &[
    ("hypercube:3 v=12", [0x3824036d368c3538, 0xc972d1bf20a19401]),
    ("hypercube:3 v=25", [0x338202051fc88085, 0x09ae579e0e97b1cf]),
    ("hypercube:3 v=40", [0xf7a43f6dcb6d086c, 0x39d858fc008ee9f2]),
    ("hypercube:3 v=60", [0x3324d99047cf7f2d, 0xd439377d38a0ca76]),
    ("hypercube:3 v=90", [0x8055abfefb9be4c0, 0x47165029b12ab897]),
    ("chain:4 v=50", [0x500c5612968e08e4, 0xff4409592fd4f718]),
    ("mesh:2x3 v=50", [0xcd621aad3629766e, 0xd71f062554290e3f]),
];

const DLS_APN: &[(&str, [u64; 2])] = &[
    ("hypercube:3 v=12", [0xb610ee869dd098f8, 0x9bc60fd789cae640]),
    ("hypercube:3 v=25", [0xe2c6b1ffe6b8b384, 0x5c939bd6cb5602a9]),
    ("hypercube:3 v=40", [0xb1f21149629ed59a, 0x3094ab8bd3c75763]),
    ("hypercube:3 v=60", [0x21968679f1213b45, 0x4342ef9eba956658]),
    ("hypercube:3 v=90", [0xb792b62643397023, 0x7c3bd24371f5a3da]),
    ("chain:4 v=50", [0x7bf5218dc278414f, 0x1602173b87b3f1d9]),
    ("mesh:2x3 v=50", [0x72ac354bb59fe54f, 0x4ef0d92b2b8e55b9]),
];

const BU: &[(&str, [u64; 2])] = &[
    ("hypercube:3 v=12", [0xefa916491b3960ac, 0x89a368c059d731ff]),
    ("hypercube:3 v=25", [0x1aa5e0ab68f88236, 0x5c4aecccda6aa2f6]),
    ("hypercube:3 v=40", [0x6afe6ef82d82a50b, 0xdec22849e5fc93c6]),
    ("hypercube:3 v=60", [0xeae87de00d5b0823, 0xab8096512bdfd161]),
    ("hypercube:3 v=90", [0x16c2965c96dec09c, 0x25bda13e570c5d5b]),
    ("chain:4 v=50", [0x2561181542a6526f, 0x77bb1321ff84298c]),
    ("mesh:2x3 v=50", [0x155c23a8a951bb3a, 0xab549da9eaaf0e59]),
];

/// One branch-and-bound instance, RGNOS `(v, ccr, parallelism, seed,
/// procs)`, and its digest.
type BnbRow = (usize, f64, u32, u64, usize, [u64; 2]);

/// Serial branch-and-bound on instances that all prove within a million
/// expanded nodes (from ~200 to ~165k each), across sizes 10–24, CCR
/// 0.1–10 and 2 or 4 processors. Each digest folds the length, proof
/// flag, `nodes_expanded`, `pruned_bound`, `pruned_duplicate` and every
/// task's `(proc, start)`, so the table is also the search's work gate:
/// (22, 0.1, 3, 7, 4), (24, 1, 3, 42, 4), (14, 1, 4, 7, 4) and
/// (16, 1, 2, 7, 2) expand 515,623 nodes between them, and each proves
/// well inside both this limit and the default 4M.
const BNB: &[BnbRow] = &[
    (10, 1.0, 3, 7, 4, [0xef470bd11a66e31d, 0x832664a4128d3746]),
    (10, 1.0, 3, 42, 2, [0xe30e074ed634a72a, 0xd008cf5f62eceed4]),
    (10, 1.0, 4, 7, 4, [0x812ffa501fa6834c, 0xfa02f26e5fddc3ce]),
    (12, 0.1, 3, 42, 2, [0x87017a84e7732a7c, 0x4c7fb40153b0fe1b]),
    (12, 1.0, 4, 7, 2, [0x43e36023924af70c, 0x6ee7b967a77b1a76]),
    (12, 10.0, 3, 7, 2, [0x43e36023924af70c, 0x6ee7b967a77b1a76]),
    (14, 0.1, 2, 42, 2, [0x2a4d09eac79fcf41, 0x04e837a14fe2a4c3]),
    (14, 1.0, 3, 42, 2, [0x76eee6490b2dd6cf, 0xa7e11c3a3a0da892]),
    (14, 0.1, 2, 7, 2, [0x20cc54e839f6ebf9, 0x1f637e041defd6ea]),
    (14, 1.0, 2, 7, 2, [0x159ab4b731399838, 0x09f33f343d2e3fdc]),
    (14, 1.0, 4, 7, 4, [0xa75a9382f0eb150f, 0xbc9da1f0dfa80df9]),
    (16, 0.1, 2, 7, 2, [0xe2b33ab15728257f, 0xb30aaf8d82cacfbd]),
    (16, 0.1, 3, 7, 2, [0x234db81e190ea815, 0xd15a67ab0f0d73b0]),
    (16, 1.0, 2, 7, 2, [0x91c3f90a010b6863, 0x5095801c61ec223f]),
    (16, 1.0, 4, 42, 2, [0x8e6fa24bc9691b20, 0xb91cbe72792eb4f3]),
    (18, 0.1, 4, 7, 2, [0x477654b5e141222c, 0x4e7dda6ac762995e]),
    (18, 1.0, 3, 7, 2, [0x9baddb38ccc8bf29, 0x81d3b9771706ba61]),
    (20, 1.0, 4, 42, 2, [0xe2f161e4208df4e9, 0xfa69d1477b4d5ea4]),
    (20, 0.1, 2, 7, 2, [0xe902987b5e4074e0, 0x02f3117c621db010]),
    (22, 0.1, 3, 7, 4, [0xd1348bac7e2249b8, 0xb18294191db9114a]),
    (22, 10.0, 4, 7, 4, [0xd1348bac7e2249b8, 0xb18294191db9114a]),
    (24, 0.1, 2, 42, 2, [0x0e12d39b8636c0c5, 0xaac7ec50ae690ec0]),
    (24, 1.0, 3, 7, 4, [0x35c350ca4486c7d1, 0x97284caff5639884]),
    (24, 1.0, 3, 42, 4, [0xb1bcaad5f09a54a5, 0x3db756027424a4a0]),
    (24, 10.0, 4, 42, 4, [0xb1bcaad5f09a54a5, 0x3db756027424a4a0]),
];

/// The hand-built DSC instance of `dsc_equal_start_tie_matches_table`.
const DSC_TIE: [u64; 2] = [0xf83f44fca6982d56, 0xff7c47d6a91e01e7];

/// A named set of instances whose digests fold into one table entry.
type Cell = (String, Vec<(RgnosParams, Env)>);

/// Sizes × CCR {0.1, 1, 10} × parallelism {1, 3, 5} × `seeds`, one cell
/// per size, on `env`.
fn sweep(sizes: &[usize], seeds: u64, env: &Env) -> Vec<Cell> {
    sizes
        .iter()
        .map(|&v| {
            let mut inst = Vec::new();
            for ccr in [0.1, 1.0, 10.0] {
                for par in [1, 3, 5] {
                    for seed in 0..seeds {
                        inst.push((RgnosParams::new(v, ccr, par, seed), env.clone()));
                    }
                }
            }
            (format!("v={v}"), inst)
        })
        .collect()
}

/// Parallelism-3 spot instances `(v, ccr, seed)` as one cell.
fn spot(label: &str, inst: &[(usize, f64, u64)], env: &Env) -> Cell {
    let inst = inst
        .iter()
        .map(|&(v, ccr, seed)| (RgnosParams::new(v, ccr, 3, seed), env.clone()))
        .collect();
    (label.to_string(), inst)
}

/// DSC: the 2,250-instance sweep plus two v=400 spots.
fn dsc_cells() -> Vec<Cell> {
    let env = Env::bnp(1); // UNC algorithms ignore the environment
    let mut cells = sweep(&[12, 25, 40, 60, 90], 50, &env);
    cells.push(spot("v=400", &[(400, 1.0, 7), (400, 0.1, 8)], &env));
    cells
}

/// DSC: four v=60/120 spots across the CCR range.
fn dsc_spot_cells() -> Vec<Cell> {
    let env = Env::bnp(1);
    vec![
        spot("spot v=60", &[(60, 0.1, 1), (60, 1.0, 2)], &env),
        spot("spot v=120", &[(120, 1.0, 3), (120, 10.0, 4)], &env),
    ]
}

/// MD and DCP: the 2,025-instance sweep plus two v=300 spots.
fn dyn_levels_cells() -> Vec<Cell> {
    let env = Env::bnp(1);
    let mut cells = sweep(&[12, 25, 40, 60, 90], 45, &env);
    cells.push(spot("v=300", &[(300, 1.0, 7), (300, 0.1, 8)], &env));
    cells
}

/// Each BNP preset: the 2,025-instance sweep on 4 processors, two v=150
/// spots, the v ∈ {100, 300} × CCR × seeds 0–2 paper grid on 8
/// processors, and 8 v=35 graphs on each of p ∈ {1, 2, 3, 8, 16}.
fn bnp_cells() -> Vec<Cell> {
    let p4 = Env::bnp(4);
    let mut cells: Vec<Cell> = sweep(&[10, 18, 30, 45, 60], 45, &p4)
        .into_iter()
        .map(|(label, inst)| (format!("p=4 {label}"), inst))
        .collect();
    cells.push(spot("p=4 v=150", &[(150, 1.0, 7), (150, 0.1, 8)], &p4));
    for v in [100, 300] {
        let grid: Vec<_> = [0.1, 1.0, 10.0]
            .into_iter()
            .flat_map(|ccr| (0..3).map(move |seed| (v, ccr, seed)))
            .collect();
        cells.push(spot(&format!("p=8 v={v}"), &grid, &Env::bnp(8)));
    }
    for p in [1, 2, 3, 8, 16] {
        let inst: Vec<_> = (0..8).map(|seed| (35, 1.0, seed)).collect();
        cells.push(spot(&format!("p={p} v=35"), &inst, &Env::bnp(p)));
    }
    cells
}

/// MCP with append-only slots: three instances on 4 processors.
fn mcp_append_cells() -> Vec<Cell> {
    let env = Env::bnp(4);
    [(20, 0.5, 1), (40, 2.0, 2), (60, 10.0, 3)]
        .into_iter()
        .map(|(v, ccr, seed)| spot(&format!("p=4 v={v}"), &[(v, ccr, seed)], &env))
        .collect()
}

/// BSA: three graphs × three topologies, placements and messages.
fn bsa_cells() -> Vec<Cell> {
    let topos = [
        ("chain:4", Topology::chain(4).unwrap()),
        ("hypercube:3", Topology::hypercube(3).unwrap()),
        ("mesh:2x3", Topology::mesh(2, 3).unwrap()),
    ];
    let mut cells = Vec::new();
    for (v, ccr, seed) in [(30, 0.5, 1), (50, 2.0, 2), (80, 10.0, 3)] {
        for (name, topo) in &topos {
            let env = Env::apn(topo.clone());
            cells.push(spot(&format!("v={v} {name}"), &[(v, ccr, seed)], &env));
        }
    }
    cells
}

/// EZ and LC: the sweep with `seeds` seeds per (size, CCR, parallelism).
fn unc_cells(seeds: u64) -> Vec<Cell> {
    sweep(&[12, 25, 40, 60, 90], seeds, &Env::bnp(1))
}

/// MH, DLS-APN and BU: the sweep on an 8-processor hypercube (the
/// platform serve_cold serves MH on), plus three v=50 instances on each
/// of a 4-processor chain and a 2x3 mesh.
fn apn_cells(seeds: u64) -> Vec<Cell> {
    let cube = Env::apn(Topology::hypercube(3).unwrap());
    let mut cells: Vec<Cell> = sweep(&[12, 25, 40, 60, 90], seeds, &cube)
        .into_iter()
        .map(|(label, inst)| (format!("hypercube:3 {label}"), inst))
        .collect();
    for (name, topo) in [
        ("chain:4", Topology::chain(4).unwrap()),
        ("mesh:2x3", Topology::mesh(2, 3).unwrap()),
    ] {
        let inst = [(50, 0.1, 1), (50, 1.0, 2), (50, 10.0, 3)];
        cells.push(spot(&format!("{name} v=50"), &inst, &Env::apn(topo)));
    }
    cells
}

/// The digest of one `BNB` row's solve.
fn bnb_digest(v: usize, ccr: f64, par: u32, seed: u64, procs: usize) -> [u64; 2] {
    let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
    let params = OptimalParams {
        procs: Some(procs),
        node_limit: 1_000_000,
        ..OptimalParams::default()
    };
    let r = solve(&g, &params);
    let mut words = vec![
        r.length,
        u64::from(r.proven),
        r.nodes_expanded,
        r.pruned_bound,
        r.pruned_duplicate,
    ];
    for n in g.tasks() {
        let pl = r.schedule.placement(n).expect("complete");
        words.extend([u64::from(pl.proc.0), pl.start]);
    }
    digest_words(words)
}

/// Each cell's label, folded digest and instance count under `algo`.
fn digests(algo: &dyn Scheduler, cells: &[Cell]) -> Vec<(String, [u64; 2], usize)> {
    cells
        .iter()
        .map(|(label, inst)| {
            let words = inst.iter().flat_map(|(p, env)| {
                let g = rgnos::generate(*p);
                algo.schedule(&g, env).expect("schedules").digest()
            });
            (label.clone(), digest_words(words), inst.len())
        })
        .collect()
}

fn hex([a, b]: &[u64; 2]) -> String {
    format!("[0x{a:016x}, 0x{b:016x}]")
}

/// The family's cells as a paste-ready table body.
fn render(got: &[(String, [u64; 2], usize)]) -> String {
    got.iter()
        .map(|(label, d, _)| format!("    ({label:?}, {}),\n", hex(d)))
        .collect()
}

/// Replay `cells` under the `family` scheduler (a registry name, or
/// `MCP-append`) and compare each against `table`, after checking the
/// family still covers `instances` instances.
fn check(family: &str, cells: Vec<Cell>, instances: usize, table: &[(&str, [u64; 2])]) {
    let algo: Box<dyn Scheduler> = match family {
        "MCP-append" => Box::new(bnp::mcp_append()),
        name => registry::by_name(name).unwrap(),
    };
    let got = digests(algo.as_ref(), &cells);
    let total: usize = got.iter().map(|c| c.2).sum();
    assert_eq!(total, instances, "{family}: instance count");
    let labels: Vec<&str> = got.iter().map(|c| c.0.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|c| c.0).collect();
    assert!(
        labels == expected,
        "{family}: cell labels {labels:?} != table {expected:?}; recomputed table:\n{}",
        render(&got)
    );
    for ((label, d, _), (_, want)) in got.iter().zip(table) {
        assert!(
            d == want,
            "{family} {label}: placement digest {} != table {}; recomputed table:\n{}",
            hex(d),
            hex(want),
            render(&got)
        );
    }
}

#[test]
fn dsc_placements_match_table() {
    check("DSC", dsc_cells(), 2252, DSC);
}

#[test]
fn dsc_spot_placements_match_table() {
    check("DSC", dsc_spot_cells(), 4, DSC_SPOT);
}

#[test]
fn md_placements_match_table() {
    check("MD", dyn_levels_cells(), 2027, MD);
}

#[test]
fn dcp_placements_match_table() {
    check("DCP", dyn_levels_cells(), 2027, DCP);
}

#[test]
fn hlfet_placements_match_table() {
    check("HLFET", bnp_cells(), 2085, HLFET);
}

#[test]
fn ish_placements_match_table() {
    check("ISH", bnp_cells(), 2085, ISH);
}

#[test]
fn mcp_placements_match_table() {
    check("MCP", bnp_cells(), 2085, MCP);
}

#[test]
fn etf_placements_match_table() {
    check("ETF", bnp_cells(), 2085, ETF);
}

#[test]
fn dls_placements_match_table() {
    check("DLS", bnp_cells(), 2085, DLS);
}

#[test]
fn last_placements_match_table() {
    check("LAST", bnp_cells(), 2085, LAST);
}

#[test]
fn mcp_append_placements_match_table() {
    check("MCP-append", mcp_append_cells(), 3, MCP_APPEND);
}

#[test]
fn bsa_placements_and_messages_match_table() {
    check("BSA", bsa_cells(), 9, BSA);
}

#[test]
fn ez_placements_match_table() {
    check("EZ", unc_cells(6), 270, EZ);
}

#[test]
fn lc_placements_match_table() {
    check("LC", unc_cells(45), 2025, LC);
}

#[test]
fn mh_placements_and_messages_match_table() {
    check("MH", apn_cells(20), 906, MH);
}

#[test]
fn dls_apn_placements_and_messages_match_table() {
    check("DLS-APN", apn_cells(8), 366, DLS_APN);
}

#[test]
fn bu_placements_and_messages_match_table() {
    check("BU", apn_cells(20), 906, BU);
}

#[test]
fn bnb_search_matches_table() {
    let (mut wrong, mut recomputed) = (Vec::new(), String::new());
    for &(v, ccr, par, seed, procs, want) in BNB {
        let d = bnb_digest(v, ccr, par, seed, procs);
        recomputed.push_str(&format!(
            "    ({v}, {ccr:?}, {par}, {seed}, {procs}, {}),\n",
            hex(&d)
        ));
        if d != want {
            wrong.push(format!("v={v} ccr={ccr} par={par} seed={seed} p={procs}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "B&B: search digest differs on {wrong:?}; recomputed table:\n{recomputed}"
    );
}

/// Every event's name and arguments as words, in emission order.
fn trace_words(events: &[Event]) -> Vec<u64> {
    let text = |s: &str| digest_words(s.bytes().map(u64::from))[0];
    let mut words = Vec::new();
    for e in events {
        words.push(text(e.name()));
        for (key, val) in e.args() {
            words.push(text(key));
            words.push(match val {
                ArgVal::U(x) => x,
                ArgVal::B(b) => u64::from(b),
                ArgVal::S(s) => text(s),
            });
        }
    }
    words
}

/// DSC on a join whose two parents sit on clusters that give the join
/// the same start: the equal-start tie between parent clusters picks the
/// lower cluster id. Such a tie can never move a placement: whichever
/// cluster is tried, the other parent's message still arrives no earlier
/// than the join's t-level, so the merge is refused either way. The tie
/// shows only in the cluster the `MergeRejected` event names, so this
/// digest folds the traced event stream in after the placements.
#[test]
fn dsc_equal_start_tie_matches_table() {
    let mut b = GraphBuilder::named("equal-start join");
    let (x, y, j) = (b.add_task(5), b.add_task(5), b.add_task(3));
    b.add_edge(x, j, 10).unwrap();
    b.add_edge(y, j, 10).unwrap();
    let g = b.build().unwrap();
    let mut sink = MemSink::new();
    let out = registry::by_name("DSC")
        .unwrap()
        .schedule_traced(&g, &Env::bnp(1), &mut sink)
        .expect("schedules");
    let got = digest_words(out.digest().into_iter().chain(trace_words(&sink.events)));
    assert!(
        got == DSC_TIE,
        "DSC equal-start tie: digest {} != table {}; events: {:?}",
        hex(&got),
        hex(&DSC_TIE),
        sink.events
    );
    let lower = Event::MergeRejected {
        task: j.0,
        cluster: 0,
        dsrw: false,
    };
    assert!(sink.events.contains(&lower), "the tie picks cluster 0");
}
