//! All-pairs adversarial search: the who-beats-whom dominance matrix.
//!
//! For every ordered pair `(target, baseline)` of schedulers in one class,
//! [`run_pair`] searches for an instance maximizing
//! `L_target / L_baseline`; [`dominance_table`] assembles the per-pair
//! maxima into a matrix rendered through [`dagsched_metrics::Table`]. Cell
//! `(row T, column B)` answers "how badly can `T` be made to lose to `B`?"—
//! large off-diagonal asymmetries localize which algorithmic choice is at
//! fault, in the spirit of the parameterized-comparison studies.
//!
//! Each cell derives its own RNG seed from the master seed and the pair's
//! *names* (not its index), so cells are independent of evaluation order and
//! can run in parallel (`dagsched-bench` fans them out with
//! `dagsched_ws::parallel_map`) while staying byte-deterministic.

use crate::search::{search, Budget, Reference, SearchResult};
use dagsched_core::{registry, AlgoClass, Env};
use dagsched_metrics::{table::f2, Table};
use dagsched_platform::Topology;

/// The machine each class is searched under: 8 fully connected processors
/// for BNP, ignored for UNC (unbounded clusters), an 8-processor hypercube
/// for APN — the environments of the paper's experiments.
pub fn env_for(class: AlgoClass) -> Env {
    match class {
        AlgoClass::Bnp => Env::bnp(8),
        AlgoClass::Unc => Env::bnp(1),
        AlgoClass::Apn => Env::apn(Topology::hypercube(3).expect("dim 3 is valid")),
    }
}

/// Every ordered pair of distinct scheduler names in `class`, in registry
/// order (`k·(k−1)` pairs).
pub fn ordered_pairs(class: AlgoClass) -> Vec<(String, String)> {
    let names: Vec<String> = registry::by_class(class)
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut pairs = Vec::with_capacity(names.len() * (names.len() - 1));
    for t in &names {
        for b in &names {
            if t != b {
                pairs.push((t.clone(), b.clone()));
            }
        }
    }
    pairs
}

/// Per-cell seed: FNV-1a over `"target→baseline"` mixed with the master
/// seed. Depends only on the names, never on cell order.
pub fn cell_seed(master: u64, target: &str, baseline: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in target.bytes().chain("→".bytes()).chain(baseline.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ master.rotate_left(17)
}

/// One completed cell of the dominance matrix.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    pub class: AlgoClass,
    pub target: String,
    pub baseline: String,
    /// The derived per-cell seed actually used.
    pub seed: u64,
    pub result: SearchResult,
}

/// Run the adversarial search for one ordered pair. `budget.seed` is the
/// *master* seed; the cell derives its own via [`cell_seed`].
pub fn run_pair(class: AlgoClass, target: &str, baseline: &str, budget: &Budget) -> PairOutcome {
    let t = registry::by_name(target).expect("target registered");
    let b = registry::by_name(baseline).expect("baseline registered");
    assert_eq!(t.class(), class, "target class mismatch");
    assert_eq!(b.class(), class, "baseline class mismatch");
    let seed = cell_seed(budget.seed, target, baseline);
    let cell_budget = Budget { seed, ..*budget };
    let env = env_for(class);
    let result = search(t.as_ref(), &Reference::Algo(b.as_ref()), &env, &cell_budget);
    PairOutcome {
        class,
        target: target.to_string(),
        baseline: baseline.to_string(),
        seed,
        result,
    }
}

/// Assemble pair outcomes into the dominance matrix: rows are targets,
/// columns baselines, each cell the maximum observed makespan ratio.
/// Diagonal cells print `-`; pairs missing from `outcomes` print `·`.
pub fn dominance_table(class: AlgoClass, outcomes: &[PairOutcome]) -> Table {
    let names: Vec<String> = registry::by_class(class)
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let mut header: Vec<&str> = vec!["target\\baseline"];
    for n in &names {
        header.push(n);
    }
    let mut table = Table::new(
        format!("{class} dominance matrix (max observed L_target / L_baseline)"),
        &header,
    );
    for t in &names {
        let mut row = vec![t.clone()];
        for b in &names {
            if t == b {
                row.push("-".to_string());
            } else {
                match outcomes.iter().find(|o| &o.target == t && &o.baseline == b) {
                    Some(o) => row.push(f2(o.result.ratio())),
                    None => row.push("·".to_string()),
                }
            }
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unc_has_twenty_ordered_pairs() {
        let pairs = ordered_pairs(AlgoClass::Unc);
        assert_eq!(pairs.len(), 20);
        assert!(pairs.iter().all(|(t, b)| t != b));
        assert!(pairs.contains(&("LC".to_string(), "DSC".to_string())));
        assert!(pairs.contains(&("DSC".to_string(), "LC".to_string())));
    }

    #[test]
    fn apn_has_twelve_ordered_pairs() {
        let pairs = ordered_pairs(AlgoClass::Apn);
        assert_eq!(pairs.len(), 12);
        assert!(pairs.contains(&("BSA".to_string(), "MH".to_string())));
        assert!(pairs.contains(&("MH".to_string(), "BSA".to_string())));
    }

    #[test]
    fn cell_seed_is_order_free_and_asymmetric() {
        let a = cell_seed(7, "LC", "DSC");
        assert_eq!(a, cell_seed(7, "LC", "DSC"));
        assert_ne!(a, cell_seed(7, "DSC", "LC"), "ordered pairs differ");
        assert_ne!(a, cell_seed(8, "LC", "DSC"), "master seed matters");
    }

    #[test]
    fn run_pair_and_table_round() {
        let budget = Budget {
            max_evals: 40,
            seed: 3,
            max_nodes: 20,
        };
        let o = run_pair(AlgoClass::Unc, "LC", "DSC", &budget);
        assert_eq!(o.target, "LC");
        assert!(o.result.ratio() > 0.0);
        let t = dominance_table(AlgoClass::Unc, std::slice::from_ref(&o));
        let ascii = t.ascii();
        assert!(ascii.contains("UNC dominance matrix"));
        assert!(ascii.contains(&f2(o.result.ratio())));
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn composed_variants_are_searchable_targets() {
        // The registry's `compose:` grammar opens the whole composed
        // design space to the dominance machinery: any variant can play
        // target or baseline like a roster algorithm.
        let budget = Budget {
            max_evals: 25,
            seed: 11,
            max_nodes: 20,
        };
        let variant = "compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready";
        let o = run_pair(AlgoClass::Bnp, variant, "MCP", &budget);
        assert_eq!(o.target, variant);
        assert!(o.result.ratio() > 0.0);
        // Cell seeds key on the full variant name, so distinct variants
        // explore independent instance streams.
        assert_ne!(
            cell_seed(11, variant, "MCP"),
            cell_seed(11, "compose:PRIO=bt", "MCP")
        );
    }

    #[test]
    fn env_for_classes() {
        assert_eq!(env_for(AlgoClass::Bnp).procs(), 8);
        assert_eq!(env_for(AlgoClass::Apn).procs(), 8);
        assert_eq!(env_for(AlgoClass::Unc).procs(), 1);
    }
}
