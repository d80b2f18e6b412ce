//! Traced graphs — task graphs of real numerical programs (§5.5).
//!
//! The paper's traced set is produced by a parallelizing compiler from
//! numerical programs and uses **Cholesky factorization**; the matrix
//! dimension `N` controls the graph size, `O(N²)` nodes. We generate the
//! same dependency structures analytically (see DESIGN.md, substitutions):
//!
//! * [`cholesky`] — column-oriented Cholesky: `cdiv(k)` scales column `k`
//!   after all its updates; `cmod(j, k)` applies column `k` to column `j`.
//! * [`gaussian_elimination`] — the classic kji-form GE lattice.
//! * [`fft`] — the `m`-stage butterfly of a `2^m`-point FFT.
//! * [`laplace`] — Jacobi sweeps of a 2-D Laplace stencil.
//!
//! Computation costs are proportional to flop counts; communication costs
//! are proportional to transferred words, then globally rescaled so the
//! graph's CCR matches the requested value (real traces fix the ratio;
//! rescaling lets the harness sweep CCR like the paper does).

use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};

/// Scale raw edge costs so the built graph's CCR ≈ `target_ccr`.
fn build_scaled(
    name: String,
    tasks: Vec<(u64, String)>,
    edges: Vec<(usize, usize, u64)>,
    target_ccr: f64,
) -> TaskGraph {
    let total_w: u64 = tasks.iter().map(|t| t.0).sum();
    let mean_w = total_w as f64 / tasks.len() as f64;
    let total_c_raw: u64 = edges.iter().map(|e| e.2).sum();
    let scale = if edges.is_empty() || total_c_raw == 0 {
        0.0
    } else {
        let mean_c_raw = total_c_raw as f64 / edges.len() as f64;
        target_ccr * mean_w / mean_c_raw
    };
    let mut b = GraphBuilder::named(name);
    let ids: Vec<TaskId> = tasks
        .into_iter()
        .map(|(w, label)| b.add_labeled_task(w, label))
        .collect();
    for (s, d, raw) in edges {
        let c = ((raw as f64 * scale).round() as u64).max(1);
        b.add_edge(ids[s], ids[d], c).unwrap();
    }
    b.build()
        .expect("traced structures are acyclic by construction")
}

/// Column-Cholesky factorization of an `n × n` matrix.
///
/// Tasks: `cdiv(k)` (cost ∝ column length `n−k`) and `cmod(j, k)` for
/// `k < j` (cost ∝ `n−j`). Dependencies: `cdiv(k) → cmod(j, k)` for every
/// `j > k`, and `cmod(j, k) → cdiv(j)` (all updates of column `j` complete
/// before its scaling). `v = n(n+1)/2` tasks.
#[allow(clippy::needless_range_loop)] // k indexes cdiv_id and the (j, k) map symmetrically
pub fn cholesky(n: usize, ccr: f64) -> TaskGraph {
    assert!(n >= 1);
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    // Index bookkeeping: cdiv(k) ids first per column sweep.
    let mut cdiv_id = vec![usize::MAX; n];
    let mut cmod_id = std::collections::HashMap::new();
    for k in 0..n {
        cdiv_id[k] = tasks.len();
        tasks.push((3 * (n - k) as u64 + 1, format!("cdiv({k})")));
        for j in k + 1..n {
            cmod_id.insert((j, k), tasks.len());
            tasks.push((6 * (n - j) as u64 + 2, format!("cmod({j},{k})")));
        }
    }
    for k in 0..n {
        for j in k + 1..n {
            // cdiv(k) produces column k, consumed by cmod(j,k): n−k words.
            edges.push((cdiv_id[k], cmod_id[&(j, k)], (n - k) as u64));
            // cmod(j,k) contributes to column j before cdiv(j): n−j words.
            edges.push((cmod_id[&(j, k)], cdiv_id[j], (n - j) as u64 + 1));
        }
    }
    build_scaled(format!("cholesky-n{n}-ccr{ccr}"), tasks, edges, ccr)
}

/// kji-form Gaussian elimination lattice of an `n × n` system.
///
/// Tasks: `piv(k)` normalizes row `k`; `upd(k, j)` eliminates row `j`
/// against row `k`. Dependencies: `piv(k) → upd(k, j)`,
/// `upd(k, k+1) → piv(k+1)` and `upd(k, j) → upd(k+1, j)`.
#[allow(clippy::needless_range_loop)] // k indexes piv and the (k, j) map symmetrically
pub fn gaussian_elimination(n: usize, ccr: f64) -> TaskGraph {
    assert!(n >= 1);
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    let mut piv = vec![usize::MAX; n];
    let mut upd = std::collections::HashMap::new();
    for k in 0..n {
        piv[k] = tasks.len();
        tasks.push(((n - k) as u64 + 1, format!("piv({k})")));
        for j in k + 1..n {
            upd.insert((k, j), tasks.len());
            tasks.push((2 * (n - k) as u64 + 1, format!("upd({k},{j})")));
        }
    }
    for k in 0..n {
        for j in k + 1..n {
            edges.push((piv[k], upd[&(k, j)], (n - k) as u64));
            if j == k + 1 {
                edges.push((upd[&(k, j)], piv[k + 1], (n - k) as u64));
            } else if k + 1 < n {
                edges.push((upd[&(k, j)], upd[&(k + 1, j)], (n - k) as u64));
            }
        }
    }
    build_scaled(format!("gauss-n{n}-ccr{ccr}"), tasks, edges, ccr)
}

/// Decimation-in-time FFT butterfly: `2^m` points, `m` stages,
/// `(m + 1) · 2^m` tasks.
pub fn fft(m: usize, ccr: f64) -> TaskGraph {
    assert!((1..=12).contains(&m));
    let points = 1usize << m;
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    // Stage 0: input tasks; stages 1..=m: butterfly tasks.
    for s in 0..=m {
        for i in 0..points {
            tasks.push((4, format!("fft(s{s},i{i})")));
            if s > 0 {
                let me = s * points + i;
                let below = (s - 1) * points + i;
                let partner = (s - 1) * points + (i ^ (1 << (s - 1)));
                edges.push((below, me, 2));
                edges.push((partner, me, 2));
            }
        }
    }
    build_scaled(format!("fft-m{m}-ccr{ccr}"), tasks, edges, ccr)
}

/// `iters` Jacobi sweeps of a `g × g` Laplace stencil:
/// node `(t, i, j)` reads its own and its 4-neighbour values from sweep
/// `t − 1`. `v = iters · g²` tasks.
pub fn laplace(g: usize, iters: usize, ccr: f64) -> TaskGraph {
    assert!(g >= 1 && iters >= 1);
    let id = |t: usize, i: usize, j: usize| t * g * g + i * g + j;
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    for t in 0..iters {
        for i in 0..g {
            for j in 0..g {
                tasks.push((5, format!("lap(t{t},{i},{j})")));
                if t > 0 {
                    edges.push((id(t - 1, i, j), id(t, i, j), 1));
                    if i > 0 {
                        edges.push((id(t - 1, i - 1, j), id(t, i, j), 1));
                    }
                    if i + 1 < g {
                        edges.push((id(t - 1, i + 1, j), id(t, i, j), 1));
                    }
                    if j > 0 {
                        edges.push((id(t - 1, i, j - 1), id(t, i, j), 1));
                    }
                    if j + 1 < g {
                        edges.push((id(t - 1, i, j + 1), id(t, i, j), 1));
                    }
                }
            }
        }
    }
    build_scaled(format!("laplace-g{g}-t{iters}-ccr{ccr}"), tasks, edges, ccr)
}

/// The matrix dimensions swept by the Figure-4 experiment. The paper's
/// x-axis runs over Cholesky matrix dimensions with `O(N²)`-node graphs;
/// these values give 36–1176-task graphs.
pub fn cholesky_dimensions() -> Vec<usize> {
    vec![8, 12, 16, 20, 24, 28, 32, 40, 48]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::levels;

    #[test]
    fn cholesky_task_count_is_triangular() {
        for n in [1usize, 4, 8, 13] {
            let g = cholesky(n, 1.0);
            assert_eq!(g.num_tasks(), n * (n + 1) / 2, "n={n}");
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn cholesky_first_cdiv_is_sole_entry() {
        let g = cholesky(6, 1.0);
        let entries: Vec<_> = g.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(g.label(entries[0]), "cdiv(0)");
        // Last cdiv is the sole exit.
        let exits: Vec<_> = g.exits().collect();
        assert_eq!(exits.len(), 1);
        assert_eq!(g.label(exits[0]), "cdiv(5)");
    }

    #[test]
    fn cholesky_ccr_scaling_works() {
        for &ccr in &[0.1, 1.0, 10.0] {
            let g = cholesky(12, ccr);
            let emp = g.ccr();
            assert!(emp > ccr * 0.5 && emp < ccr * 2.0, "target {ccr} got {emp}");
        }
    }

    #[test]
    fn gauss_structure() {
        let g = gaussian_elimination(5, 1.0);
        // v = n pivots + n(n-1)/2 updates = 5 + 10
        assert_eq!(g.num_tasks(), 15);
        assert!(g.validate().is_ok());
        assert_eq!(g.entries().count(), 1);
    }

    #[test]
    fn fft_counts() {
        let g = fft(3, 1.0);
        assert_eq!(g.num_tasks(), 4 * 8);
        // Each non-input node has exactly 2 parents.
        for n in g.tasks() {
            let ind = g.in_degree(n);
            assert!(ind == 0 || ind == 2);
        }
        // depth = m+1 levels
        let s = dagsched_graph::GraphStats::of(&g);
        assert_eq!(s.depth, 4);
        assert_eq!(s.level_width, 8);
    }

    #[test]
    fn laplace_counts() {
        let g = laplace(3, 2, 1.0);
        assert_eq!(g.num_tasks(), 18);
        // interior node of sweep 1 has 5 parents
        let centre = g.tasks().find(|&n| g.label(n) == "lap(t1,1,1)").unwrap();
        assert_eq!(g.in_degree(centre), 5);
    }

    #[test]
    fn traced_graphs_have_positive_cp() {
        for g in [
            cholesky(8, 1.0),
            gaussian_elimination(6, 1.0),
            fft(4, 1.0),
            laplace(4, 3, 1.0),
        ] {
            assert!(g.levels().cp_length() > 0);
            assert!(levels::cp_computation(&g) > 0);
        }
    }

    #[test]
    fn single_column_cholesky_is_one_task() {
        let g = cholesky(1, 1.0);
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
