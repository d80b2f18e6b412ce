// Examples and bench binaries own their stdout (terminal reports).
#![allow(clippy::print_stdout)]
//! Extending the framework: implement your own scheduling algorithm behind
//! the [`Scheduler`] trait and benchmark it against the paper's roster on
//! an RGNOS sample — the exact workflow the paper proposes its benchmarks
//! for ("good test cases for evaluating and comparing future algorithms",
//! §7).
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use taskbench::core::common::{best_proc, ReadySet, SlotPolicy};
use taskbench::prelude::*;
use taskbench::suites::rgnos::{self, RgnosParams};

/// A deliberately simple contender: list scheduling by *largest task
/// first* (no level information at all), min-EST processor, insertion
/// slots. How far does raw grain-size greed get you?
struct LargestTaskFirst;

impl Scheduler for LargestTaskFirst {
    fn name(&self) -> &'static str {
        "LTF"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Bnp
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        let mut s = Schedule::new(g.num_tasks(), env.procs());
        let mut ready = ReadySet::new(g);
        while !ready.is_empty() {
            let n = ready.argmax_by_key(|n| g.weight(n)).expect("non-empty");
            let (p, est) = best_proc(g, &s, n, SlotPolicy::Insertion);
            s.place(n, p, est, g.weight(n))
                .expect("insertion slot fits");
            ready.take(g, n);
        }
        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

fn main() {
    let graphs: Vec<TaskGraph> = (0..6)
        .map(|i| rgnos::generate(RgnosParams::new(100, 1.0, 3, 1000 + i)))
        .collect();

    let mut table = Table::new(
        "LTF vs the paper's BNP roster (avg over 6 RGNOS graphs, v=100, 16 procs)",
        &["algorithm", "avg NSL", "avg makespan"],
    );
    let contender = LargestTaskFirst;
    let roster: Vec<Box<dyn Scheduler>> = registry::bnp();
    let mut entries: Vec<(&str, &dyn Scheduler)> =
        roster.iter().map(|a| (a.name(), a.as_ref())).collect();
    entries.push(("LTF (custom)", &contender));

    for (label, algo) in entries {
        let (mut nsl_sum, mut mk_sum) = (0.0, 0.0);
        for g in &graphs {
            let out = algo.schedule(g, &Env::bnp(16)).unwrap();
            out.validate(g).unwrap();
            nsl_sum += nsl(g, &out.schedule);
            mk_sum += out.schedule.makespan() as f64;
        }
        table.row(vec![
            label.to_string(),
            format!("{:.3}", nsl_sum / graphs.len() as f64),
            format!("{:.0}", mk_sum / graphs.len() as f64),
        ]);
    }
    println!("{}", table.ascii());
    println!("Moral of §3: priorities that ignore the graph's levels leave speedup behind.");
}
