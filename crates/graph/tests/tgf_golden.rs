//! The TGF language, pinned input by input: for each edge-case text the
//! exact outcome of [`io::from_tgf`] — the parsed graph's structure, name
//! and labels, or the exact [`dagsched_graph::GraphError`] it fails with.
//!
//! The table covers line endings (CRLF, a lone CR), Unicode whitespace
//! used as a separator (tab, U+00A0, U+2028, U+0085, vertical tab),
//! number syntax (`+`, leading zeros, overflow, ids past `u32::MAX`),
//! comments, directives, escapes and the model errors the builder raises.
//! A parser rewrite must reproduce every row.

use dagsched_graph::{io, TaskGraph};

/// FNV-1a over everything structural a graph exposes — weights, both CSR
/// directions and the cached topological order — so a row pins the
/// graph, not just its size.
fn structure_digest(g: &TaskGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.num_tasks() as u64);
    for n in g.tasks() {
        eat(g.weight(n));
        for &(t, c) in g.succs(n) {
            eat(u64::from(t.0));
            eat(c);
        }
        eat(u64::MAX);
        for &(t, c) in g.preds(n) {
            eat(u64::from(t.0));
            eat(c);
        }
        eat(u64::MAX);
    }
    for &t in g.topo_order() {
        eat(u64::from(t.0));
    }
    h
}

fn describe(text: &str) -> String {
    match io::from_tgf(text) {
        Ok(g) => {
            let labels: Vec<&str> = g.tasks().map(|n| g.label(n)).collect();
            format!(
                "ok v={} e={} h={:016x} name={:?} labels={labels:?}",
                g.num_tasks(),
                g.num_edges(),
                structure_digest(&g),
                g.name()
            )
        }
        Err(e) => format!("err {e:?}"),
    }
}

/// `(input, outcome)`, generated by running [`describe`] over every input
/// against the `str`-tokenizer parser `from_tgf` had before its
/// byte-level scanner. The rows after the last comment pin the cost
/// bound, which came later (a cyclic graph still reports its cycle).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("", "err Empty"),
    ("# only a comment\n\n", "err Empty"),
    ("task 0 5\n", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"\"]"),
    ("task 0 5", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"\"]"),
    ("task 0 5\r\ntask 1 6\r\nedge 0 1 3\r\n", "ok v=2 e=1 h=11628dd930b86d24 name=\"\" labels=[\"\", \"\"]"),
    ("task 0 5\rtask 1 6\n", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"task 1 6\"]"),
    ("task 0 5\r", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"\"]"),
    ("task 0 5\ntask 1 6\r\redge 0 1 3\n", "ok v=2 e=0 h=38c324b30631b545 name=\"\" labels=[\"\", \"edge 0 1 3\"]"),
    ("task\t0\t5\tlab\tel\n", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"lab\\tel\"]"),
    ("\ttask 0 5\t\n\tedge\t0 0 1\n", "err Parse { line: 2, reason: \"self loop on task 0\" }"),
    ("task\u{a0}0\u{a0}5\n", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"\"]"),
    ("task 0 1\ntask 1 1\nedge\u{2028}0\u{2028}1\u{2028}2\n", "ok v=2 e=1 h=3fdcd3e9cc491c07 name=\"\" labels=[\"\", \"\"]"),
    ("task 0 1\u{2028}task 1 1\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"task 1 1\"]"),
    ("task 0 1\u{85}x\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"x\"]"),
    ("task\u{b}0\u{c}7\u{3000}\n", "ok v=1 e=0 h=3a009be7caeaaf13 name=\"\" labels=[\"\"]"),
    ("task 0 1 a\u{a0}b\u{a0}\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"a\\u{a0}b\"]"),
    ("task +0 +5\n", "ok v=1 e=0 h=17cbde30fbe78011 name=\"\" labels=[\"\"]"),
    ("task 0 5\ntask 1 5\nedge +0 +1 +7\n", "ok v=2 e=1 h=087dd847ea6b9d87 name=\"\" labels=[\"\", \"\"]"),
    ("task 00 0005\ntask 01 000000000000000000000000001\n", "ok v=2 e=0 h=e83d682447e54a62 name=\"\" labels=[\"\", \"\"]"),
    ("task 0 -5\n", "err Parse { line: 1, reason: \"invalid task weight: `-5`\" }"),
    ("task 0 -0\n", "err Parse { line: 1, reason: \"invalid task weight: `-0`\" }"),
    ("task 0 +\n", "err Parse { line: 1, reason: \"invalid task weight: `+`\" }"),
    ("task 0 ++5\n", "err Parse { line: 1, reason: \"invalid task weight: `++5`\" }"),
    ("task 0 5x\n", "err Parse { line: 1, reason: \"invalid task weight: `5x`\" }"),
    ("task 0 ５\n", "err Parse { line: 1, reason: \"invalid task weight: `５`\" }"),
    // Parsed at the parent too; since graph formation bounds the cost
    // total by 2^62 it is refused there instead (was `ok ... h=eca049013d9b950c`).
    ("task 0 18446744073709551615\n", "err CostOverflow"),
    ("task 0 18446744073709551616\n", "err Parse { line: 1, reason: \"invalid task weight: `18446744073709551616`\" }"),
    ("task 0 99999999999999999999999\n", "err Parse { line: 1, reason: \"invalid task weight: `99999999999999999999999`\" }"),
    ("task 4294967295 1\n", "err Parse { line: 1, reason: \"task ids must be dense and ascending: expected 0, got 4294967295\" }"),
    ("task 4294967296 1\n", "err Parse { line: 1, reason: \"invalid task id: `4294967296`\" }"),
    ("task 0 1\ntask 1 1\nedge 4294967296 1 1\n", "err Parse { line: 3, reason: \"invalid edge src: `4294967296`\" }"),
    ("task 0 1\ntask 1 1\nedge 0 1 18446744073709551616\n", "err Parse { line: 3, reason: \"invalid edge cost: `18446744073709551616`\" }"),
    ("task 0 1\ntask 1 1\nedge 0 1 2 3\n", "err Parse { line: 3, reason: \"trailing tokens after edge cost\" }"),
    ("task 0 1\ntask 1 1\nedge 0 1\n", "err Parse { line: 3, reason: \"missing edge cost\" }"),
    ("task 0 1\ntask 1 1\nedge 0\n", "err Parse { line: 3, reason: \"missing edge dst\" }"),
    ("task 0 1\ntask 1 1\nedge\n", "err Parse { line: 3, reason: \"missing edge src\" }"),
    ("task\n", "err Parse { line: 1, reason: \"missing task id\" }"),
    ("task 0\n", "err Parse { line: 1, reason: \"missing task weight\" }"),
    ("task 0\u{a0}\n", "err Parse { line: 1, reason: \"missing task weight\" }"),
    ("   # indented comment\n\t# tab comment\ntask 0 1\n#\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"\"]"),
    ("task 0 1 # not a comment\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"# not a comment\"]"),
    ("graph one\ngraph two\ntask 0 1\n", "err Parse { line: 2, reason: \"duplicate `graph` directive\" }"),
    ("graph\ntask 0 1\n", "err Parse { line: 1, reason: \"`graph` needs a name\" }"),
    ("graph   spaced   name  \ntask 0 1\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"spaced   name\" labels=[\"\"]"),
    ("task 0 1\ngraph late\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"late\" labels=[\"\"]"),
    ("graph \\_edge\\_\ntask 0 1\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\" edge \" labels=[\"\"]"),
    ("graph\u{a0}nbsp name\ntask 0 1\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"nbsp name\" labels=[\"\"]"),
    ("graphx foo\ntask 0 1\n", "err Parse { line: 1, reason: \"unknown directive `graphx`\" }"),
    ("Task 0 1\n", "err Parse { line: 1, reason: \"unknown directive `Task`\" }"),
    ("task0 1\n", "err Parse { line: 1, reason: \"unknown directive `task0`\" }"),
    ("task 0 1 \\_a\\tb\\n\\\\\\_\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\" a\\tb\\n\\\\ \"]"),
    ("task 0 1 x\\u{a0}y\\u{2028}\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"x\\u{a0}y\\u{2028}\"]"),
    ("task 0 1 \\u{20}\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\" \"]"),
    ("task 0 1 lab   \n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"lab\"]"),
    ("task 0 1 bad\\q\n", "err Parse { line: 1, reason: \"unknown escape `\\\\q`\" }"),
    ("task 0 1 dangling\\\n", "err Parse { line: 1, reason: \"dangling backslash\" }"),
    ("task 0 1 \\u{zz}\n", "err Parse { line: 1, reason: \"bad \\\\u escape: invalid hex `zz`\" }"),
    ("task 0 1 \\u{110000}\n", "err Parse { line: 1, reason: \"bad \\\\u escape: not a scalar value\" }"),
    ("task 0 1 é ü 中\n", "ok v=1 e=0 h=2d0c3f36b9bc3415 name=\"\" labels=[\"é ü 中\"]"),
    ("task 0 0\n", "err ZeroWeightTask { task: 0 }"),
    ("task 1 1\n", "err Parse { line: 1, reason: \"task ids must be dense and ascending: expected 0, got 1\" }"),
    ("\n\n task 1 1\n", "err Parse { line: 3, reason: \"task ids must be dense and ascending: expected 0, got 1\" }"),
    ("task 0 1\nedge 0 5 1\n", "err Parse { line: 2, reason: \"edge references unknown task 5\" }"),
    ("task 0 1\nedge 5 0 1\n", "err Parse { line: 2, reason: \"edge references unknown task 5\" }"),
    ("task 0 1\nedge 0 0 1\n", "err Parse { line: 2, reason: \"self loop on task 0\" }"),
    ("task 0 1\ntask 1 1\nedge 0 1 1\nedge 0 1 2\n", "err DuplicateEdge { src: 0, dst: 1 }"),
    ("task 0 1\ntask 1 1\nedge 1 0 1\nedge 0 1 2\n", "err Cycle { task: 0 }"),
    ("task 0 1\ntask 1 1\ntask 2 1\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1\n", "err Cycle { task: 0 }"),
    ("task 0 2\ntask 1 3\ntask 2 4\ntask 3 5\nedge 2 3 9\nedge 0 3 1\nedge 0 2 8\nedge 1 3 7\nedge 0 1 6\n", "ok v=4 e=5 h=a0902b2e21514ea2 name=\"\" labels=[\"\", \"\", \"\", \"\"]"),
    ("task 0 2\ntask 1 3\ntask 2 4\ntask 3 5\nedge 0 1 6\nedge 0 2 8\nedge 0 3 1\nedge 1 3 7\nedge 2 3 9\n", "ok v=4 e=5 h=a0902b2e21514ea2 name=\"\" labels=[\"\", \"\", \"\", \"\"]"),
    ("task 0 1\ntask 1 1\ntask 2 1\nedge 2 1 1\nedge 1 0 1\n", "ok v=3 e=2 h=ae2e01db422a7236 name=\"\" labels=[\"\", \"\", \"\"]"),
    ("task 0 1\ntask 1 1\ntask 2 1\ntask 3 1\nedge 0 2 1\nedge 1 2 1\nedge 0 3 1\nedge 0 2 5\n", "err DuplicateEdge { src: 0, dst: 2 }"),
    ("task 0 5\ntask 1 6\nedge 0 1 3\r\nedge 0 1 3 \n", "err DuplicateEdge { src: 0, dst: 1 }"),
    ("task 0 5\t\r\n\r\ntask 1 6 \u{a0}\nedge\u{a0}0\t1 3\u{2028}\n", "ok v=2 e=1 h=11628dd930b86d24 name=\"\" labels=[\"\", \"\"]"),
    ("node 0 5\n", "err Parse { line: 1, reason: \"unknown directive `node`\" }"),
    ("task 0 1\ntask 1 1\ntask 2 1\ntask 3 1\nedge 1 2 1\nedge 1 2 1\nedge 0 3 1\nedge 0 2 1\nedge 0 3 2\nedge 0 2 2\n", "err DuplicateEdge { src: 0, dst: 2 }"),
    ("task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\nedge 1 0 1\n", "err DuplicateEdge { src: 1, dst: 0 }"),
    ("task 0 1\ntask 1 0\nedge 0 1 1\nedge 0 1 1\n", "err ZeroWeightTask { task: 1 }"),
    ("task 0 3\ntask 1 2\ntask 2 1\ntask 3 4\nedge 0 1 1\nedge 2 3 1\nedge 0 3 1\nedge 1 2 1\nedge 1 3 1\n", "ok v=4 e=5 h=6151e9f037774e27 name=\"\" labels=[\"\", \"\", \"\", \"\"]"),
    ("task 0 1\ntask 1 1\ntask 2 1\ntask 3 1\ntask 4 1\nedge 4 0 1\nedge 3 1 1\nedge 2 0 1\n", "ok v=5 e=3 h=1aa679f74d429191 name=\"\" labels=[\"\", \"\", \"\", \"\", \"\"]"),
    // The cost bound: a total of exactly 2^62 is accepted, one more is not.
    ("task 0 4611686018427387904\n", "ok v=1 e=0 h=6456ab440640a8d4 name=\"\" labels=[\"\"]"),
    ("task 0 4611686018427387905\n", "err CostOverflow"),
    ("task 0 1\ntask 1 4611686018427387902\nedge 0 1 1\n", "ok v=2 e=1 h=a340f73b2bcf7f3f name=\"\" labels=[\"\", \"\"]"),
    ("task 0 1\ntask 1 4611686018427387902\nedge 0 1 2\n", "err CostOverflow"),
    ("task 0 1\ntask 1 1\nedge 0 1 18446744073709551615\nedge 1 0 1\n", "err Cycle { task: 0 }"),
];

#[test]
fn tgf_language_matches_the_golden_table() {
    let mut wrong = Vec::new();
    for &(input, want) in GOLDEN {
        let got = describe(input);
        if got != want {
            wrong.push(format!("{input:?}\n  want {want}\n  got  {got}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} rows differ:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
