//! Self-tests of the benchmark: the contract in `BENCHMARK.json`, tiny
//! runs of every workload, percentile sample counts, and determinism.

use dagsched_bench::report::Json;
use perfbench::{run, serve, stats, Opts, Report, Workload, END_TO_END, MIN_SAMPLES};

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(c: &Json, key: &str) -> Vec<String> {
    match c.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| match i.get("name") {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Opts {
        workload,
        seed,
        seconds: 0.5,
        trace,
        tiny: true,
    })
    .expect("the run completes")
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let c = contract();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&c, key));
    }
    for n in &all {
        assert!(
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)),
            "bad name `{n}`"
        );
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn contract_lists_every_workload_and_end_to_end_metric() {
    let c = contract();
    let workloads: Vec<String> = Workload::BENCHMARKED
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(names(&c, "workloads"), workloads);
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(names(&c, "end_to_end"), e2e);
}

#[test]
fn every_workload_reports_every_end_to_end_metric_with_enough_samples() {
    let e2e = names(&contract(), "end_to_end");
    for w in Workload::ALL {
        let r = tiny(w, 1, false);
        assert!(r.correct(), "{}: {:#?}", w.name(), r.lines);
        let got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, e2e, "{}", w.name());
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0: {:?}",
            w.name(),
            r.metrics
        );
        assert!(r.e2e.lat_ms.len() >= MIN_SAMPLES, "{}", w.name());
        assert!(
            stats::beyond(&r.e2e.lat_ms, 0.95) >= 10,
            "{}: fewer than ten samples beyond p95",
            w.name()
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let per_layer = names(&contract(), "per_layer");
    let r = tiny(Workload::ServeCold, 1, true);
    assert!(r.correct(), "{:#?}", r.lines);
    let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, per_layer);
    let traced = r.traced.as_ref().expect("a traced pass");
    assert!(stats::beyond(&traced.lat_ms, 0.95) >= 10);
}

#[test]
fn same_seed_same_digest_other_seed_other_inputs() {
    for w in [
        Workload::ServeCold,
        Workload::Table6Sweep,
        Workload::RgbosQuality,
    ] {
        let a = tiny(w, 5, false).e2e.digest;
        assert_eq!(a, tiny(w, 5, false).e2e.digest, "{}", w.name());
        assert_ne!(a, tiny(w, 6, false).e2e.digest, "{}", w.name());
    }
    assert_ne!(
        serve::cold_req(5, 3, true).payload,
        serve::cold_req(6, 3, true).payload
    );
}
