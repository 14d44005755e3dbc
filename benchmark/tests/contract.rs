//! `BENCHMARK.json` must name exactly the workloads and metrics the
//! benchmark emits, in its order, with its units.

use gtopk_benchmark::run::{END_TO_END, PER_LAYER};
use gtopk_benchmark::workload::WORKLOADS;

/// The string values of `key` within `text`, in order.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
    // The document's top-level keys, in the contract's order.
    let (_, rest) = doc.split_once("\"workloads\"").expect("workloads");
    let (workloads, rest) = rest.split_once("\"end_to_end\"").expect("end_to_end");
    let (end_to_end, per_layer) = rest.split_once("\"per_layer\"").expect("per_layer");

    assert_eq!(values(workloads, "name"), WORKLOADS.map(|w| w.name));
    assert_eq!(values(workloads, "why"), WORKLOADS.map(|w| w.why));
    assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

    for (text, table) in [(end_to_end, &END_TO_END[..]), (per_layer, &PER_LAYER[..])] {
        let listed: Vec<(&str, &str)> = values(text, "name")
            .into_iter()
            .zip(values(text, "unit"))
            .collect();
        assert_eq!(listed, table);
    }
}
