//! `BENCHMARK.json` names exactly the workloads and metrics the
//! benchmark prints, and the final output line has the contract's shape.

use s4e_perfbench::report::{json_line, Metric};
use s4e_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// Every string value of `key` in `json`, in order.
fn values_of<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    json.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let expected_names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(n, _)| *n))
        .chain(PER_LAYER.iter().map(|(n, _)| *n))
        .collect();
    assert_eq!(values_of(&json, "name"), expected_names);
    let expected_units: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(_, u)| *u)
        .collect();
    assert_eq!(values_of(&json, "unit"), expected_units);
    assert_eq!(
        values_of(&json, "better").len(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn json_line_has_exactly_the_contract_keys() {
    let line = json_line(
        true,
        10,
        0,
        &[Metric {
            name: "setup_s".into(),
            value: 0.001_234_5,
            unit: "s",
        }],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.0012345, \"unit\": \"s\"}}}"
    );
}
