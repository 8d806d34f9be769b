//! Smoke test on the tiny instant-calibration shape: every workload's code
//! path runs clean, its first passes match `paragon_workload::run` (a
//! mismatch is a failed check), and every metric `BENCHMARK.json` names is
//! printed with its unit.

use hostbench::{run, Options, Shape, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `entry`.
fn string_field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {entry}"));
    let value = entry[at + key.len() + 3..].trim_start();
    let value = value.strip_prefix('"').expect("a string value");
    value[..value.find('"').expect("closing quote")].to_owned()
}

#[test]
fn every_workload_runs_clean_and_prints_every_declared_metric_with_its_unit() {
    for (section, trace, listed) in [
        ("end_to_end", false, END_TO_END),
        ("per_layer", true, PER_LAYER),
    ] {
        let declared = declared(section);
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
            .collect();
        assert_eq!(
            declared, listed,
            "BENCHMARK.json {section} vs the benchmark"
        );
        for workload in Workload::ALL {
            for seed in [1, 7] {
                let what = format!("{} seed {seed} trace {trace}", workload.name());
                let report = run(&Options {
                    workload,
                    seed,
                    seconds: 0.05,
                    trace,
                    shape: Shape::Tiny,
                })
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(
                    report.correct() && report.failed == 0,
                    "{what}: {:?}",
                    report.problems
                );
                let json = report.json();
                assert!(json.starts_with("{\"correct\": true, "), "{what}: {json}");
                for (name, unit) in &declared {
                    let metric = format!("\"{name}\": {{\"value\": ");
                    let at = json
                        .find(&metric)
                        .unwrap_or_else(|| panic!("{what} lacks {name}: {json}"));
                    let entry = &json[at..at + json[at..].find('}').expect("metric closes")];
                    assert!(
                        entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                        "{what}: {entry}"
                    );
                }
            }
        }
    }
}
