//! `BENCHMARK.json` must say what the binary reports: the same workloads
//! and the same metrics, with the same units, directions and bounds.

use clobber_benchmark::json::Json;
use clobber_benchmark::metrics::{END_TO_END, PER_LAYER};
use clobber_benchmark::workloads::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} in {obj:?}"))
}

#[test]
fn workloads_match() {
    let doc = manifest();
    let listed = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), Workload::ALL.len());
    for (entry, w) in listed.iter().zip(Workload::ALL) {
        assert_eq!(field(entry, "name"), w.name());
        assert_eq!(field(entry, "why"), w.why());
        assert!(
            w.why().len() <= 200,
            "{}: why is one line of <= 200",
            w.name()
        );
    }
}

#[test]
fn end_to_end_metrics_match() {
    let doc = manifest();
    let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.word());
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
}

#[test]
fn per_layer_metrics_match() {
    let doc = manifest();
    let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), m.name);
        assert_eq!(field(entry, "unit"), m.unit);
        assert_eq!(field(entry, "better"), m.better.word());
        assert_eq!(
            entry.as_obj().unwrap().len(),
            3,
            "{}: exactly three keys",
            m.name
        );
    }
}

#[test]
fn the_command_stays_inside_the_benchmark_directory() {
    let doc = manifest();
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
}
