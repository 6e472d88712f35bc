//! The benchmark's own smoke test: every workload at a tiny scale with a
//! fixed seed. Every metric `BENCHMARK.json` names must be printed with
//! its unit, every answer must check, and the single-client workloads'
//! counts must repeat exactly from one process to the next.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["explore-lazy", "eager-load", "server-mixed"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

/// Run the benchmark with its data under `dir` (one per test: the tests
/// run concurrently); returns the final JSON line.
fn run(dir: &str, workload: &str, trace: u8) -> String {
    let data = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sommbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .arg("--data-dir")
        .arg(&data)
        .output()
        .expect("running the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{workload}: exit {:?}\n{stdout}", out.status);
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line, asserting its unit.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at =
        line.find(&key).unwrap_or_else(|| panic!("{name} missing from {line}")) + key.len();
    let rest = &line[at..];
    let (value, rest) = rest.split_once(", ").expect("value then unit");
    assert!(
        rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} should be in {unit}: {rest}"
    );
    value.parse().unwrap_or_else(|_| panic!("{name}: bad value {value}"))
}

fn assert_clean(line: &str) {
    assert!(line.starts_with("{\"correct\": true, "), "answers must check: {line}");
    assert!(line.contains("\"failed\": 0, "), "nothing may fail: {line}");
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let line = run("smoke-metrics", w, 0);
        assert_clean(&line);
        for (name, unit) in &e2e {
            let v = metric(&line, name, unit);
            assert!(v > 0.0, "{w}: {name} must never be 0");
        }
        let line = run("smoke-metrics", w, 1);
        assert_clean(&line);
        for (name, unit) in &layers {
            metric(&line, name, unit);
        }
    }
}

#[test]
fn single_client_counts_repeat_across_processes() {
    let counts = [
        ("twostage.files_loaded", "count"),
        ("twostage.cache_hits", "count"),
        ("mseed.decode_calls", "count"),
        ("mseed.decode_rows", "count"),
        ("storage.pool_misses", "count"),
        ("dmd.windows_derived", "count"),
        ("loader.rows_loaded", "count"),
    ];
    for w in ["explore-lazy", "eager-load"] {
        let (a, b) = (run("smoke-counts", w, 1), run("smoke-counts", w, 1));
        assert_clean(&a);
        for (name, unit) in counts {
            assert_eq!(metric(&a, name, unit), metric(&b, name, unit), "{w}: {name}");
        }
    }
}
