//! The fundamental guarantee of the paper's system: partial loading is
//! *transparent*. Every loading approach must return identical answers
//! for every query type — lazy ingestion, the two-stage rewrite, index
//! joins and incremental DMd derivation are pure optimizations.

use sommelier_core::source::assemble_catalog;
use sommelier_core::{LoadingMode, QueryType, SommelierConfig, SourceAdapter};
use sommelier_integration::{
    assert_relations_close, ingv_repo, prepared, reference_answer, TempDir,
};
use sommelier_mseed::{MseedAdapter, Repository};
use sommelier_storage::Value;
use std::path::{Path, PathBuf};

/// The five benchmark queries over the same small dataset.
fn queries() -> Vec<(&'static str, String)> {
    vec![
        (
            "T1",
            "SELECT COUNT(*) AS n, SUM(S.sample_count) AS total FROM segview \
             WHERE F.station = 'ISK'"
                .to_string(),
        ),
        (
            "T2",
            "SELECT window_start_ts, window_max_val, window_min_val, window_mean_val, \
             window_std_dev FROM H \
             WHERE window_station = 'ISK' AND window_channel = 'BHE' \
             AND window_start_ts >= '2010-01-01T00:00:00.000' \
             AND window_start_ts < '2010-01-02T00:00:00.000' \
             ORDER BY window_start_ts"
                .to_string(),
        ),
        (
            "T3",
            "SELECT H.window_start_ts, H.window_max_val, F.network FROM windowview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND H.window_start_ts >= '2010-01-01T06:00:00.000' \
             AND H.window_start_ts < '2010-01-02T00:00:00.000' \
             ORDER BY window_start_ts"
                .to_string(),
        ),
        (
            "T4",
            "SELECT AVG(D.sample_value) FROM dataview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND D.sample_time >= '2010-01-01T03:00:00.000' \
             AND D.sample_time < '2010-01-02T21:00:00.000'"
                .to_string(),
        ),
        (
            "T5",
            "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM windowdataview \
             WHERE F.station = 'ISK' AND F.channel = 'BHE' \
             AND H.window_start_ts >= '2010-01-01T00:00:00.000' \
             AND H.window_start_ts < '2010-01-03T00:00:00.000' \
             AND H.window_max_val > 1000"
                .to_string(),
        ),
    ]
}

/// Render a relation to a canonical string for comparison.
fn canonical(rel: &sommelier_engine::Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..rel.rows())
        .map(|r| {
            rel.columns()
                .iter()
                .map(|(_, c)| match c.get(r) {
                    // Normalize float formatting to survive summation
                    // order differences across parallel loads.
                    Value::Float(f) => format!("{:.9e}", f),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn all_modes_agree_on_all_query_types() {
    let dir = TempDir::new("agree");
    let repo = ingv_repo(&dir, 3, 64);
    // Reference: eager_plain.
    let reference = prepared(&repo, LoadingMode::EagerPlain, SommelierConfig::default());
    let expected: Vec<_> = queries()
        .iter()
        .map(|(name, sql)| {
            let r = reference.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name.to_string(), canonical(&r.relation))
        })
        .collect();
    // Every reference result must be non-trivial, otherwise the test
    // proves nothing.
    for (name, rows) in &expected {
        assert!(!rows.is_empty(), "{name} reference result is empty");
    }
    for mode in [
        LoadingMode::EagerCsv,
        LoadingMode::EagerIndex,
        LoadingMode::EagerDmd,
        LoadingMode::Lazy,
    ] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        for ((name, sql), (_, want)) in queries().iter().zip(&expected) {
            let got = somm.query(sql).unwrap_or_else(|e| panic!("{name} under {mode}: {e}"));
            assert_eq!(
                &canonical(&got.relation),
                want,
                "{name} result diverges under {mode}"
            );
        }
    }
}

#[test]
fn classification_is_mode_independent() {
    let dir = TempDir::new("classify");
    let repo = ingv_repo(&dir, 2, 16);
    let expected =
        [QueryType::T1, QueryType::T2, QueryType::T3, QueryType::T4, QueryType::T5];
    for mode in [LoadingMode::Lazy, LoadingMode::EagerIndex] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        for ((name, sql), want) in queries().iter().zip(expected) {
            let got = somm.query(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(got.qtype, want, "{name} under {mode:?}");
        }
    }
}

#[test]
fn repeated_queries_are_stable_under_caching() {
    // Results must not change as the recycler fills up / evicts.
    let dir = TempDir::new("stable");
    let repo = ingv_repo(&dir, 3, 64);
    let config = SommelierConfig { recycler_bytes: 64 * 1024, ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let (_, t4) = &queries()[3];
    let first = canonical(&somm.query(t4).unwrap().relation);
    for _ in 0..3 {
        assert_eq!(canonical(&somm.query(t4).unwrap().relation), first);
    }
    // Caches flushed: still identical.
    somm.flush_caches();
    assert_eq!(canonical(&somm.query(t4).unwrap().relation), first);
}

#[test]
fn lazy_aggregate_matches_manual_recomputation() {
    // Cross-check AVG against COUNT + SUM computed by separate queries.
    let dir = TempDir::new("manual");
    let repo = ingv_repo(&dir, 2, 64);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let range = "D.sample_time >= '2010-01-01T00:00:00.000' \
                 AND D.sample_time < '2010-01-02T00:00:00.000'";
    let avg = somm
        .query(&format!(
            "SELECT AVG(D.sample_value) AS a FROM dataview \
             WHERE F.station = 'FIAM' AND {range}"
        ))
        .unwrap();
    let parts = somm
        .query(&format!(
            "SELECT COUNT(*) AS n, SUM(D.sample_value) AS s FROM dataview \
             WHERE F.station = 'FIAM' AND {range}"
        ))
        .unwrap();
    let a = match avg.relation.value(0, "a").unwrap() {
        Value::Float(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    let n = match parts.relation.value(0, "n").unwrap() {
        Value::Int(v) => v as f64,
        other => panic!("unexpected {other:?}"),
    };
    let s = match parts.relation.value(0, "s").unwrap() {
        Value::Float(v) => v,
        other => panic!("unexpected {other:?}"),
    };
    assert!(n > 0.0);
    assert!((a - s / n).abs() < 1e-9, "AVG {a} vs SUM/COUNT {}", s / n);
}

#[test]
fn eager_modes_match_the_inference_free_reference_planner() {
    // Every loading mode plans metadata-first; the oracle is the
    // reference planner (plain scans, no inference, no pruning) run
    // without chunk access over the same loaded database.
    let dir = TempDir::new("reference-oracle");
    let repo = ingv_repo(&dir, 3, 64);
    let adapter = MseedAdapter::new(Repository::at(repo.dir()));
    let catalog = assemble_catalog(&[adapter.descriptor()]).unwrap();
    for mode in [LoadingMode::EagerPlain, LoadingMode::EagerIndex, LoadingMode::EagerDmd] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        for (name, sql) in queries() {
            // Production first: in modes without materialized DMd it
            // derives the windows the reference then scans.
            let got = somm.query(&sql).unwrap_or_else(|e| panic!("{name} under {mode}: {e}"));
            assert!(got.stats.accounting_balanced(), "{name} under {mode}");
            assert_eq!(got.stats.files_loaded, 0, "{name} under {mode} decodes nothing");
            let want = reference_answer(&somm, &catalog, &sql);
            assert!(want.rows() > 0, "{name}: empty reference answer proves nothing");
            assert_relations_close(&got.relation, &want, &format!("{name} under {mode}"));
        }
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// A source file without its unit-test module (tests may use the
/// reference planner; production code may not).
fn production_text(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    match text.find("#[cfg(test)]") {
        Some(i) => text[..i].to_string(),
        None => text,
    }
}

#[test]
fn one_production_planner_guardrail() {
    // One planner serves every loading mode. The eager switch must not
    // come back, and the reference planner stays a test oracle.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let joinorder = crates.join("engine/src/joinorder.rs");
    let joinorder_text = std::fs::read_to_string(&joinorder).unwrap();
    for banned in ["fn eager(", "pub metadata_first:", "pub lazy:"] {
        assert!(!joinorder_text.contains(banned), "PlanOptions regained `{banned}`");
    }
    let mut scanned = 0;
    for krate in ["core", "engine", "sql", "storage", "server", "mseed", "bench"] {
        for path in rust_files(&crates.join(krate).join("src")) {
            let text = production_text(&path);
            assert!(!text.contains("PlanOptions::eager"), "{} plans eagerly", path.display());
            let reference_allowed = path == joinorder || !matches!(krate, "core" | "engine");
            assert!(
                reference_allowed || !text.contains("order_traditional"),
                "{} runs the reference planner in production",
                path.display()
            );
            scanned += 1;
        }
    }
    assert!(scanned > 50, "guardrail scanned only {scanned} files");
}
