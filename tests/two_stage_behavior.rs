//! Behavioural properties of the two-stage execution model: which
//! chunks get loaded, how the recycler changes access paths, and how
//! selectivity drives work (the mechanisms behind Figs. 7–9).

use sommelier_core::{LoadingMode, SommelierConfig};
use sommelier_integration::{disk_system, fiam_repo, ingv_repo, prepared, TempDir};

#[test]
fn chunk_loads_scale_with_time_selectivity() {
    let dir = TempDir::new("selectivity");
    let repo = fiam_repo(&dir, 10, 32);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let mut loaded = Vec::new();
    for days in [1, 4, 10] {
        somm.flush_caches();
        let r = somm
            .query(&format!(
                "SELECT AVG(D.sample_value) FROM dataview \
                 WHERE D.sample_time >= '2010-01-01T00:00:00.000' \
                 AND D.sample_time < '2010-01-{:02}T00:00:00.000'",
                1 + days
            ))
            .unwrap();
        loaded.push(r.stats.files_loaded);
    }
    assert!(loaded[0] <= 2, "one day touches at most 2 chunks, got {}", loaded[0]);
    assert!(loaded[0] < loaded[1] && loaded[1] < loaded[2], "monotone: {loaded:?}");
    assert_eq!(loaded[2], 10, "full range loads every chunk");
}

#[test]
fn station_predicate_prunes_other_stations() {
    let dir = TempDir::new("station-prune");
    let repo = ingv_repo(&dir, 5, 32); // 4 stations × 5 days
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let r = somm
        .query(
            "SELECT COUNT(*) FROM dataview WHERE F.station = 'TRI' \
             AND D.sample_time < '2010-01-06T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_selected, 5, "only TRI's five chunks");
}

#[test]
fn metadata_only_queries_load_nothing() {
    let dir = TempDir::new("meta-only");
    let repo = ingv_repo(&dir, 3, 32);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let r = somm.query("SELECT station, COUNT(*) AS files FROM F GROUP BY station").unwrap();
    assert_eq!(r.relation.rows(), 4);
    assert_eq!(r.stats.files_loaded, 0);
    assert_eq!(r.stats.files_selected, 0);
    assert_eq!(somm.cellar().unwrap().resident_chunks(), 0);
    // T1 with joins: still metadata-only.
    let r = somm
        .query("SELECT SUM(S.sample_count) FROM segview WHERE F.station = 'AQU'")
        .unwrap();
    assert_eq!(r.stats.files_loaded, 0);
}

#[test]
fn recycler_turns_loads_into_cache_scans() {
    let dir = TempDir::new("recycler");
    let repo = fiam_repo(&dir, 6, 32);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    // Mid-day boundaries: segment end times sit exactly on day
    // boundaries, where float rounding may (soundly) over-select the
    // neighbouring chunk; 12:00 cut points are unambiguous.
    let q = |from: u32, to: u32| {
        format!(
            "SELECT AVG(D.sample_value) FROM dataview \
             WHERE D.sample_time >= '2010-01-{from:02}T12:00:00.000' \
             AND D.sample_time < '2010-01-{to:02}T12:00:00.000'"
        )
    };
    // Days 1⁠–⁠3 (half-open at noon): chunks 1, 2, 3 loaded.
    let r = somm.query(&q(1, 3)).unwrap();
    assert_eq!((r.stats.files_loaded, r.stats.cache_hits), (3, 0));
    // Days 2–5: chunks 2, 3 cached; 4, 5 loaded.
    let r = somm.query(&q(2, 5)).unwrap();
    assert_eq!((r.stats.files_loaded, r.stats.cache_hits), (2, 2));
    // Everything again: all five cached.
    let r = somm.query(&q(1, 5)).unwrap();
    assert_eq!((r.stats.files_loaded, r.stats.cache_hits), (0, 5));
}

#[test]
fn tiny_recycler_budget_evicts_and_reloads() {
    let dir = TempDir::new("evict");
    let repo = fiam_repo(&dir, 4, 64);
    let config = SommelierConfig { recycler_bytes: 1, ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-03T00:00:00.000'";
    let a = somm.query(sql).unwrap();
    let b = somm.query(sql).unwrap();
    assert_eq!(a.stats.files_loaded, 2);
    assert_eq!(b.stats.files_loaded, 2, "no cache: loads repeat");
    assert_eq!(b.stats.cache_hits, 0);
}

#[test]
fn disabling_recycler_behaves_like_zero_budget() {
    let dir = TempDir::new("nocache");
    let repo = fiam_repo(&dir, 3, 32);
    let config = SommelierConfig { use_recycler: false, ..SommelierConfig::default() };
    let somm = prepared(&repo, LoadingMode::Lazy, config);
    let sql = "SELECT COUNT(*) FROM dataview WHERE D.sample_time < '2010-01-02T00:00:00.000'";
    somm.query(sql).unwrap();
    let again = somm.query(sql).unwrap();
    assert_eq!(again.stats.cache_hits, 0);
    assert!(again.stats.files_loaded > 0);
}

#[test]
fn eager_modes_never_touch_the_chunk_source() {
    let dir = TempDir::new("eager-no-chunks");
    let repo = ingv_repo(&dir, 2, 32);
    for mode in [LoadingMode::EagerPlain, LoadingMode::EagerIndex, LoadingMode::EagerDmd] {
        let somm = prepared(&repo, mode, SommelierConfig::default());
        let r = somm
            .query(
                "SELECT AVG(D.sample_value) FROM dataview \
                 WHERE F.station = 'ISK' AND D.sample_time < '2010-01-02T00:00:00.000'",
            )
            .unwrap();
        // Stage 1 picks ISK's first-day chunks; stage 2 reads their rows
        // of the loaded table, so every selected chunk is a hit.
        assert_eq!(r.stats.files_loaded, 0, "{mode:?} reads from the database");
        assert!(r.stats.files_selected > 0, "{mode:?} selects chunks in stage 1");
        assert_eq!(r.stats.cache_hits + r.stats.files_pruned, r.stats.files_selected);
        assert!(r.stats.accounting_balanced());
        assert_eq!(somm.cellar().unwrap().resident_chunks(), 0);
    }
}

#[test]
fn eager_t4_t5_read_only_the_selected_chunks_rows() {
    // Two weeks of four stations, loaded into a disk-backed EagerDmd
    // database: the actual-data table dominates the bytes on disk. A
    // one-day T4 or T5 must select the same chunks as lazy mode and
    // read only their rows, not scan the whole table.
    let dir = TempDir::new("eager-two-stage");
    let repo = ingv_repo(&dir, 14, 256);
    let lazy = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let eager = disk_system(&dir.join("db"), &repo, SommelierConfig::default()).unwrap();
    eager.prepare(LoadingMode::EagerDmd).unwrap();
    let disk = eager.db().disk_bytes();
    let (from, to) = ("'2010-01-07T00:00:00.000'", "'2010-01-08T00:00:00.000'");
    for sql in [
        format!(
            "SELECT AVG(D.sample_value) FROM dataview \
             WHERE F.station = 'ISK' AND D.sample_time >= {from} AND D.sample_time < {to}"
        ),
        format!(
            "SELECT AVG(D.sample_value) FROM windowdataview \
             WHERE F.station = 'ISK' AND H.window_start_ts >= {from} \
             AND H.window_start_ts < {to} AND H.window_max_val > -1000000000"
        ),
    ] {
        let want = lazy.query(&sql).unwrap();
        eager.flush_caches();
        let before = eager.db().pool().stats().snapshot().bytes_read;
        let r = eager.query(&sql).unwrap();
        let read = eager.db().pool().stats().snapshot().bytes_read - before;
        assert_eq!(r.stats.files_selected, want.stats.files_selected, "{sql}");
        assert!(r.stats.files_selected > 0, "{sql}");
        assert_eq!(r.stats.files_loaded, 0, "{sql}");
        assert!(r.stats.accounting_balanced(), "{sql}");
        assert!(read < disk / 10, "{sql}: read {read} of {disk} bytes");
        assert_eq!(format!("{:?}", r.relation), format!("{:?}", want.relation), "{sql}");
    }
}

#[test]
fn empty_chunk_selection_yields_empty_result() {
    let dir = TempDir::new("empty-selection");
    let repo = ingv_repo(&dir, 2, 32);
    let somm = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    // A station that does not exist.
    let r = somm
        .query("SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM dataview WHERE F.station = 'XXXX'")
        .unwrap();
    assert_eq!(r.stats.files_selected, 0);
    // Global aggregate over an empty input: zero rows (engine contract).
    assert_eq!(r.relation.rows(), 0);
    // A time range before any data.
    let r = somm
        .query(
            "SELECT COUNT(*) AS n FROM dataview \
             WHERE D.sample_time < '2009-01-01T00:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.stats.files_selected, 0);
}

#[test]
fn explain_reflects_access_path_rewrites() {
    let dir = TempDir::new("explain-paths");
    let repo = ingv_repo(&dir, 2, 16);
    let lazy = prepared(&repo, LoadingMode::Lazy, SommelierConfig::default());
    let eager = prepared(&repo, LoadingMode::EagerIndex, SommelierConfig::default());
    let sql = "SELECT AVG(D.sample_value) FROM dataview WHERE F.station = 'ISK'";
    let lazy_plan = lazy.explain(sql).unwrap();
    let eager_plan = eager.explain(sql).unwrap();
    assert!(lazy_plan.contains("LazyScan D"), "{lazy_plan}");
    assert!(lazy_plan.contains("QfMark"), "{lazy_plan}");
    // One planner for every loading mode: below the header line naming
    // the mode, the eager plan is the lazy plan.
    let body = |plan: &str| plan.split_once('\n').map(|(_, rest)| rest.to_string());
    assert!(eager_plan.contains("mode: eager_index"), "{eager_plan}");
    assert_eq!(body(&eager_plan), body(&lazy_plan));
}
