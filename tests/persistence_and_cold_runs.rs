//! Disk-backed operation: catalog persistence, buffer-pool behaviour on
//! cold runs, and the simulated-I/O substitution used by the figures.

use sommelier_core::{LoadingMode, SommelierConfig};
use sommelier_integration::{disk_system, fiam_repo, open_system, TempDir};
use sommelier_storage::buffer::{BufferPoolConfig, SimIo};
use sommelier_storage::Database;
use std::time::Duration;

#[test]
fn disk_backed_prepare_and_query() {
    let dir = TempDir::new("disk");
    let repo = fiam_repo(&dir, 3, 64);
    let somm = disk_system(&dir.join("db"), &repo, SommelierConfig::default()).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    assert!(somm.db_bytes() > 0, "column files on disk");
    let r = somm
        .query(
            "SELECT COUNT(*) AS n FROM dataview \
             WHERE D.sample_time < '2010-01-04T00:00:00.000'",
        )
        .unwrap();
    assert!(r.relation.value(0, "n").unwrap().as_i64().unwrap() > 0);
}

#[test]
fn database_reopens_with_data_intact() {
    let dir = TempDir::new("reopen");
    let repo = fiam_repo(&dir, 2, 32);
    let db_dir = dir.join("db");
    let rows_before;
    {
        let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        somm.prepare(LoadingMode::EagerPlain).unwrap();
        rows_before = somm.db().table_rows("D").unwrap();
        assert!(rows_before > 0);
    }
    // Re-open at the storage level: catalog + data must be intact.
    let db = Database::open(&db_dir, BufferPoolConfig::default()).unwrap();
    assert_eq!(db.table_rows("D").unwrap(), rows_before);
    assert_eq!(db.table_rows("F").unwrap(), 2);
    let schema = db.table_schema("D").unwrap();
    assert_eq!(schema.columns.len(), 4);
    // Scanning after reopen works (reads through the buffer pool).
    let cols = db.scan_columns("D", &["sample_value"]).unwrap();
    assert_eq!(cols[0].len() as u64, rows_before);
}

#[test]
fn cold_runs_miss_the_buffer_pool() {
    let dir = TempDir::new("cold");
    let repo = fiam_repo(&dir, 2, 64);
    let somm = disk_system(&dir.join("db"), &repo, SommelierConfig::default()).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-02T00:00:00.000'";
    somm.query(sql).unwrap();
    let warm = somm.db().pool().stats().snapshot();
    somm.query(sql).unwrap();
    let hot = somm.db().pool().stats().snapshot();
    assert_eq!(hot.misses, warm.misses, "hot run: all hits");
    assert!(hot.hits > warm.hits);
    somm.flush_caches();
    somm.query(sql).unwrap();
    let cold = somm.db().pool().stats().snapshot();
    assert!(cold.misses > hot.misses, "cold run re-reads pages");
}

#[test]
fn simulated_io_slows_pool_misses() {
    // The DESIGN.md substitution for the paper's disk-bound regimes:
    // a per-page latency charged on misses must make cold scans
    // measurably slower, and leave hot scans alone.
    let dir = TempDir::new("simio");
    let repo = fiam_repo(&dir, 2, 256);
    let config = SommelierConfig {
        sim_io: Some(SimIo { per_page: Duration::from_millis(2) }),
        ..SommelierConfig::default()
    };
    let somm = disk_system(&dir.join("db"), &repo, config).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-03T00:00:00.000'";
    somm.flush_caches();
    let t = std::time::Instant::now();
    somm.query(sql).unwrap();
    let cold = t.elapsed();
    let t = std::time::Instant::now();
    somm.query(sql).unwrap();
    let hot = t.elapsed();
    assert!(
        cold > hot * 2,
        "simulated I/O should separate cold ({cold:?}) from hot ({hot:?})"
    );
}

#[test]
fn buffer_pool_budget_bounds_residency() {
    let dir = TempDir::new("budget");
    let repo = fiam_repo(&dir, 4, 256);
    let config =
        SommelierConfig { buffer_pool_bytes: 256 * 1024, ..SommelierConfig::default() };
    let somm = disk_system(&dir.join("db"), &repo, config).unwrap();
    somm.prepare(LoadingMode::EagerPlain).unwrap();
    somm.query(
        "SELECT AVG(D.sample_value) FROM dataview \
         WHERE D.sample_time < '2010-01-05T00:00:00.000'",
    )
    .unwrap();
    assert!(somm.db().pool().resident_bytes() <= 256 * 1024, "pool stays within budget");
    assert!(somm.db().pool().stats().snapshot().evictions > 0);
}

#[test]
fn sommelier_reopens_prepared_database() {
    let dir = TempDir::new("somm-reopen");
    let repo = fiam_repo(&dir, 3, 64);
    let db_dir = dir.join("db");
    let sql = "SELECT AVG(D.sample_value) FROM dataview \
               WHERE D.sample_time < '2010-01-03T00:00:00.000'";
    let (want, h_rows) = {
        let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let want = somm.query(sql).unwrap();
        // Materialize some DMd so the reopen can recover coverage.
        somm.query(
            "SELECT window_max_val FROM H \
             WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
             AND window_start_ts < '2010-01-01T05:00:00.000'",
        )
        .unwrap();
        (want.relation.value(0, "avg").unwrap(), somm.db().table_rows("H").unwrap())
    };
    assert!(h_rows > 0);
    // Reopen: lazy mode inferred (D empty), registry rebuilt from F/S,
    // DMd coverage recovered from H.
    let somm = open_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
    assert_eq!(somm.mode(), Some(LoadingMode::Lazy));
    assert_eq!(somm.registered_chunks(), 3);
    assert!(somm.dmd_manager().covered_count() >= h_rows as usize);
    let got = somm.query(sql).unwrap();
    assert_eq!(got.relation.value(0, "avg").unwrap(), want);
    // Previously derived windows are not re-derived.
    let r = somm
        .query(
            "SELECT window_max_val FROM H \
             WHERE window_station = 'FIAM' AND window_channel = 'HHZ' \
             AND window_start_ts < '2010-01-01T05:00:00.000'",
        )
        .unwrap();
    assert_eq!(r.dmd.unwrap().missing, 0);
}

#[test]
fn second_create_in_same_dir_fails() {
    let dir = TempDir::new("dup");
    let repo = fiam_repo(&dir, 1, 16);
    let db_dir = dir.join("db");
    let _first = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
    assert!(disk_system(&db_dir, &repo, SommelierConfig::default()).is_err());
}

#[test]
fn reopened_system_restores_prepared_mode() {
    // The mode-inference bug this guards against: a reopened
    // `EagerIndex` database used to silently downgrade to `EagerPlain`
    // (the mode was guessed from D's row count), losing
    // `use_index_joins` after every restart. The mode is persisted now.
    // Eager T4/T5 read their chunks' rows through D's key directory,
    // which is not persisted: it is rebuilt on first use after `open`.
    let dir = TempDir::new("mode-persist");
    let repo = fiam_repo(&dir, 2, 32);
    let t4 = "SELECT AVG(D.sample_value) FROM dataview \
              WHERE D.sample_time < '2010-01-02T00:00:00.000'";
    let t5 = "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a FROM windowdataview \
              WHERE H.window_start_ts < '2010-01-02T00:00:00.000' \
              AND H.window_max_val > -1000000000";
    for mode in [LoadingMode::EagerIndex, LoadingMode::EagerDmd] {
        let db_dir = dir.join(mode.label());
        let want: Vec<String> = {
            let somm = disk_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
            somm.prepare(mode).unwrap();
            assert!(somm.db().join_index("D", "F").is_some());
            [t4, t5].map(|sql| format!("{:?}", somm.query(sql).unwrap().relation)).to_vec()
        };
        let somm = open_system(&db_dir, &repo, SommelierConfig::default()).unwrap();
        assert_eq!(somm.mode(), Some(mode), "mode restored, not guessed");
        // Join indices are rebuilt on open (the FK check of the eager
        // index loading step).
        assert!(somm.db().join_index("D", "F").is_some());
        for (sql, want) in [t4, t5].into_iter().zip(want) {
            let r = somm.query(sql).unwrap();
            assert_eq!(r.stats.files_loaded, 0, "{mode}: {sql}");
            assert!(r.stats.cache_hits > 0, "{mode}: stage 2 reads the loaded rows: {sql}");
            assert_eq!(format!("{:?}", r.relation), want, "{mode}: {sql}");
        }
        let directory = somm.db().key_ranges("D", "file_id").unwrap();
        assert_eq!(directory.len(), somm.registered_chunks(), "{mode}: one key per chunk");
    }
}

#[test]
fn eager_pool_counts_repeat_across_systems() {
    // Eager stage 2 issues its page reads in chunk-list order from one
    // thread, with only the per-chunk pipelines on the workers. Under a
    // pool far smaller than the loaded database, the pages left
    // resident — and so every later hit and miss — must then be the
    // same on every run of the same set-up and queries.
    let dir = TempDir::new("eager-pool-repeat");
    let repo = fiam_repo(&dir, 6, 64);
    let config = SommelierConfig {
        buffer_pool_bytes: 4 * 64 * 1024,
        max_threads: 4,
        ..SommelierConfig::default()
    };
    let sql = "SELECT AVG(D.sample_value) FROM windowdataview \
               WHERE H.window_start_ts < '2010-01-05T00:00:00.000' \
               AND H.window_max_val > -1000000000";
    let run = |name: &str| {
        let somm = disk_system(&dir.join(name), &repo, config.clone()).unwrap();
        somm.prepare(LoadingMode::EagerDmd).unwrap();
        let answer = format!("{:?}", somm.query(sql).unwrap().relation);
        (answer, somm.db().pool().stats().snapshot())
    };
    let first = run("a");
    assert!(first.1.evictions > 0, "the pool must be too small to hold the database");
    for name in ["b", "c"] {
        assert_eq!(run(name), first, "pool counts diverged on run {name}");
    }
}
