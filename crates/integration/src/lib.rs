//! Shared helpers for the workspace-level integration tests in
//! `tests/` (wired into cargo through this crate's `[[test]]` entries).

use sommelier_core::{LoadingMode, Result, Sommelier, SommelierConfig};
use sommelier_engine::graph::QueryGraph;
use sommelier_engine::joinorder;
use sommelier_engine::twostage::{execute_plan, ChunkAccess, TwoStageConfig};
use sommelier_engine::Relation;
use sommelier_mseed::{DatasetSpec, MseedAdapter, Repository};
use sommelier_sql::BindCatalog;
use sommelier_storage::Value;
use std::path::{Path, PathBuf};

/// A self-cleaning scratch directory.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create under the system temp dir, uniquely named.
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "somm-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// Path inside the directory.
    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate a small INGV-like repository (4 stations × `days`).
pub fn ingv_repo(dir: &TempDir, days: u32, samples: u32) -> Repository {
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::ingv(1, samples);
    spec.days = days;
    repo.generate(&spec).expect("generate repo");
    repo
}

/// Generate a small FIAM repository (1 station × `days`).
pub fn fiam_repo(dir: &TempDir, days: u32, samples: u32) -> Repository {
    let repo = Repository::at(dir.join("repo"));
    let mut spec = DatasetSpec::fiam(1, samples);
    spec.days = days;
    repo.generate(&spec).expect("generate repo");
    repo
}

/// An in-memory system over the given mSEED repository directory.
pub fn in_memory_system(repo: &Repository, config: SommelierConfig) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .build()
}

/// A disk-backed system (database files under `db_dir`).
pub fn disk_system(
    db_dir: &Path,
    repo: &Repository,
    config: SommelierConfig,
) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .on_disk(db_dir)
        .build()
}

/// Re-open a previously prepared disk-backed system.
pub fn open_system(
    db_dir: &Path,
    repo: &Repository,
    config: SommelierConfig,
) -> Result<Sommelier> {
    Sommelier::builder()
        .source(MseedAdapter::new(Repository::at(repo.dir())))
        .config(config)
        .open(db_dir)
        .build()
}

/// An in-memory system prepared with `mode` over the given repository
/// directory.
pub fn prepared(repo: &Repository, mode: LoadingMode, config: SommelierConfig) -> Sommelier {
    let somm = in_memory_system(repo, config).expect("create sommelier");
    somm.prepare(mode).expect("prepare");
    somm
}

/// Extract a single f64 cell from a 1×1 result.
pub fn scalar_f64(result: &sommelier_core::QueryResult, col: &str) -> Option<f64> {
    if result.relation.rows() != 1 {
        return None;
    }
    match result.relation.value(0, col).ok()? {
        sommelier_storage::Value::Float(v) => Some(v),
        sommelier_storage::Value::Int(v) => Some(v as f64),
        _ => None,
    }
}

/// The differential oracle's answer to `sql` over `somm`'s loaded
/// database: the reference planner's plan
/// ([`sommelier_engine::joinorder::order_traditional`] — plain scans, no
/// decomposition, no inference, no pruning) run with
/// [`ChunkAccess::None`]. `catalog` binds the source's views.
pub fn reference_answer(somm: &Sommelier, catalog: &BindCatalog, sql: &str) -> Relation {
    let spec = sommelier_sql::compile(sql, catalog).expect("bind reference query");
    let graph = QueryGraph::from_spec(&spec).expect("query graph");
    let plan = joinorder::finish(
        joinorder::order_traditional(&graph, &spec).expect("reference join order"),
        &spec,
    )
    .expect("reference plan");
    execute_plan(somm.db(), &plan, ChunkAccess::None, &TwoStageConfig::default())
        .expect("run reference plan")
        .relation
}

/// Cell-wise comparison of two answers: exact for ints, texts and
/// timestamps, relative 1e-9 for floats (plans that sum floats in a
/// different order may differ in the last ulps).
pub fn assert_relations_close(got: &Relation, want: &Relation, what: &str) {
    assert_eq!(got.names(), want.names(), "schema diverged on {what}");
    assert_eq!(got.rows(), want.rows(), "cardinality diverged on {what}");
    for row in 0..got.rows() {
        for name in got.names() {
            let a = got.value(row, name).expect("cell");
            let b = want.value(row, name).expect("cell");
            match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => {
                    let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    assert!((x - y).abs() <= tol, "{name}[{row}]: {x} vs {y} on {what}");
                }
                _ => assert_eq!(a, b, "{name}[{row}] diverged on {what}"),
            }
        }
    }
}
