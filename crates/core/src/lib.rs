//! # sommelier-core
//!
//! The **sommelier** system: a partial-loading-aware analytical DBMS —
//! a from-scratch Rust reproduction of *"The DBMS – your Big Data
//! Sommelier"* (Kargın, Kersten, Manegold, Pirk; ICDE 2015).
//!
//! Like the paper's sommelier, the system keeps the bottles (actual
//! data) in the cellar (the chunk-file repository) and the labels (the
//! metadata) in its head: registering a repository eagerly loads only
//! the given metadata; queries are executed in two stages so that the
//! metadata branch determines exactly which chunks to ingest; derived
//! metadata is an incrementally materialized view (Algorithm 1).
//!
//! The system is **format-agnostic**: chunk formats plug in through
//! the [`source::SourceAdapter`] API, and one system can serve several
//! sources at once — each with its own schemas, views, inference rules
//! and derived-metadata shape — under one shared cellar budget. The
//! seismology format of the paper lives in its own adapter crate; a
//! CSV event-log source ships in [`adapters`].
//!
//! ```no_run
//! use sommelier_core::adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
//! use sommelier_core::{LoadingMode, Sommelier};
//!
//! // Generate a tiny synthetic event-log repository ...
//! generate_event_logs("/tmp/somm-logs".as_ref(), &EventLogSpec::small(3, 512)).unwrap();
//! // ... register it into a system (metadata only) ...
//! let somm = Sommelier::builder()
//!     .source(EventLogAdapter::new("/tmp/somm-logs"))
//!     .build()
//!     .unwrap();
//! somm.prepare(LoadingMode::Lazy).unwrap();
//! // ... and query: stage 1 picks the chunks, stage 2 ingests just them.
//! let result = somm
//!     .query(
//!         "SELECT AVG(E.val) FROM eventview \
//!          WHERE G.host = 'web-1' \
//!          AND E.ts >= '2011-03-02T00:00:00.000' \
//!          AND E.ts <  '2011-03-03T00:00:00.000'",
//!     )
//!     .unwrap();
//! assert_eq!(result.stats.files_loaded, 1); // one day of one host → one chunk
//! ```

pub mod adapters;
pub mod admission;
pub mod cellar;
pub mod chunks;
pub mod config;
pub mod dmd;
pub mod error;
pub mod fault;
pub mod loaded;
pub mod loader;
pub mod prefetch;
pub mod query;
pub mod registrar;
pub mod source;

pub use admission::{AdmissionController, AdmissionError, AdmissionStats, AdmissionTicket};
pub use config::SommelierConfig;
pub use error::{Result, SommelierError};
pub use fault::{FaultCounts, FaultInjector, FaultPlan, RetryPolicy};
pub use loader::{LoadingMode, PrepReport};
pub use query::QueryType;
pub use sommelier_engine::sched::{
    CancelToken, DegradationPolicy, MorselScheduler, Priority, SchedStats,
};
pub use sommelier_engine::twostage::SkippedChunk;
pub use sommelier_engine::{
    ErrorKind, MetricsRegistry, MetricsSnapshot, ObsLevel, SpanTrace,
};
pub use source::{
    DmdAgg, DmdDim, DmdSpec, InferenceRule, SourceAdapter, SourceDescriptor, UnitTableSpec,
};

use cellar::{Cellar, CellarConfig, CellarSource};
use chunks::{AdapterChunkSource, ChunkRegistry};
use dmd::{DmdManager, DmdOutcome};
use loaded::LoadedChunks;
use parking_lot::Mutex;
use sommelier_engine::joinorder::PlanOptions;
use sommelier_engine::obs::span::fmt_ns;
use sommelier_engine::optimizer::{self, PassTrace};
use sommelier_engine::twostage::{
    execute_plan, ChunkAccess, ChunkResidency, QueryOutcome, TwoStageConfig,
};
use sommelier_engine::{
    ColumnZone, ExecStats, LogicalPlan, Obs, QuerySpec, Relation, TraceCollector,
    ZoneCandidates,
};
use sommelier_sql::BindCatalog;
use sommelier_storage::buffer::BufferPoolConfig;
use sommelier_storage::catalog::Disposition;
use sommelier_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the file (inside a disk-backed system's directory) that
/// persists the prepared loading mode across restarts.
const MODE_FILE: &str = "sommelier.mode";

/// Name of the sidecar file that persists the registrar's per-chunk
/// zone maps across restarts (the metadata tables do not carry them).
const ZONES_FILE: &str = "sommelier.zones";

/// Prefix of the trailing checksum line [`write_sidecar_atomic`]
/// appends to every sidecar it writes.
const CHECKSUM_MARKER: &str = "#somm-checksum ";

/// Write a sidecar file atomically — tmp + rename, the catalog's
/// publish idiom — with a trailing FNV-1a checksum line so a torn or
/// bit-rotted file is detected on read and rebuilt instead of trusted.
fn write_sidecar_atomic(path: &Path, payload: &str) -> Result<()> {
    let body = format!("{payload}\n{CHECKSUM_MARKER}{:016x}\n", fnv1a(payload.as_bytes()));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, body)
        .map_err(|e| SommelierError::Usage(format!("writing sidecar {path:?}: {e}")))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| SommelierError::Usage(format!("publishing sidecar {path:?}: {e}")))
}

/// Read a sidecar written by [`write_sidecar_atomic`], verifying its
/// checksum line. Returns `None` — treat the file as missing — when it
/// does not exist or the checksum mismatches. Files from versions
/// before checksumming lack the marker and are accepted as-is.
fn read_sidecar(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    match text.rsplit_once(&format!("\n{CHECKSUM_MARKER}")) {
        None => Some(text),
        Some((payload, sum)) => {
            let expect = u64::from_str_radix(sum.trim(), 16).ok()?;
            (fnv1a(payload.as_bytes()) == expect).then(|| payload.to_string())
        }
    }
}

/// FNV-1a, enough to catch torn writes and bit rot in small sidecars.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A query result: the relation plus everything the experiments report.
#[derive(Debug)]
pub struct QueryResult {
    pub relation: Relation,
    pub stats: ExecStats,
    pub qtype: QueryType,
    /// Algorithm-1 bookkeeping, when the query referred to DMd.
    pub dmd: Option<DmdOutcome>,
    /// The optimizer pass trace (compile pipeline followed by the
    /// stage-2 rewrite pipeline): which rewrite rules fired.
    pub trace: Vec<PassTrace>,
    /// The query's span tree, when the system ran at
    /// [`sommelier_engine::ObsLevel::Spans`] (or the query came through
    /// [`Sommelier::explain_analyze`], which forces it).
    pub span_trace: Option<SpanTrace>,
    /// Present when the query ran under
    /// [`DegradationPolicy::SkipUnreadable`] and at least one chunk was
    /// skipped: the answer covers only the readable chunks.
    pub degraded: Option<DegradedReport>,
}

/// Partial-results report of a degraded query (see
/// [`QueryOptions::degradation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedReport {
    /// URIs of the chunks the query skipped.
    pub skipped_chunks: Vec<String>,
    /// Why each chunk was skipped, aligned with `skipped_chunks`.
    pub reasons: Vec<String>,
}

/// Per-query execution options for [`Sommelier::query_opts`] (the
/// multi-tenant session front end in `sommelier-server` feeds these).
/// `Default` reproduces [`Sommelier::query`] exactly.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Deterministic chunk-sampling fraction in `(0, 1]` (approximate
    /// execution, like [`Sommelier::query_approx`]); `None` is exact.
    pub sampling: Option<f64>,
    /// Scheduling priority: position in the admission queue and of the
    /// query's morsel batches on the shared scheduler.
    pub priority: Priority,
    /// Cooperative cancellation handle. The engine checks it at chunk-
    /// pipeline boundaries, so cancellation is prompt and always leaves
    /// the cellar's pin accounting balanced.
    pub cancel: Option<CancelToken>,
    /// Deadline measured from submission; on expiry the query fails
    /// with a timed-out `Cancelled` error. Combines with `cancel` (the
    /// deadline is installed on the given token).
    pub timeout: Option<Duration>,
    /// What to do with chunks that cannot be read even after retries:
    /// fail the query (`Strict`, default) or complete over the
    /// readable rest and report the skips ([`QueryResult::degraded`]).
    pub degradation: DegradationPolicy,
}

/// One registered source, alive for the system's lifetime.
struct SourceRuntime {
    adapter: Arc<dyn SourceAdapter>,
    descriptor: Arc<SourceDescriptor>,
    dmd: Arc<DmdManager>,
}

struct Prepared {
    mode: LoadingMode,
    /// Per-source chunk registries, aligned with `Sommelier::sources`.
    registries: Vec<Arc<ChunkRegistry>>,
    cellar: Arc<Cellar>,
}

/// Where the builder puts the database.
enum StorageSpec {
    InMemory,
    Create(PathBuf),
    Open(PathBuf),
}

/// Builder for a [`Sommelier`] system: register one *or several*
/// [`SourceAdapter`]s, pick a configuration and a storage location,
/// then [`SommelierBuilder::build`].
///
/// ```no_run
/// use sommelier_core::adapters::EventLogAdapter;
/// use sommelier_core::{Sommelier, SommelierConfig};
///
/// let somm = Sommelier::builder()
///     .source(EventLogAdapter::new("/data/logs"))
///     .config(SommelierConfig::default())
///     .on_disk("/data/somm-db".as_ref())
///     .build()
///     .unwrap();
/// ```
pub struct SommelierBuilder {
    config: SommelierConfig,
    adapters: Vec<Arc<dyn SourceAdapter>>,
    storage: StorageSpec,
}

impl SommelierBuilder {
    /// Register a source (may be called several times; table and view
    /// names must not collide between sources).
    pub fn source(mut self, adapter: impl SourceAdapter + 'static) -> Self {
        self.adapters.push(Arc::new(adapter));
        self
    }

    /// Register an already-shared source.
    pub fn source_arc(mut self, adapter: Arc<dyn SourceAdapter>) -> Self {
        self.adapters.push(adapter);
        self
    }

    /// Set the system configuration (defaults to
    /// [`SommelierConfig::default`]).
    pub fn config(mut self, config: SommelierConfig) -> Self {
        self.config = config;
        self
    }

    /// Keep the database in memory (tests, examples). The default.
    pub fn in_memory(mut self) -> Self {
        self.storage = StorageSpec::InMemory;
        self
    }

    /// Create a fresh disk-backed database under `dir`.
    pub fn on_disk(mut self, dir: &Path) -> Self {
        self.storage = StorageSpec::Create(dir.to_path_buf());
        self
    }

    /// Re-open a previously prepared disk-backed database under `dir`.
    /// The chunk registries are rebuilt from the persisted metadata
    /// tables, the prepared loading mode is restored from the persisted
    /// mode file (systems written before mode persistence fall back to
    /// inferring it from the actual-data row counts), join indices are
    /// rebuilt when the restored mode needs them, and derived-metadata
    /// coverage is restored from the derived tables.
    pub fn open(mut self, dir: &Path) -> Self {
        self.storage = StorageSpec::Open(dir.to_path_buf());
        self
    }

    /// Assemble the system.
    pub fn build(self) -> Result<Sommelier> {
        if self.adapters.is_empty() {
            return Err(SommelierError::Usage(
                "register at least one source adapter before build()".into(),
            ));
        }
        let mut sources = Vec::with_capacity(self.adapters.len());
        for adapter in &self.adapters {
            let descriptor = Arc::new(adapter.descriptor().clone());
            descriptor.validate()?;
            if sources.iter().any(|s: &SourceRuntime| s.descriptor.name == descriptor.name) {
                return Err(SommelierError::Usage(format!(
                    "source name {:?} registered twice",
                    descriptor.name
                )));
            }
            sources.push(SourceRuntime {
                adapter: Arc::clone(adapter),
                descriptor,
                dmd: Arc::new(DmdManager::new()),
            });
        }
        let catalog = source::assemble_catalog(
            &sources.iter().map(|s| s.descriptor.as_ref()).collect::<Vec<_>>(),
        )?;
        let pool = BufferPoolConfig {
            capacity_bytes: self.config.buffer_pool_bytes,
            sim_io: self.config.sim_io,
        };
        let (db, db_dir, csv_dir, disposition, opened) = match &self.storage {
            StorageSpec::InMemory => {
                let csv = std::env::temp_dir().join(format!(
                    "sommelier-csv-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                (Database::in_memory(pool), None, csv, Disposition::Resident, false)
            }
            StorageSpec::Create(dir) => (
                Database::create(dir, pool)?,
                Some(dir.clone()),
                dir.join("csv_cache"),
                Disposition::Persistent,
                false,
            ),
            StorageSpec::Open(dir) => (
                Database::open(dir, pool)?,
                Some(dir.clone()),
                dir.join("csv_cache"),
                Disposition::Persistent,
                true,
            ),
        };
        let scheduler = if self.config.shared_scheduler && self.config.max_threads > 1 {
            Some(Arc::new(MorselScheduler::with_aging(
                self.config.max_threads,
                std::time::Duration::from_millis(self.config.sched_aging_ms),
            )))
        } else {
            None
        };
        let admission = AdmissionController::new(
            self.config.admission_max_concurrent,
            self.config.admission_queue_limit,
        );
        let fault_injector =
            self.config.fault_plan.clone().map(|plan| Arc::new(FaultInjector::new(plan)));
        let metrics = Arc::new(MetricsRegistry::new());
        // One prefetch stage (and one IO-thread pool) per system: the
        // server's sessions all share it, so concurrent queries compete
        // for the same bounded read bandwidth instead of spawning
        // per-session pools.
        let prefetch = (self.config.prefetch_depth > 0).then(|| {
            Arc::new(prefetch::PrefetchStage::new(
                self.config.prefetch_io_threads(),
                self.config.prefetch_depth,
                self.config.prefetch_bytes,
                self.config.io_retry,
                Obs::new(self.config.observability, Arc::clone(&metrics)),
            ))
        });
        let somm = Sommelier {
            db: Arc::new(db),
            config: self.config,
            catalog,
            sources,
            prepared: Mutex::new(None),
            csv_dir,
            db_dir,
            metrics,
            scheduler,
            admission,
            fault_injector,
            prefetch,
            queries_degraded: AtomicU64::new(0),
            latency_ewma_ns: AtomicU64::new(0),
        };
        if opened {
            somm.restore_on_open()?;
        } else {
            for s in &somm.sources {
                for schema in &s.descriptor.schemas {
                    somm.db.create_table(schema.clone(), disposition)?;
                }
            }
        }
        Ok(somm)
    }
}

/// The system façade.
///
/// Thread-safe: [`Sommelier::query`] may be called from any number of
/// threads concurrently — the cellar pins each query's chunk set for
/// the duration of stage 2 and deduplicates concurrent loads of the
/// same chunk (single-flight).
pub struct Sommelier {
    db: Arc<Database>,
    config: SommelierConfig,
    catalog: BindCatalog,
    sources: Vec<SourceRuntime>,
    prepared: Mutex<Option<Prepared>>,
    csv_dir: PathBuf,
    db_dir: Option<PathBuf>,
    /// The system's metrics registry (per instance, not process-global,
    /// so concurrent systems — and concurrent tests — never share
    /// counters). Populated when [`SommelierConfig::observability`] is
    /// at least `Counters`; scraped by [`Sommelier::metrics_snapshot`].
    metrics: Arc<MetricsRegistry>,
    /// The shared morsel scheduler: one persistent pool of
    /// `max_threads` workers serving every in-flight query. `None`
    /// when [`SommelierConfig::shared_scheduler`] is off or
    /// `max_threads <= 1` (each batch then spawns its own scoped pool,
    /// the pre-server behavior).
    scheduler: Option<Arc<MorselScheduler>>,
    /// Admission control for top-level queries (internal DMd
    /// derivation runs under the parent's ticket and skips this —
    /// otherwise a queued parent waiting on its own child would
    /// deadlock).
    admission: AdmissionController,
    /// Deterministic fault injector, threaded into every chunk source
    /// the cellar builds. `None` (the default) means the decode path
    /// is exactly the fault-free hot path.
    fault_injector: Option<Arc<FaultInjector>>,
    /// The raw-byte prefetch stage: a small dedicated IO-thread pool
    /// plus the staging area where fetched-but-not-yet-decoded bytes
    /// wait for their decode worker. One per system, shared by every
    /// session (see [`SommelierConfig::prefetch_depth`]). `None` when
    /// `prefetch_depth == 0` — the decode path is then byte-for-byte
    /// the classic fused fetch+decode.
    prefetch: Option<Arc<prefetch::PrefetchStage>>,
    /// How many queries completed degraded (skipped at least one
    /// unreadable chunk under `SkipUnreadable`).
    queries_degraded: AtomicU64,
    /// EWMA of successful top-level query latency (α = 1/8), in
    /// nanoseconds. Feeds the `retry_after_ms` backpressure hint on
    /// [`SommelierError::Overloaded`]: clients are told to come back
    /// after roughly (queued ahead / concurrency) × observed latency.
    latency_ewma_ns: AtomicU64,
}

/// A compiled query, ready to plan: routed to its source, classified,
/// with the source's inference rules applied. One pipeline feeds
/// [`Sommelier::query`], [`Sommelier::query_approx`],
/// [`Sommelier::query_spec`] and [`Sommelier::explain`].
struct CompiledQuery {
    source_idx: usize,
    qtype: QueryType,
    spec: QuerySpec,
}

impl Sommelier {
    /// Start building a system.
    pub fn builder() -> SommelierBuilder {
        SommelierBuilder {
            config: SommelierConfig::default(),
            adapters: Vec::new(),
            storage: StorageSpec::InMemory,
        }
    }

    /// Restore registries, loading mode, indices and DMd coverage of a
    /// re-opened database.
    fn restore_on_open(&self) -> Result<()> {
        let mut registries = Vec::with_capacity(self.sources.len());
        let zones = self.read_zone_sidecar();
        for s in &self.sources {
            let mut entries = source::restore_registry(&self.db, &s.descriptor)?;
            for e in &mut entries {
                if let Some(z) = zones.get(&e.uri) {
                    e.zones = z.clone();
                }
            }
            registries.push(Arc::new(ChunkRegistry::new(entries)));
        }
        let mode = match self.read_persisted_mode() {
            Some(mode) => mode,
            // Databases written before mode persistence: infer from
            // whether any actual data was materialized.
            None => {
                let mut any_ad = false;
                for s in &self.sources {
                    any_ad |= self.db.table_rows(&s.descriptor.ad_table)? > 0;
                }
                if any_ad {
                    LoadingMode::EagerPlain
                } else {
                    LoadingMode::Lazy
                }
            }
        };
        if mode.builds_indices() {
            // Join indices are not persisted; rebuild them so the
            // restored mode keeps its index-join plans.
            let mut scratch = PrepReport::default();
            for s in &self.sources {
                loader::build_indices(&self.db, &s.descriptor, &mut scratch)?;
            }
        }
        // Rows already materialized in the derived tables are usable
        // again: mark their keys covered so Algorithm 1 does not
        // re-derive them.
        for s in &self.sources {
            if let Some(dmd_spec) = &s.descriptor.dmd {
                dmd::restore_coverage(&self.db, &s.dmd, dmd_spec)?;
            }
        }
        let cellar = self.build_cellar(&registries)?;
        *self.prepared.lock() = Some(Prepared { mode, registries, cellar });
        Ok(())
    }

    /// Persist every registry's zone maps to the sidecar (disk-backed
    /// systems only). One line per (chunk, column):
    /// `uri \t column \t type \t min \t max` — chunk URIs containing
    /// tabs are not supported.
    fn persist_zone_maps(&self, registries: &[Arc<ChunkRegistry>]) -> Result<()> {
        use sommelier_storage::Value;
        let Some(dir) = &self.db_dir else { return Ok(()) };
        let mut out = String::new();
        for registry in registries {
            for e in registry.entries() {
                for z in &e.zones {
                    let (tag, min, max) = match (&z.min, &z.max) {
                        (Value::Int(a), Value::Int(b)) => ('i', a.to_string(), b.to_string()),
                        (Value::Time(a), Value::Time(b)) => {
                            ('t', a.to_string(), b.to_string())
                        }
                        (Value::Float(a), Value::Float(b)) => {
                            ('f', a.to_string(), b.to_string())
                        }
                        // Text or mixed-type zones are not persisted
                        // (none of the built-in adapters produce them).
                        _ => continue,
                    };
                    out.push_str(&format!("{}\t{}\t{tag}\t{min}\t{max}\n", e.uri, z.column));
                }
            }
        }
        write_sidecar_atomic(&dir.join(ZONES_FILE), &out)
    }

    /// Read the zone-map sidecar back, keyed by chunk URI. Missing or
    /// malformed files simply disable pruning (correct, just slower).
    fn read_zone_sidecar(&self) -> std::collections::HashMap<String, Vec<ColumnZone>> {
        use sommelier_storage::Value;
        let mut map: std::collections::HashMap<String, Vec<ColumnZone>> = Default::default();
        let Some(dir) = &self.db_dir else { return map };
        let Some(text) = read_sidecar(&dir.join(ZONES_FILE)) else { return map };
        for line in text.lines() {
            let parts: Vec<&str> = line.split('\t').collect();
            let [uri, column, tag, min, max] = parts.as_slice() else { continue };
            let parse = |s: &str| -> Option<Value> {
                Some(match *tag {
                    "i" => Value::Int(s.parse().ok()?),
                    "t" => Value::Time(s.parse().ok()?),
                    "f" => Value::Float(s.parse().ok()?),
                    _ => return None,
                })
            };
            let (Some(min), Some(max)) = (parse(min), parse(max)) else { continue };
            map.entry(uri.to_string()).or_default().push(ColumnZone {
                column: column.to_string(),
                min,
                max,
            });
        }
        map
    }

    fn read_persisted_mode(&self) -> Option<LoadingMode> {
        let dir = self.db_dir.as_ref()?;
        let text = read_sidecar(&dir.join(MODE_FILE))?;
        LoadingMode::from_label(text.trim())
    }

    fn persist_mode(&self, mode: LoadingMode) -> Result<()> {
        if let Some(dir) = &self.db_dir {
            write_sidecar_atomic(&dir.join(MODE_FILE), mode.label())?;
        }
        Ok(())
    }

    /// Prepare the system with one of the five loading approaches
    /// (§VI-A), returning the phase-timed report (Figure 6's bars).
    /// Every registered source goes through the same mode; phases
    /// accumulate across sources.
    pub fn prepare(&self, mode: LoadingMode) -> Result<PrepReport> {
        let mut report = PrepReport::default();
        let mut registries = Vec::with_capacity(self.sources.len());
        for s in &self.sources {
            let (registry, reg) = registrar::register_source(
                &self.db,
                s.adapter.as_ref(),
                self.config.max_threads,
            )?;
            report.register += reg.duration;
            report.registrar.files += reg.files;
            report.registrar.segments += reg.segments;
            report.registrar.duration += reg.duration;
            registries.push(Arc::new(registry));
        }
        let obs = self.obs();
        obs.count("registrar.chunks_registered", report.registrar.files);
        obs.count("registrar.segments", report.registrar.segments);
        let zones_indexed = registries
            .iter()
            .flat_map(|r| r.entries())
            .filter(|e| !e.zones.is_empty())
            .count();
        obs.count("registrar.zones_indexed", zones_indexed as u64);
        for (s, registry) in self.sources.iter().zip(&registries) {
            match mode {
                LoadingMode::Lazy => {}
                LoadingMode::EagerCsv => {
                    loader::load_eager_csv(
                        &self.db,
                        s.adapter.as_ref(),
                        registry,
                        &self.csv_dir,
                        self.config.max_threads,
                        &mut report,
                    )?;
                }
                LoadingMode::EagerPlain | LoadingMode::EagerIndex | LoadingMode::EagerDmd => {
                    loader::load_eager_plain(
                        &self.db,
                        s.adapter.as_ref(),
                        registry,
                        self.config.max_threads,
                        &mut report,
                    )?;
                }
            }
            if mode.builds_indices() {
                loader::build_indices(&self.db, &s.descriptor, &mut report)?;
            }
        }
        let cellar = self.build_cellar(&registries)?;
        self.persist_zone_maps(&registries)?;
        *self.prepared.lock() = Some(Prepared { mode, registries, cellar });
        if mode.materializes_dmd() {
            let t = Instant::now();
            for s in &self.sources {
                if s.descriptor.dmd.is_some() {
                    dmd::derive_all(&self.db, &s.dmd, &s.descriptor, &|spec| {
                        self.run_spec(spec, false).map(|r| QueryOutcome {
                            relation: r.relation,
                            stats: r.stats,
                            trace: r.trace,
                            skipped: Vec::new(),
                        })
                    })?;
                }
            }
            report.dmd_derivation = t.elapsed();
        }
        self.persist_mode(mode)?;
        Ok(report)
    }

    /// The system's observability handle at the configured level (no
    /// tracer attached — per-query tracers are created by the run
    /// path).
    fn obs(&self) -> Obs {
        Obs::new(self.config.observability, Arc::clone(&self.metrics))
    }

    /// Assemble the cellar for freshly built registries.
    fn build_cellar(&self, registries: &[Arc<ChunkRegistry>]) -> Result<Arc<Cellar>> {
        let obs = self.obs();
        let bindings = self
            .sources
            .iter()
            .zip(registries)
            .map(|(s, registry)| {
                let source = Arc::new(
                    AdapterChunkSource::new(
                        Arc::clone(&s.adapter),
                        Arc::clone(registry),
                        Arc::clone(&self.db),
                        self.config.verify_lazy_fk,
                    )
                    .with_sim_io(self.config.sim_chunk_io)
                    .with_obs(&obs)
                    .with_faults(self.fault_injector.clone())
                    .with_prefetch(self.prefetch.clone()),
                );
                CellarSource {
                    descriptor: Arc::clone(&s.descriptor),
                    registry: Arc::clone(registry),
                    source,
                    dmd: Arc::clone(&s.dmd),
                }
            })
            .collect();
        let cellar = Arc::new(Cellar::new(
            bindings,
            Arc::clone(&self.db),
            CellarConfig {
                budget_bytes: self.config.effective_cellar_bytes(),
                policy: self.config.cellar_policy,
                retain: self.config.use_recycler,
                obs,
                retry: self.config.io_retry,
                prefetch: self.prefetch.clone(),
            },
        )?);
        if let Some(stage) = &self.prefetch {
            // Staged prefetch bytes count against the cellar budget:
            // the stage probes residency before issuing each read, so
            // a near-full (or tiny) cellar degrades prefetch toward
            // depth 0 instead of busting the budget. Weak: the stage
            // outlives any one cellar (prepare() can rebuild it).
            let weak = Arc::downgrade(&cellar);
            stage.bind_budget_probe(move || {
                weak.upgrade()
                    .map(|c| (c.resident_bytes(), c.budget_bytes()))
                    .unwrap_or((0, usize::MAX))
            });
        }
        Ok(cellar)
    }

    fn prepared_info(&self) -> Result<(LoadingMode, Arc<Cellar>, Vec<Arc<ChunkRegistry>>)> {
        let guard = self.prepared.lock();
        let p = guard.as_ref().ok_or_else(|| {
            SommelierError::Usage("call prepare(mode) before querying".into())
        })?;
        Ok((p.mode, Arc::clone(&p.cellar), p.registries.clone()))
    }

    /// Which registered source owns every table `spec` references.
    fn resolve_source(&self, spec: &QuerySpec) -> Result<usize> {
        let Some(first) = spec.tables.first() else {
            return Err(SommelierError::Usage("query references no tables".into()));
        };
        let idx = self
            .sources
            .iter()
            .position(|s| s.descriptor.owns_table(&first.name))
            .ok_or_else(|| {
                SommelierError::Usage(format!(
                    "no registered source owns table {:?}",
                    first.name
                ))
            })?;
        for t in &spec.tables {
            if !self.sources[idx].descriptor.owns_table(&t.name) {
                return Err(SommelierError::Usage(format!(
                    "query spans sources: table {:?} is not owned by source {:?}",
                    t.name, self.sources[idx].descriptor.name
                )));
            }
        }
        Ok(idx)
    }

    /// The single compile pipeline: route to a source, classify, apply
    /// the source's metadata-inference rules.
    fn compile_spec(&self, mut spec: QuerySpec) -> Result<CompiledQuery> {
        let source_idx = self.resolve_source(&spec)?;
        let qtype = query::classify(&spec);
        query::apply_inference_rules(
            &mut spec,
            &self.sources[source_idx].descriptor.inference_rules,
        );
        Ok(CompiledQuery { source_idx, qtype, spec })
    }

    /// Planning is the same in every loading mode: metadata first, with
    /// `Qf` keeping the columns that name the chunks.
    fn plan_options(&self, source_idx: usize) -> PlanOptions {
        let cols = self.sources[source_idx].descriptor.lazy_qf_columns();
        PlanOptions::with_qf_columns(&cols.iter().map(String::as_str).collect::<Vec<_>>())
    }

    fn two_stage_config(&self, mode: LoadingMode, source_idx: usize) -> TwoStageConfig {
        TwoStageConfig {
            parallel: self.config.parallel,
            pushdown: self.config.chunk_pushdown,
            projection_pushdown: self.config.projection_pushdown,
            zone_map_pruning: self.config.zone_map_pruning,
            use_cache: self.config.use_recycler,
            use_index_joins: mode.builds_indices(),
            uri_column: self.sources[source_idx].descriptor.uri_column(),
            max_threads: self.config.max_threads,
            sampling: None,
            obs: Obs::off(),
            scheduler: self.scheduler.clone(),
            priority: Priority::Normal,
            cancel: None,
            degradation: DegradationPolicy::default(),
        }
    }

    /// Execute a bound spec. `check_dmd` runs Algorithm 1 first when the
    /// query refers to derived metadata (internal derivation queries
    /// pass `false`; they are T4-shaped and cannot recurse anyway).
    fn run_spec(&self, spec: QuerySpec, check_dmd: bool) -> Result<QueryResult> {
        self.run_spec_sampled(spec, check_dmd, None)
    }

    fn run_spec_sampled(
        &self,
        spec: QuerySpec,
        check_dmd: bool,
        sampling: Option<f64>,
    ) -> Result<QueryResult> {
        self.run_spec_opts(
            spec,
            check_dmd,
            false,
            &QueryOptions { sampling, ..Default::default() },
        )
    }

    fn run_spec_opts(
        &self,
        spec: QuerySpec,
        check_dmd: bool,
        force_spans: bool,
        opts: &QueryOptions,
    ) -> Result<QueryResult> {
        let t_query = Instant::now();
        let sampling = opts.sampling;
        let (mode, cellar, registries) = self.prepared_info()?;
        // One token serves both explicit cancellation and the timeout.
        let cancel = match (&opts.cancel, opts.timeout) {
            (Some(c), Some(t)) => {
                c.set_deadline(Instant::now() + t);
                Some(c.clone())
            }
            (Some(c), None) => Some(c.clone()),
            (None, Some(t)) => Some(CancelToken::with_timeout(t)),
            (None, None) => None,
        };
        let level = if force_spans { ObsLevel::Spans } else { self.config.observability };
        let mut obs = Obs::new(level, Arc::clone(&self.metrics));
        let tracer = if level.spans() { Some(Arc::new(TraceCollector::new())) } else { None };
        let mut root = None;
        if let Some(tc) = &tracer {
            obs = obs.with_tracer(Arc::clone(tc));
            let id = tc.start(None, "query");
            tc.set_ambient(Some(id));
            root = Some(id);
        }
        // Admission control: top-level queries take a ticket; internal
        // DMd-derivation queries (`check_dmd == false`) run under their
        // parent's ticket — queueing them would deadlock the parent on
        // its own child. The gate keeps new lazy queries out while the
        // cellar sits above its high-water byte mark, but never starves:
        // with nothing running the gate is bypassed.
        let high_water = (self.config.admission_high_water
            * self.config.effective_cellar_bytes() as f64) as usize;
        let t_adm = Instant::now();
        let _ticket = if check_dmd {
            let gate = || {
                // Prefetched-but-unconsumed bytes are cellar memory in
                // waiting: admission sees them, or a deep prefetch
                // window would sneak past the high-water mark.
                let staged = self.prefetch.as_ref().map_or(0, |s| s.staged_bytes());
                mode != LoadingMode::Lazy
                    || cellar.resident_bytes() + staged < high_water.max(1)
            };
            match self.admission.acquire(opts.priority, cancel.as_ref(), &gate) {
                Ok(t) => Some(t),
                Err(AdmissionError::QueueFull { limit }) => {
                    let retry_after_ms = self.overload_retry_after_ms();
                    self.metrics.gauge("admission.retry_after_ms").set(retry_after_ms);
                    return Err(SommelierError::Overloaded {
                        message: format!("admission queue is full ({limit} queued)"),
                        retry_after_ms,
                    });
                }
                Err(AdmissionError::Cancelled { timed_out }) => {
                    return Err(sommelier_engine::EngineError::Cancelled { timed_out }.into())
                }
                Err(AdmissionError::ShuttingDown) => {
                    return Err(SommelierError::ShuttingDown)
                }
            }
        } else {
            None
        };
        if let (Some(tc), true) = (&tracer, _ticket.is_some()) {
            let dur = t_adm.elapsed().as_nanos() as u64;
            tc.record(
                root,
                "queue_wait",
                format!("admitted ({:?} priority)", opts.priority),
                tc.now_ns().saturating_sub(dur),
                dur,
                None,
                None,
                None,
            );
        }
        let t_inf = Instant::now();
        let compiled = self.compile_spec(spec)?;
        if let Some(tc) = &tracer {
            let dur = t_inf.elapsed().as_nanos() as u64;
            tc.record(
                root,
                "inference",
                format!("classified {}", compiled.qtype.label()),
                tc.now_ns().saturating_sub(dur),
                dur,
                None,
                None,
                None,
            );
        }
        let source = &self.sources[compiled.source_idx];
        // DMd-referring queries hold the coverage read guard for their
        // whole execution: between Algorithm 1 declaring a window
        // covered and the plan scanning the derived table, a concurrent
        // eviction must not invalidate (and delete) that window out
        // from under us.
        let _dmd_guard =
            if compiled.qtype.refers_dmd() { Some(source.dmd.begin_query()) } else { None };
        let t_dmd = Instant::now();
        let dmd_outcome = if check_dmd
            && compiled.qtype.refers_dmd()
            && !mode.materializes_dmd()
            && source.descriptor.dmd.is_some()
        {
            Some(dmd::ensure_dmd(
                &self.db,
                &source.dmd,
                &source.descriptor,
                &compiled.spec,
                &|s| {
                    self.run_spec(s, false).map(|r| QueryOutcome {
                        relation: r.relation,
                        stats: r.stats,
                        trace: r.trace,
                        skipped: Vec::new(),
                    })
                },
            )?)
        } else {
            None
        };
        if let (Some(tc), Some(dmd)) = (&tracer, &dmd_outcome) {
            let dur = t_dmd.elapsed().as_nanos() as u64;
            tc.record(
                root,
                "dmd_ensure",
                format!(
                    "{} of {} windows derived, {} rows",
                    dmd.missing, dmd.requested, dmd.rows_inserted
                ),
                tc.now_ns().saturating_sub(dur),
                dur,
                None,
                Some(dmd.rows_inserted),
                None,
            );
        }
        let plan_opts = self.plan_options(compiled.source_idx);
        let t_plan = Instant::now();
        let (plan, mut trace) =
            optimizer::compile_plan(&compiled.spec, &self.db, &plan_opts)?;
        if let Some(tc) = &tracer {
            // Replay the compile pipeline's pass timings as children of
            // one "compile" span (starts accumulated from the recorded
            // per-pass nanos, like the stage-2 replay in the driver).
            let total = t_plan.elapsed().as_nanos() as u64;
            let start = tc.now_ns().saturating_sub(total);
            let id = tc.record(
                root,
                "compile",
                format!("{} passes", trace.len()),
                start,
                total,
                None,
                None,
                None,
            );
            let mut cursor = start;
            for p in &trace {
                tc.record(
                    Some(id),
                    p.name,
                    p.detail.clone(),
                    cursor,
                    p.nanos,
                    None,
                    None,
                    None,
                );
                cursor += p.nanos;
            }
        }
        let mut ts_config = self.two_stage_config(mode, compiled.source_idx);
        ts_config.sampling = sampling;
        ts_config.obs = obs;
        ts_config.priority = opts.priority;
        ts_config.cancel = cancel;
        ts_config.degradation = opts.degradation;
        // Lazy mode decodes chunks through the cellar; eager modes read
        // the same chunks' rows of the loaded actual-data table.
        let (scoped, loaded);
        let residency: &dyn ChunkResidency = if mode.is_eager() {
            loaded = LoadedChunks::new(
                &self.db,
                &registries[compiled.source_idx],
                &source.descriptor,
                self.obs(),
            )?;
            &loaded
        } else {
            scoped = cellar.scoped(compiled.source_idx);
            &scoped
        };
        let evictions_before = cellar.stats().evictions;
        let outcome =
            execute_plan(&self.db, &plan, ChunkAccess::Managed(residency), &ts_config)?;
        trace.extend(outcome.trace);
        let mut stats = outcome.stats;
        // Fold the residency manager's eviction activity into the
        // query's stats (best-effort under concurrency: evictions
        // triggered by overlapping queries land in whichever window
        // observes them).
        stats.cellar_evictions = cellar.stats().evictions.saturating_sub(evictions_before);
        let span_trace = tracer.map(|tc| {
            if let Some(id) = root {
                tc.end_with(
                    id,
                    Some(format!("{} rows", outcome.relation.rows())),
                    Some(outcome.relation.rows() as u64),
                    None,
                );
            }
            tc.set_ambient(None);
            tc.finish()
        });
        let degraded = if outcome.skipped.is_empty() {
            None
        } else {
            self.queries_degraded.fetch_add(1, Ordering::Relaxed);
            Some(DegradedReport {
                skipped_chunks: outcome.skipped.iter().map(|s| s.uri.clone()).collect(),
                reasons: outcome.skipped.iter().map(|s| s.reason.clone()).collect(),
            })
        };
        if check_dmd {
            self.note_query_latency(t_query.elapsed());
        }
        Ok(QueryResult {
            relation: outcome.relation,
            stats,
            qtype: compiled.qtype,
            dmd: dmd_outcome,
            trace,
            span_trace,
            degraded,
        })
    }

    /// Fold one successful top-level query latency into the EWMA
    /// (α = 1/8) that backs the overload retry-after hint.
    fn note_query_latency(&self, elapsed: std::time::Duration) {
        let sample = elapsed.as_nanos() as u64;
        let _ =
            self.latency_ewma_ns.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 { sample } else { cur - cur / 8 + sample / 8 })
            });
    }

    /// The backpressure hint attached to [`SommelierError::Overloaded`]:
    /// roughly how long until a queue slot frees up, computed as
    /// (queued ahead / concurrency + 1) × observed query latency,
    /// clamped to [10ms, 10s] so the hint is always actionable even
    /// before any latency samples exist.
    fn overload_retry_after_ms(&self) -> u64 {
        let st = self.admission.stats();
        let ewma_ms = (self.latency_ewma_ns.load(Ordering::Relaxed) / 1_000_000).max(1);
        let rounds = st.queue_depth / self.config.admission_max_concurrent.max(1) as u64 + 1;
        (rounds * ewma_ms).clamp(10, 10_000)
    }

    /// Compile and run a SQL query.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_opts(sql, &QueryOptions::default())
    }

    /// Compile and run a SQL query with per-query [`QueryOptions`]:
    /// priority, cancellation, timeout, sampling. This is the entry
    /// point the `sommelier-server` session API builds on.
    ///
    /// Panic isolation backstop: morsel panics are normally caught at
    /// the retry/scheduler seams and arrive here as typed errors, but
    /// a panic anywhere else in the query pipeline (binder, optimizer,
    /// operator code outside a batch) is caught too — either way the
    /// caller sees [`SommelierError::QueryPanicked`] naming this query,
    /// and the process (and every other in-flight query) lives on.
    pub fn query_opts(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        if let Some(f) = opts.sampling {
            if !(0.0..=1.0).contains(&f) || f == 0.0 {
                return Err(SommelierError::Usage(format!(
                    "sampling fraction must be in (0, 1], got {f}"
                )));
            }
        }
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let spec = sommelier_sql::compile(sql, &self.catalog)?;
            self.run_spec_opts(spec, true, false, opts)
        }));
        let payload = match run {
            Ok(Err(SommelierError::Engine(sommelier_engine::EngineError::Panicked {
                payload,
            }))) => payload,
            Ok(other) => return other,
            Err(p) => sommelier_engine::sched::panic_message(p.as_ref()),
        };
        self.metrics.counter("query.panicked").add(1);
        Err(SommelierError::QueryPanicked { query: sql.to_string(), payload })
    }

    /// Flip admission into drain mode: every not-yet-admitted query —
    /// including waiters already queued — fails with
    /// [`SommelierError::ShuttingDown`] from now on, while
    /// already-running queries drain normally. Irreversible; the
    /// server layer builds its deadline-bounded
    /// `Server::shutdown` on top of this.
    pub fn begin_shutdown(&self) {
        self.admission.begin_shutdown();
    }

    /// The shared morsel scheduler, when the system runs one
    /// (see [`SommelierConfig::shared_scheduler`]).
    pub fn scheduler(&self) -> Option<&Arc<MorselScheduler>> {
        self.scheduler.as_ref()
    }

    /// Admission-control counters (also mirrored into
    /// [`Sommelier::metrics_snapshot`] as the `admission.*` family).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Compile and run a SQL query *approximately* (the paper's §VIII
    /// future-work sketch): only `fraction` of the selected chunks are
    /// read (deterministic sample) — decoded in lazy mode, read from
    /// the loaded table in eager modes. Aggregates like
    /// `AVG`/`MIN`/`MAX` are estimated from the sample; `COUNT` and
    /// `SUM` scale down with the fraction.
    pub fn query_approx(&self, sql: &str, fraction: f64) -> Result<QueryResult> {
        if !(0.0..=1.0).contains(&fraction) || fraction == 0.0 {
            return Err(SommelierError::Usage(format!(
                "sampling fraction must be in (0, 1], got {fraction}"
            )));
        }
        let spec = sommelier_sql::compile(sql, &self.catalog)?;
        self.run_spec_sampled(spec, true, Some(fraction))
    }

    /// Run an already-bound spec (programmatic clients, benches).
    pub fn query_spec(&self, spec: QuerySpec) -> Result<QueryResult> {
        self.run_spec(spec, true)
    }

    /// The plan a query would run, as text (EXPLAIN): the logical plan,
    /// the stage-2 physical shape — which shows whether selection
    /// pushdown, projection pushdown and partial-aggregation fusion
    /// (`PartialAggUnion`) fire — and the optimizer pass trace. Uses
    /// the same pass pipelines as execution; only the chunk list (a
    /// run-time quantity) is a placeholder, so run-time-only effects
    /// (chunks pruned by zone maps) show as the pass being armed.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let t = sql.trim_start();
        if t.len() > 7
            && t[..7].eq_ignore_ascii_case("ANALYZE")
            && t.as_bytes()[7].is_ascii_whitespace()
        {
            return self.explain_analyze(&t[7..]);
        }
        let (mode, _, _) = self.prepared_info()?;
        let spec = sommelier_sql::compile(sql, &self.catalog)?;
        let compiled = self.compile_spec(spec)?;
        let opts = self.plan_options(compiled.source_idx);
        let (plan, compile_trace) = optimizer::compile_plan(&compiled.spec, &self.db, &opts)?;
        let s2_opts = optimizer::Stage2Options {
            use_index_joins: mode.builds_indices(),
            pushdown: self.config.chunk_pushdown,
            projection_pushdown: self.config.projection_pushdown,
            zone_map_pruning: self.config.zone_map_pruning,
        };
        let chunks = if plan.has_lazy_scan() { Some(Vec::new()) } else { None };
        let s2 = optimizer::rewrite_stage2(
            &plan,
            &self.db,
            chunks,
            None,
            None,
            plan.qf().map(|_| 0),
            &s2_opts,
        )?;
        // Stage-2 trace, annotated: the zone-index candidate count is a
        // stage-1 quantity the registry can answer statically, so
        // EXPLAIN shows it next to the pruning pass it feeds.
        let zone_note = self.zone_candidate_note(&plan, compiled.source_idx);
        let mut s2_lines = String::new();
        for p in &s2.trace {
            s2_lines.push_str("  ");
            s2_lines.push_str(&p.to_string());
            if p.name == "zone_map_pruning" {
                if let Some(note) = &zone_note {
                    s2_lines.push_str(" [");
                    s2_lines.push_str(note);
                    s2_lines.push(']');
                }
            }
            s2_lines.push('\n');
        }
        Ok(format!(
            "-- source: {}, mode: {mode}, query type: {}\n{plan}\
             -- stage-2 physical shape (chunk list resolved at run time)\n{}\
             -- optimizer passes\n{}{}",
            self.sources[compiled.source_idx].descriptor.name,
            compiled.qtype.label(),
            s2.physical,
            optimizer::format_trace(&compile_trace),
            s2_lines,
        ))
    }

    /// What the zone interval index answers for `plan`'s pushed-down
    /// predicate: how many registered chunks remain candidates.
    fn zone_candidate_note(&self, plan: &LogicalPlan, source_idx: usize) -> Option<String> {
        let constraints =
            optimizer::plan_zone_constraints(plan).into_iter().find(|c| !c.is_empty())?;
        let registry = {
            let guard = self.prepared.lock();
            Arc::clone(&guard.as_ref()?.registries[source_idx])
        };
        let total = registry.len();
        let k = match registry.zone_candidates(&constraints)? {
            ZoneCandidates::All => total,
            ZoneCandidates::Uris(uris) => uris.len(),
        };
        Some(format!("zone index: {k} of {total} chunks candidate"))
    }

    /// EXPLAIN ANALYZE: run the query once with span tracing forced on
    /// (whatever [`SommelierConfig::observability`] says) and render
    /// the plan next to the measured span tree, the per-pass optimizer
    /// timings, and the stage/chunk accounting. Also reachable as
    /// `explain("ANALYZE <sql>")`.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let (mode, _, _) = self.prepared_info()?;
        let spec = sommelier_sql::compile(sql, &self.catalog)?;
        let compiled = self.compile_spec(spec.clone())?;
        let opts = self.plan_options(compiled.source_idx);
        let (plan, _) = optimizer::compile_plan(&compiled.spec, &self.db, &opts)?;
        let result = self.run_spec_opts(spec, true, true, &QueryOptions::default())?;
        let stats = &result.stats;
        let mut out = format!(
            "-- source: {}, mode: {mode}, query type: {}\n{plan}-- spans\n{}",
            self.sources[compiled.source_idx].descriptor.name,
            compiled.qtype.label(),
            result.span_trace.as_ref().map(|t| t.render_tree()).unwrap_or_default(),
        );
        out.push_str("-- optimizer passes\n");
        for p in &result.trace {
            out.push_str(&format!("  {p} [{}]\n", fmt_ns(p.nanos)));
        }
        out.push_str(&format!(
            "-- stages: stage1 {} + load {} + stage2 {} = {}\n",
            fmt_ns(stats.stage1.as_nanos() as u64),
            fmt_ns(stats.load.as_nanos() as u64),
            fmt_ns(stats.stage2.as_nanos() as u64),
            fmt_ns(stats.total().as_nanos() as u64),
        ));
        out.push_str(&format!(
            "-- chunks: {} selected = {} pruned + {} sampled out + {} loaded + {} cache hits \
             + {} skipped; {} rows out\n",
            stats.files_selected,
            stats.files_pruned,
            stats.files_sampled_out,
            stats.files_loaded,
            stats.cache_hits,
            stats.files_skipped,
            result.relation.rows(),
        ));
        if let Some(d) = &result.degraded {
            out.push_str(&format!(
                "-- DEGRADED: skipped {} unreadable chunk(s): {}\n",
                d.skipped_chunks.len(),
                d.skipped_chunks.join(", "),
            ));
        }
        Ok(out)
    }

    /// The instance's metrics registry (live handles; one registry per
    /// [`Sommelier`], so concurrent instances do not share counters).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Snapshot every metric by name. Subsystems that keep their own
    /// atomics for zero-overhead accounting (cellar stats, the decode
    /// scratch arenas) are mirrored into the registry here, at
    /// snapshot time — so the snapshot is complete at every
    /// [`ObsLevel`], including `Off`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if let Some(cellar) = self.cellar() {
            let s = cellar.stats();
            let m = &self.metrics;
            m.counter("cellar.hits").store(s.hits);
            m.counter("cellar.loads").store(s.loads);
            m.counter("cellar.joins").store(s.joins);
            m.counter("cellar.reloads").store(s.reloads);
            m.counter("cellar.evictions").store(s.evictions);
            m.counter("cellar.reclaimed_rows").store(s.reclaimed_rows);
            m.counter("cellar.reclaim_failures").store(s.reclaim_failures);
            m.counter("cellar.pin_wait_ns").store(s.pin_wait_ns);
            m.gauge("cellar.resident_bytes").set(cellar.resident_bytes() as u64);
            m.gauge("cellar.peak_resident_bytes").set(cellar.peak_resident_bytes() as u64);
            m.gauge("cellar.resident_chunks").set(cellar.resident_chunks() as u64);
        }
        let (reuse, alloc) = source::scratch_counters();
        self.metrics.counter("decode.arena_reuse").store(reuse);
        self.metrics.counter("decode.arena_alloc").store(alloc);
        if let Some(s) = &self.scheduler {
            let st = s.stats();
            self.metrics.gauge("sched.workers").set(st.workers as u64);
            self.metrics.gauge("sched.queue_depth").set(st.queue_depth as u64);
            self.metrics.counter("sched.batches").store(st.batches);
            self.metrics.counter("sched.tasks").store(st.tasks);
            self.metrics.counter("sched.busy_ns").store(st.busy_ns);
            self.metrics.counter("sched.panics").store(st.panics);
        }
        let a = self.admission.stats();
        self.metrics.counter("admission.admitted").store(a.admitted);
        self.metrics.counter("admission.rejected").store(a.rejected);
        self.metrics.counter("admission.cancelled").store(a.cancelled);
        self.metrics.counter("admission.timeouts").store(a.timeouts);
        self.metrics.counter("admission.queue_wait_ns").store(a.queue_wait_ns);
        self.metrics.gauge("admission.running").set(a.running);
        self.metrics.gauge("admission.queue_depth").set(a.queue_depth);
        // `fault.io_retries` is process-global (like the decode arena
        // counters); the rest are per instance.
        self.metrics.counter("fault.io_retries").store(fault::io_retries());
        self.metrics
            .counter("fault.faults_injected")
            .store(self.fault_injector.as_ref().map_or(0, |f| f.injected().errors()));
        let quarantined: usize = self
            .prepared
            .lock()
            .as_ref()
            .map_or(0, |p| p.registries.iter().map(|r| r.quarantined_count()).sum());
        self.metrics.counter("fault.chunks_quarantined").store(quarantined as u64);
        self.metrics
            .counter("fault.queries_degraded")
            .store(self.queries_degraded.load(Ordering::Relaxed));
        if let Some(stage) = &self.prefetch {
            let (issued, hits, wasted, io_wait) = stage.stats();
            self.metrics.counter("prefetch.issued").store(issued);
            self.metrics.counter("prefetch.hits").store(hits);
            self.metrics.counter("prefetch.wasted_bytes").store(wasted);
            self.metrics.counter("prefetch.io_wait_ns").store(io_wait);
            self.metrics.gauge("prefetch.staged_bytes").set(stage.staged_bytes() as u64);
        }
        self.metrics.snapshot()
    }

    /// The raw-byte prefetch stage, when enabled (`prefetch_depth > 0`).
    pub fn prefetch_stage(&self) -> Option<&Arc<prefetch::PrefetchStage>> {
        self.prefetch.as_ref()
    }

    /// Drop buffered pages and cached chunks ("cold" run).
    pub fn flush_caches(&self) {
        self.db.flush_caches();
        if let Some(p) = self.prepared.lock().as_ref() {
            p.cellar.clear();
        }
    }

    /// Forget all derived metadata: truncate every source's derived
    /// table and reset the PSm bookkeeping. Benchmarks use this to
    /// measure DMd-deriving query types from a pristine state.
    pub fn reset_dmd(&self) -> Result<()> {
        for s in &self.sources {
            if let Some(dmd_spec) = &s.descriptor.dmd {
                self.db.truncate_table(&dmd_spec.table)?;
                s.dmd.clear();
            }
        }
        Ok(())
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The chunk residency manager, once prepared.
    pub fn cellar(&self) -> Option<Arc<Cellar>> {
        self.prepared.lock().as_ref().map(|p| Arc::clone(&p.cellar))
    }

    /// Injected-fault counters, when fault injection is configured
    /// ([`SommelierConfig::fault_plan`]).
    pub fn fault_counts(&self) -> Option<FaultCounts> {
        self.fault_injector.as_ref().map(|f| f.injected())
    }

    /// Every quarantined chunk as `(uri, reason)`, across sources.
    /// Quarantined chunks are excluded from stage 1's chunk selection
    /// until the system is re-prepared.
    pub fn quarantined_chunks(&self) -> Vec<(String, String)> {
        self.prepared.lock().as_ref().map_or_else(Vec::new, |p| {
            p.registries
                .iter()
                .flat_map(|r| {
                    r.entries()
                        .iter()
                        .filter_map(|e| r.quarantined(&e.uri).map(|why| (e.uri.clone(), why)))
                        .collect::<Vec<_>>()
                })
                .collect()
        })
    }

    /// The DMd bookkeeping of the first source with derived metadata
    /// (the common single-source case; multi-source systems use
    /// [`Sommelier::dmd_manager_of`]).
    pub fn dmd_manager(&self) -> &DmdManager {
        self.sources
            .iter()
            .find(|s| s.descriptor.dmd.is_some())
            .map(|s| s.dmd.as_ref())
            .unwrap_or_else(|| self.sources[0].dmd.as_ref())
    }

    /// The DMd bookkeeping of a source by name.
    pub fn dmd_manager_of(&self, source: &str) -> Option<&DmdManager> {
        self.sources.iter().find(|s| s.descriptor.name == source).map(|s| s.dmd.as_ref())
    }

    /// Names of the registered sources, in registration order.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.descriptor.name.as_str()).collect()
    }

    /// The active loading mode, if prepared.
    pub fn mode(&self) -> Option<LoadingMode> {
        self.prepared.lock().as_ref().map(|p| p.mode)
    }

    /// Number of registered chunks, across all sources.
    pub fn registered_chunks(&self) -> usize {
        self.prepared
            .lock()
            .as_ref()
            .map_or(0, |p| p.registries.iter().map(|r| r.len()).sum())
    }

    /// Bytes of the source repositories (Table III's raw-format column).
    pub fn source_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for s in &self.sources {
            total += s.adapter.source_bytes()?;
        }
        Ok(total)
    }

    /// Bytes of database storage (Table III "MonetDB").
    pub fn db_bytes(&self) -> u64 {
        self.db.disk_bytes()
    }

    /// Bytes of metadata tables only (Table III "Lazy").
    pub fn metadata_bytes(&self) -> u64 {
        self.db.metadata_bytes()
    }

    /// Bytes of index structures (Table III "+keys" delta).
    pub fn index_bytes(&self) -> u64 {
        self.db.index_bytes()
    }
}

impl std::fmt::Debug for Sommelier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sommelier")
            .field("sources", &self.source_names())
            .field("mode", &self.mode().map(|m| m.label()))
            .field("chunks", &self.registered_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapters::{generate_event_logs, EventLogAdapter, EventLogSpec};
    use sommelier_storage::Value;
    use std::path::PathBuf;

    fn temp_repo(tag: &str, days: u32, events: u32) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "somm-core-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        generate_event_logs(&dir, &EventLogSpec::small(days, events)).unwrap();
        dir
    }

    fn system(repo: &Path) -> Sommelier {
        Sommelier::builder().source(EventLogAdapter::new(repo)).build().unwrap()
    }

    fn query1(from: &str, to: &str) -> String {
        format!(
            "SELECT AVG(E.val) FROM eventview \
             WHERE G.host = 'web-1' AND G.service = 'api' \
             AND E.ts >= '{from}' AND E.ts < '{to}'"
        )
    }

    #[test]
    fn unprepared_query_fails() {
        let repo = temp_repo("unprepared", 1, 8);
        let somm = system(&repo);
        assert!(matches!(
            somm.query("SELECT COUNT(*) FROM G"),
            Err(SommelierError::Usage(_))
        ));
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn builder_requires_a_source() {
        assert!(matches!(Sommelier::builder().build(), Err(SommelierError::Usage(_))));
    }

    #[test]
    fn sidecar_roundtrip_detects_corruption_accepts_legacy() {
        let dir = std::env::temp_dir().join(format!(
            "somm-sidecar-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.sidecar");
        write_sidecar_atomic(&p, "hello\nworld\n").unwrap();
        assert_eq!(read_sidecar(&p).as_deref(), Some("hello\nworld\n"));
        assert!(!p.with_extension("tmp").exists(), "tmp is renamed away");
        // A torn / bit-rotted payload is detected and treated as missing.
        let rotted = std::fs::read_to_string(&p).unwrap().replace("world", "w0rld");
        std::fs::write(&p, rotted).unwrap();
        assert_eq!(read_sidecar(&p), None);
        // Sidecars from versions before checksumming are accepted as-is.
        std::fs::write(&p, "legacy\n").unwrap();
        assert_eq!(read_sidecar(&p).as_deref(), Some("legacy\n"));
        assert_eq!(read_sidecar(&dir.join("absent")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_sources_rejected() {
        let repo = temp_repo("dup", 1, 8);
        let result = Sommelier::builder()
            .source(EventLogAdapter::new(&repo))
            .source(EventLogAdapter::new(&repo))
            .build();
        assert!(matches!(result, Err(SommelierError::Usage(_))));
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn lazy_t4_loads_only_matching_chunks() {
        let repo = temp_repo("lazy-t4", 4, 32);
        let somm = system(&repo);
        let report = somm.prepare(LoadingMode::Lazy).unwrap();
        assert_eq!(report.rows_loaded, 0, "lazy loads no actual data up front");
        assert_eq!(somm.db().table_rows("E").unwrap(), 0);
        let r = somm
            .query(&query1("2011-03-02T00:00:00.000", "2011-03-04T00:00:00.000"))
            .unwrap();
        assert_eq!(r.qtype, QueryType::T4);
        assert_eq!(r.stats.files_selected, 2, "two days of one host");
        assert_eq!(r.stats.files_loaded, 2);
        assert_eq!(r.relation.rows(), 1);
        // Second run: residency hits, nothing loaded.
        let r2 = somm
            .query(&query1("2011-03-02T00:00:00.000", "2011-03-04T00:00:00.000"))
            .unwrap();
        assert_eq!(r2.stats.cache_hits, 2);
        assert_eq!(r2.stats.files_loaded, 0);
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn lazy_matches_eager_answers() {
        let sql = query1("2011-03-01T06:00:00.000", "2011-03-02T12:00:00.000");
        let repo = temp_repo("consistency-a", 3, 32);
        let lazy = system(&repo);
        lazy.prepare(LoadingMode::Lazy).unwrap();
        let lazy_avg = lazy.query(&sql).unwrap().relation.value(0, "avg").unwrap();

        let repo_b = temp_repo("consistency-b", 3, 32);
        let eager = system(&repo_b);
        eager.prepare(LoadingMode::EagerIndex).unwrap();
        let eager_avg = eager.query(&sql).unwrap().relation.value(0, "avg").unwrap();
        match (lazy_avg, eager_avg) {
            (Value::Float(a), Value::Float(b)) => {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}")
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&repo);
        let _ = std::fs::remove_dir_all(&repo_b);
    }

    #[test]
    fn t2_triggers_incremental_derivation() {
        let repo = temp_repo("t2", 3, 32);
        let somm = system(&repo);
        somm.prepare(LoadingMode::Lazy).unwrap();
        let sql = "SELECT day_start_ts, day_max_val FROM Y \
                   WHERE day_host = 'web-1' AND day_service = 'api' \
                   AND day_start_ts >= '2011-03-01T00:00:00.000' \
                   AND day_start_ts < '2011-03-03T00:00:00.000'";
        let r = somm.query(sql).unwrap();
        assert_eq!(r.qtype, QueryType::T2);
        let dmd = r.dmd.expect("algorithm 1 ran");
        assert_eq!(dmd.requested, 2);
        assert_eq!(dmd.missing, 2);
        assert!(dmd.rows_inserted > 0);
        assert!(r.relation.rows() > 0);
        // Second time: fully covered.
        let r2 = somm.query(sql).unwrap();
        assert_eq!(r2.dmd.unwrap().missing, 0);
        assert_eq!(r2.relation.rows(), r.relation.rows());
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn eager_dmd_skips_algorithm_1() {
        let repo = temp_repo("edmd", 2, 16);
        let somm = system(&repo);
        let report = somm.prepare(LoadingMode::EagerDmd).unwrap();
        assert!(report.dmd_derivation > std::time::Duration::ZERO);
        assert!(somm.db().table_rows("Y").unwrap() > 0);
        let r = somm
            .query(
                "SELECT day_max_val FROM Y WHERE day_host = 'web-1' \
                 AND day_start_ts < '2011-03-02T00:00:00.000'",
            )
            .unwrap();
        assert!(r.dmd.is_none(), "eager_dmd answers straight from Y");
        assert!(r.relation.rows() > 0);
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn explain_shows_two_stage_shape() {
        let repo = temp_repo("explain", 1, 8);
        let somm = system(&repo);
        somm.prepare(LoadingMode::Lazy).unwrap();
        let plan =
            somm.explain("SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'").unwrap();
        assert!(plan.contains("QfMark"), "{plan}");
        assert!(plan.contains("LazyScan E"), "{plan}");
        assert!(plan.contains("mode: lazy"), "{plan}");
        assert!(plan.contains("source: eventlog"), "{plan}");
        // The physical section shows the partial-aggregation fusion.
        assert!(plan.contains("PartialAggUnion E"), "{plan}");
        assert!(plan.contains("per-chunk probe"), "{plan}");
        assert!(plan.contains("ResultScan #0"), "{plan}");
    }

    #[test]
    fn explain_without_pushdown_keeps_chunk_union() {
        let repo = temp_repo("explain-nopd", 1, 8);
        let somm = Sommelier::builder()
            .source(EventLogAdapter::new(&repo))
            .config(SommelierConfig { chunk_pushdown: false, ..SommelierConfig::default() })
            .build()
            .unwrap();
        somm.prepare(LoadingMode::Lazy).unwrap();
        let plan =
            somm.explain("SELECT AVG(E.val) FROM eventview WHERE G.host = 'web-1'").unwrap();
        assert!(plan.contains("ChunkUnion E"), "{plan}");
        assert!(!plan.contains("PartialAggUnion"), "{plan}");
        let _ = std::fs::remove_dir_all(&repo);
    }
}
