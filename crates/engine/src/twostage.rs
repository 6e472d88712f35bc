//! The two-stage execution driver (§III "Run-time Query Optimization"
//! and §V "Run-time Optimizer").
//!
//! Given a decomposed plan `Q = Qf ▷ Qs`:
//!
//! 1. **Stage 1** executes the metadata branch `Qf` and materializes its
//!    result (the *result-scan* source).
//! 2. **Run-time rewrite**: the distinct chunk URIs in `Qf`'s result
//!    determine the chunk list; every [`crate::logical::LogicalPlan::LazyScan`]
//!    is rewritten into a union of *cache-scan* (chunk already resident)
//!    and *chunk-access* (ingest now) entries — rewrite rule (1), with
//!    optional selection pushdown into the accesses. Aggregates over the
//!    rewritten scan additionally fuse into a
//!    [`crate::physical::PhysicalPlan::PartialAggUnion`]
//!    ([`crate::physical::fuse_partial_agg`]).
//! 3. Required chunks are ingested — in parallel. [`ParallelMode::Static`]
//!    reproduces the paper's static strategy (work is pre-partitioned
//!    per chunk, so few/skewed chunks underutilize cores; §V discusses
//!    this drawback); [`ParallelMode::Exchange`] implements the
//!    exchange-operator fix the paper leaves as future work (decode
//!    units are dynamically pulled from a shared queue).
//! 4. **Stage 2** executes the remainder `Qs` against the result-scan
//!    and the loaded chunks.
//!
//! When the chunks come from a residency manager and the stage-2 plan
//! fused into a single partial-aggregate pipeline, steps 3 and 4
//! overlap: each chunk is handed to its pipeline the moment its decode
//! finishes ([`ChunkResidency::acquire_each`]), its partial state is
//! merged, and its pin is released — so a query's working set never
//! needs to be resident all at once, and decode and execution share the
//! same worker pool.

use crate::agg::{merge_partials, partial_aggregate, PartialAgg};
use crate::error::ErrorKind;
use crate::error::{EngineError, Result};
use crate::exec::{execute, run_indexed_policy, ChunkPipeline, ExecContext};
use crate::logical::LogicalPlan;
use crate::obs::{self, span::fmt_ns, Obs, TraceCollector};
use crate::optimizer::{
    self, ColumnZone, PassTrace, Stage2Options, ZoneCandidates, ZoneConstraint,
};
use crate::physical::{lower, ChunkRef, LowerOptions, PhysicalPlan};
use crate::recycler::Recycler;
use crate::relation::Relation;
use crate::sched::{CancelToken, DegradationPolicy, MorselScheduler, Priority, SchedPolicy};
use parking_lot::Mutex;
use sommelier_storage::{ColumnData, Database};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deferred decode unit (e.g. one segment of a chunk file). The
/// lifetime ties the unit to the source that produced it, so default
/// implementations can defer through `self` instead of decoding
/// eagerly; callers run units on scoped worker pools.
pub type ChunkUnit<'a> = Box<dyn FnOnce() -> Result<Relation> + Send + 'a>;

/// Where lazily loaded chunk data comes from. Implemented by the core
/// crate over the registered source adapters; the engine only sees
/// relations.
pub trait ChunkSource: Send + Sync {
    /// Ingest one chunk as a relation in the actual-data table's schema
    /// (qualified column names, e.g. `D.sample_time`). With a
    /// `projection`, only the named columns need to be materialized
    /// (the `projection_pushdown` pass guarantees the query references
    /// nothing else).
    fn load_chunk(&self, uri: &str, projection: Option<&[String]>) -> Result<Relation>;

    /// Split one chunk into independent decode units for exchange-style
    /// parallelism. The default is a single unit covering the whole
    /// chunk, deferred until a worker runs it (units borrow `self`, so
    /// nothing decodes in the caller's thread).
    fn chunk_units<'s>(
        &'s self,
        uri: &str,
        projection: Option<&[String]>,
    ) -> Result<Vec<ChunkUnit<'s>>> {
        let uri = uri.to_string();
        let projection = projection.map(<[String]>::to_vec);
        Ok(vec![Box::new(move || self.load_chunk(&uri, projection.as_deref()))])
    }

    /// Every chunk in the repository (pure actual-data queries must load
    /// everything — the paper's "no alternative" case).
    fn all_chunks(&self) -> Result<Vec<String>>;

    /// The recorded zone maps of one chunk, if any (drives the
    /// `zone_map_pruning` pass). `None` = no zone maps; the chunk is
    /// never pruned.
    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        let _ = uri;
        None
    }

    /// Indexed stage-1 candidate selection: which registered chunks may
    /// satisfy the given constraints, answered by a sorted interval
    /// index over the registry's zone maps in O(log n + hits). `None` =
    /// no index (the pruning pass falls back to per-chunk zone checks).
    fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        let _ = constraints;
        None
    }
}

/// One chunk handed out by a [`ChunkResidency`] manager: the loaded
/// relation plus how the acquisition was satisfied.
#[derive(Debug)]
pub struct AcquiredChunk {
    /// The chunk's rows (pinned in the manager until released).
    pub relation: Arc<Relation>,
    /// True if this acquisition decoded the chunk (a residency miss);
    /// false if the chunk was already resident or an in-flight load by
    /// another thread was joined.
    pub loaded: bool,
    /// True if the acquisition waited on another thread's in-flight
    /// load of the same chunk (single-flight dedup).
    pub joined: bool,
    /// Time this acquisition spent decoding the chunk (zero for hits
    /// and joins — the decode happened elsewhere).
    pub decode: Duration,
    /// Time this acquisition spent blocked on another thread's
    /// in-flight load (zero unless `joined`).
    pub pin_wait: Duration,
    /// `Some(reason)` when the chunk could not be read and the query
    /// runs under [`DegradationPolicy::SkipUnreadable`]: `relation` is
    /// then an empty placeholder in the table's schema, so downstream
    /// unions and pipelines stay aligned with the chunk list.
    pub skipped: Option<String>,
}

impl AcquiredChunk {
    /// A hit/miss/join without timing detail (managers that do not
    /// measure decode cost).
    pub fn untimed(relation: Arc<Relation>, loaded: bool, joined: bool) -> Self {
        AcquiredChunk {
            relation,
            loaded,
            joined,
            decode: Duration::ZERO,
            pin_wait: Duration::ZERO,
            skipped: None,
        }
    }

    /// An unreadable chunk replaced by an empty placeholder relation
    /// (skip-mode degradation).
    pub fn skipped(placeholder: Arc<Relation>, reason: impl Into<String>) -> Self {
        AcquiredChunk {
            relation: placeholder,
            loaded: false,
            joined: false,
            decode: Duration::ZERO,
            pin_wait: Duration::ZERO,
            skipped: Some(reason.into()),
        }
    }
}

/// One chunk a degraded ([`DegradationPolicy::SkipUnreadable`]) query
/// completed *without*: the URI and why it was unreadable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedChunk {
    /// URI of the unreadable chunk.
    pub uri: String,
    /// Why it could not be read (quarantine reason or load error).
    pub reason: String,
}

/// Per-chunk delivery callback for [`ChunkResidency::acquire_each`]:
/// `(index into the uris slice, acquired chunk)`. May be called
/// concurrently from several threads.
pub type ChunkSink<'a> = dyn Fn(usize, AcquiredChunk) -> Result<()> + Sync + 'a;

/// A handle over one query's in-flight raw-byte prefetch (see
/// [`ChunkResidency::prefetch`]). The driver must call
/// [`Self::finish`] when the chunk wave ends — on every path, success
/// or failure — so the manager can release staged-but-unconsumed
/// bytes; dropping a driver-side guard is the idiomatic way.
pub trait PrefetchHandle: Send {
    /// How many raw-byte fetches were issued so far (observability).
    fn submitted(&self) -> usize;

    /// Stop issuing and release every staged-but-unconsumed buffer.
    /// Idempotent.
    fn finish(&self);
}

/// A chunk-granularity residency manager (the core crate's *cellar*).
///
/// Unlike the raw [`ChunkSource`] + [`Recycler`] pair, a residency
/// manager owns the loaded/not-loaded state: acquisitions *pin* chunks
/// so they cannot be evicted mid-query, concurrent acquisitions of the
/// same chunk are deduplicated to a single decode (single-flight), and
/// releasing the pins lets the manager enforce its byte budget.
pub trait ChunkResidency: Send + Sync {
    /// Is the chunk resident right now? (Advisory — used to label
    /// cache-scan vs chunk-access in plans; [`Self::acquire_many`] is
    /// authoritative.)
    fn is_resident(&self, uri: &str) -> bool;

    /// Pin and return every chunk in `uris`, loading the missing ones
    /// under the given scheduling policy (mode, thread cap, shared
    /// scheduler, priority, cancellation). On error the manager must
    /// have released any pins it took. The result aligns with `uris`.
    ///
    /// `projection` is the decode projection the `projection_pushdown`
    /// pass derived; a manager that retains chunks across queries must
    /// ignore it (resident chunks keep full width so later queries with
    /// other column sets still hit).
    fn acquire_many(
        &self,
        uris: &[String],
        projection: Option<&[String]>,
        policy: &SchedPolicy,
    ) -> Result<Vec<AcquiredChunk>>;

    /// Release the pins taken by a matching [`Self::acquire_many`].
    fn release_many(&self, uris: &[String]);

    /// Acquire every chunk in `uris`, handing each to `sink` as soon as
    /// it is available — resident chunks immediately, decoded chunks
    /// the moment their decode finishes, on the worker that decoded
    /// them (pipelined decode→execute). Each chunk's pin is dropped as
    /// soon as its own `sink` call returns (not held until the wave
    /// ends, though a resident chunk may be pinned from the start of
    /// the wave until its sink runs); by the time `acquire_each`
    /// returns, no pins from this call survive. The first error (decode
    /// or sink) aborts the wave and is returned.
    ///
    /// The default delegates to [`Self::acquire_many`] (load all, then
    /// sink sequentially); managers that can stream should override it.
    fn acquire_each(
        &self,
        uris: &[String],
        projection: Option<&[String]>,
        policy: &SchedPolicy,
        sink: &ChunkSink<'_>,
    ) -> Result<()> {
        let acquired = self.acquire_many(uris, projection, policy)?;
        // Skipped chunks hold no pin (the manager substituted an empty
        // placeholder without admitting anything) — release only the
        // chunks that were actually pinned.
        let pinned: Vec<String> = uris
            .iter()
            .zip(&acquired)
            .filter(|(_, c)| c.skipped.is_none())
            .map(|(u, _)| u.clone())
            .collect();
        let mut result = Ok(());
        for (i, chunk) in acquired.into_iter().enumerate() {
            result = sink(i, chunk);
            if result.is_err() {
                break;
            }
        }
        self.release_many(&pinned);
        result
    }

    /// Every chunk in the repository (pure actual-data queries must
    /// load everything — the paper's "no alternative" case).
    fn all_chunks(&self) -> Result<Vec<String>>;

    /// The recorded zone maps of one chunk, if any (drives the
    /// `zone_map_pruning` pass).
    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        let _ = uri;
        None
    }

    /// Indexed stage-1 candidate selection (see
    /// [`ChunkSource::zone_candidates`]).
    fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        let _ = constraints;
        None
    }

    /// Is the chunk quarantined (known permanently unreadable)? Returns
    /// the recorded reason. Stage 1 consults this before scheduling any
    /// decode, so a quarantined chunk is skipped (or fails the query,
    /// under [`DegradationPolicy::Strict`]) without its file being
    /// touched again.
    fn quarantined(&self, uri: &str) -> Option<String> {
        let _ = uri;
        None
    }

    /// Begin asynchronous raw-byte prefetch of `uris` (the surviving,
    /// post-pruning chunk list, in acquisition order): dedicated IO
    /// threads read chunk `k+1..k+d` while workers decode chunk `k`,
    /// and the subsequent [`Self::acquire_many`] / [`Self::acquire_each`]
    /// consumes the staged bytes without a second read. `None` (the
    /// default) = the manager does not prefetch; acquisition is
    /// unchanged.
    fn prefetch(
        &self,
        uris: &[String],
        policy: &SchedPolicy,
    ) -> Option<Box<dyn PrefetchHandle>> {
        let _ = (uris, policy);
        None
    }
}

/// Where stage 2's chunk rows come from.
pub enum ChunkAccess<'a> {
    /// No lazy chunks available (reference plans over plain scans,
    /// pure-metadata queries).
    None,
    /// The legacy direct path: decode through `source`, optionally
    /// caching whole chunks in the recycler. No pinning: a concurrent
    /// eviction mid-query is an error, and concurrent queries may
    /// decode the same chunk twice.
    Direct { source: &'a dyn ChunkSource, recycler: Option<&'a Recycler> },
    /// A residency manager owns loading, caching, pinning and eviction.
    Managed(&'a dyn ChunkResidency),
}

impl ChunkAccess<'_> {
    /// Zone-map lookup through whichever access path is configured.
    fn zone_maps(&self, uri: &str) -> Option<Vec<ColumnZone>> {
        match self {
            ChunkAccess::None => None,
            ChunkAccess::Direct { source, .. } => source.zone_maps(uri),
            ChunkAccess::Managed(residency) => residency.zone_maps(uri),
        }
    }

    /// Indexed candidate selection through whichever access path is
    /// configured.
    fn zone_candidates(&self, constraints: &[ZoneConstraint]) -> Option<ZoneCandidates> {
        match self {
            ChunkAccess::None => None,
            ChunkAccess::Direct { source, .. } => source.zone_candidates(constraints),
            ChunkAccess::Managed(residency) => residency.zone_candidates(constraints),
        }
    }
}

/// RAII guard: releases managed-chunk pins when stage 2 finishes (or
/// fails).
struct PinGuard<'a> {
    residency: &'a dyn ChunkResidency,
    uris: Vec<String>,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.residency.release_many(&self.uris);
    }
}

/// RAII guard: finishes a query's prefetch plan when the chunk wave
/// ends (on every path — success, decode error, cancel), so staged-
/// but-unconsumed bytes are always released.
struct PrefetchGuard(Box<dyn PrefetchHandle>);

impl Drop for PrefetchGuard {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// Chunk-loading parallelism strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// The paper's strategy: one pre-assigned task per chunk,
    /// round-robin over up to `max_threads` workers. Few or skewed
    /// chunks underutilize the machine.
    #[default]
    Static,
    /// Exchange-style dynamic repartitioning: decode units from all
    /// chunks are pulled from a shared queue by `workers` workers.
    Exchange { workers: usize },
}

impl ParallelMode {
    /// Worker-pool size this mode implies for stage-2 execution.
    pub fn stage2_workers(&self, max_threads: usize) -> usize {
        match self {
            ParallelMode::Static => max_threads.max(1),
            ParallelMode::Exchange { workers } => (*workers).max(1),
        }
    }
}

/// Two-stage execution configuration.
#[derive(Debug, Clone)]
pub struct TwoStageConfig {
    pub parallel: ParallelMode,
    /// Push selections into per-chunk accesses (rewrite-rule
    /// refinement). Also gates partial-aggregation fusion: without
    /// pushdown, stage 2 deliberately materializes the full union (the
    /// ablation baseline).
    pub pushdown: bool,
    /// Decode only the columns the query references (the
    /// `projection_pushdown` pass). Applied on decode paths that do not
    /// retain chunks across queries; retained chunks keep full width.
    pub projection_pushdown: bool,
    /// Drop chunks whose zone maps contradict the pushed-down predicate
    /// before any decode is scheduled (the `zone_map_pruning` pass).
    pub zone_map_pruning: bool,
    /// Use the Recycler chunk cache.
    pub use_cache: bool,
    /// Use FK join indices where available (modes that build them).
    pub use_index_joins: bool,
    /// Which `Qf` output column carries the chunk URI. There is no
    /// meaningful default — the caller takes it from its source
    /// descriptor (e.g. `F.uri` for the mSEED adapter); plans with lazy
    /// scans fail if it is left empty.
    pub uri_column: String,
    /// Worker cap for [`ParallelMode::Static`] and stage-2 execution.
    pub max_threads: usize,
    /// Approximate query answering (the paper's §VIII future work):
    /// ingest only this fraction of the selected chunks, chosen
    /// deterministically. Aggregates like AVG remain (approximately)
    /// unbiased; COUNT/SUM scale down with the fraction. `None` = exact.
    pub sampling: Option<f64>,
    /// Observability handle for this query: pool/query counters, and —
    /// when a per-query tracer is attached — the span tree.
    pub obs: Obs,
    /// Shared morsel scheduler; when set, every morsel-parallel wave
    /// (decode, load, per-chunk pipelines) submits batches to this pool
    /// instead of spawning scoped threads.
    pub scheduler: Option<Arc<MorselScheduler>>,
    /// Scheduling priority for this query's batches.
    pub priority: Priority,
    /// Cooperative cancellation, checked between stages and at
    /// chunk-pipeline boundaries.
    pub cancel: Option<CancelToken>,
    /// What to do with unreadable chunks: fail the query (default) or
    /// complete over the readable subset and report the skipped ones.
    pub degradation: DegradationPolicy,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        TwoStageConfig {
            parallel: ParallelMode::Static,
            pushdown: true,
            projection_pushdown: true,
            zone_map_pruning: true,
            use_cache: true,
            use_index_joins: false,
            uri_column: String::new(),
            max_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8),
            sampling: None,
            obs: Obs::off(),
            scheduler: None,
            priority: Priority::Normal,
            cancel: None,
            degradation: DegradationPolicy::default(),
        }
    }
}

impl TwoStageConfig {
    /// The scheduling policy this config implies for morsel batches.
    pub fn policy(&self) -> SchedPolicy {
        SchedPolicy {
            parallel: self.parallel,
            max_threads: self.max_threads.max(1),
            scheduler: self.scheduler.clone(),
            priority: self.priority,
            cancel: self.cancel.clone(),
            degradation: self.degradation,
            tracer: self.obs.tracer().cloned(),
        }
    }

    /// Cancellation checkpoint; `Ok(())` when no token is attached.
    fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(c) => c.check(),
            None => Ok(()),
        }
    }
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Stage-1 (metadata branch) wall time.
    pub stage1: Duration,
    /// Chunk ingestion wall time. In the fused decode→execute path this
    /// covers the whole per-chunk wave (decode *and* per-chunk
    /// execution overlap and are not separable).
    pub load: Duration,
    /// Stage-2 (remainder) wall time.
    pub stage2: Duration,
    /// Chunks selected by `Qf`.
    pub files_selected: usize,
    /// Chunks skipped by approximate-answering sampling.
    pub files_sampled_out: usize,
    /// Chunks dropped by the `zone_map_pruning` pass (never decoded).
    pub files_pruned: usize,
    /// Chunks actually ingested (cache misses).
    pub files_loaded: usize,
    /// Chunks served by the Recycler.
    pub cache_hits: usize,
    /// Unreadable chunks skipped under
    /// [`DegradationPolicy::SkipUnreadable`] (quarantined before the
    /// wave, or failed during it); the query's answer excludes them.
    pub files_skipped: usize,
    /// Rows ingested from chunks.
    pub rows_loaded: u64,
    /// Approximate bytes ingested from chunks.
    pub bytes_loaded: u64,
    /// Rows concatenated into materialized chunk unions during stage 2
    /// (0 when partial aggregation avoided the union entirely).
    pub rows_union_materialized: u64,
    /// Chunks executed through per-chunk partial-aggregation pipelines.
    pub partial_agg_chunks: u64,
    /// Acquisitions that joined another thread's in-flight load of the
    /// same chunk (single-flight dedup) instead of decoding.
    pub load_joins: u64,
    /// Total time acquisitions spent blocked on in-flight loads.
    pub pin_wait: Duration,
    /// Chunks the residency manager evicted while this query ran
    /// (filled by the driver's caller from the manager's stats; always
    /// 0 on the direct/recycler path).
    pub cellar_evictions: u64,
}

impl ExecStats {
    /// Total wall time across stages.
    pub fn total(&self) -> Duration {
        self.stage1 + self.load + self.stage2
    }

    /// The chunk-accounting invariant every run must satisfy: each
    /// selected chunk is pruned, sampled out, loaded, a cache hit, or
    /// skipped as unreadable — exactly one of the five.
    pub fn accounting_balanced(&self) -> bool {
        self.files_selected
            == self.files_pruned
                + self.files_sampled_out
                + self.files_loaded
                + self.cache_hits
                + self.files_skipped
    }
}

/// A query result with its execution statistics.
#[derive(Debug)]
pub struct QueryOutcome {
    pub relation: Relation,
    pub stats: ExecStats,
    /// The stage-2 optimizer pass trace (which rewrite rules fired).
    pub trace: Vec<PassTrace>,
    /// Unreadable chunks the query completed without (non-empty only
    /// under [`DegradationPolicy::SkipUnreadable`]): the answer is a
    /// correct subset over the remaining chunks.
    pub skipped: Vec<SkippedChunk>,
}

/// Execute a (possibly decomposed) logical plan.
///
/// Plans without lazy scans (reference plans, or queries that never
/// touch actual data) run in a single pass; plans with lazy scans go
/// through the full two-stage protocol.
pub fn execute_plan(
    db: &Database,
    plan: &LogicalPlan,
    access: ChunkAccess<'_>,
    config: &TwoStageConfig,
) -> Result<QueryOutcome> {
    let mut stats = ExecStats::default();
    let mut skipped: Vec<SkippedChunk> = Vec::new();
    config.check_cancel()?;
    let mut ctx = ExecContext::new(db);
    ctx.parallel = config.parallel;
    ctx.workers = config.parallel.stage2_workers(config.max_threads);
    ctx.scheduler = config.scheduler.clone();
    ctx.priority = config.priority;
    ctx.cancel = config.cancel.clone();
    ctx.obs = config.obs.clone();
    let tracer: Option<&TraceCollector> = config.obs.tracer().map(Arc::as_ref);

    // ---- Stage 1: evaluate the metadata branch Qf, if marked. ------
    let qf_id = match plan.qf() {
        Some(qf) => {
            let t = Instant::now();
            let opts = LowerOptions {
                db,
                use_index_joins: config.use_index_joins,
                lazy_chunks: None,
                chunk_pushdown: config.pushdown,
                qf_result_id: None,
            };
            let phys = lower(qf, &opts)?;
            let rf = execute(&phys, &ctx)?;
            stats.stage1 = t.elapsed();
            if let Some(tc) = tracer {
                let dur = stats.stage1.as_nanos() as u64;
                let end = tc.now_ns();
                tc.record(
                    tc.ambient(),
                    "stage1",
                    "Qf (metadata branch)",
                    end.saturating_sub(dur),
                    dur,
                    None,
                    Some(rf.rows() as u64),
                    None,
                );
            }
            ctx.materialized.push(Arc::new(rf));
            Some(0usize)
        }
        None => None,
    };

    // ---- Run-time chunk list: what stage 1 selected. ---------------
    config.check_cancel()?;
    let chunk_refs: Option<Vec<ChunkRef>> = if plan.has_lazy_scan() {
        let uris: Vec<String> = match qf_id {
            Some(id) => {
                // Fail fast if no access path exists at all.
                if matches!(access, ChunkAccess::None) {
                    return Err(EngineError::Chunk(
                        "plan has lazy scans but no chunk source given".into(),
                    ));
                }
                distinct_uris(&ctx.materialized[id], &config.uri_column)?
            }
            // Pure-AD query: load the whole repository.
            None => match &access {
                ChunkAccess::None => {
                    return Err(EngineError::Chunk(
                        "plan has lazy scans but no chunk source given".into(),
                    ))
                }
                ChunkAccess::Direct { source, .. } => source.all_chunks()?,
                ChunkAccess::Managed(residency) => residency.all_chunks()?,
            },
        };
        stats.files_selected = uris.len();
        let uris = sample_uris(uris, config.sampling, &mut stats);
        // Quarantine check: chunks recorded as permanently unreadable
        // never reach the decode wave, and their files are never
        // touched again. Under `Strict` the query fails here, fast and
        // typed; under `SkipUnreadable` it proceeds without them.
        let uris = if let ChunkAccess::Managed(residency) = &access {
            let mut kept = Vec::with_capacity(uris.len());
            for u in uris {
                match residency.quarantined(&u) {
                    None => kept.push(u),
                    Some(reason) => match config.degradation {
                        DegradationPolicy::SkipUnreadable => {
                            stats.files_skipped += 1;
                            skipped.push(SkippedChunk { uri: u, reason });
                        }
                        DegradationPolicy::Strict => {
                            return Err(EngineError::ChunkLoad {
                                uri: u,
                                kind: ErrorKind::Permanent,
                                message: format!("chunk is quarantined: {reason}"),
                            })
                        }
                    },
                }
            }
            kept
        } else {
            uris
        };
        Some(match &access {
            ChunkAccess::None => unreachable!("checked above"),
            ChunkAccess::Direct { recycler, .. } => uris
                .iter()
                .map(|u| ChunkRef {
                    uri: u.clone(),
                    cached: config.use_cache
                        && recycler.map(|r| r.contains(u)).unwrap_or(false),
                })
                .collect(),
            ChunkAccess::Managed(residency) => uris
                .iter()
                .map(|u| ChunkRef { uri: u.clone(), cached: residency.is_resident(u) })
                .collect(),
        })
    } else {
        None
    };

    // ---- Stage-2 rewrite pipeline: zone-map pruning, the lazy-scan →
    // union chunk rewrite (lowering), selection pushdown, partial-
    // aggregate fusion, projection pushdown.
    let zones = |uri: &str| access.zone_maps(uri);
    let zone_candidates = |constraints: &[ZoneConstraint]| {
        // The zone-index probe: indexed stage-1 candidate selection.
        let t0 = Instant::now();
        let r = access.zone_candidates(constraints);
        if let Some(tc) = tracer {
            let dur = t0.elapsed().as_nanos() as u64;
            let end = tc.now_ns();
            let detail = match &r {
                Some(ZoneCandidates::Uris(uris)) => format!("{} candidates", uris.len()),
                Some(ZoneCandidates::All) => "all chunks candidate".to_string(),
                None => "no index".to_string(),
            };
            tc.record(
                tc.ambient(),
                "zone_index_probe",
                detail,
                end.saturating_sub(dur),
                dur,
                None,
                None,
                None,
            );
        }
        config.obs.count("zone.probes", 1);
        r
    };
    let opts = Stage2Options {
        use_index_joins: config.use_index_joins,
        pushdown: config.pushdown,
        projection_pushdown: config.projection_pushdown,
        zone_map_pruning: config.zone_map_pruning,
    };
    let considered = chunk_refs.as_ref().map(Vec::len).unwrap_or(0);
    let rw_start = tracer.map(|tc| tc.now_ns());
    let s2 = optimizer::rewrite_stage2(
        plan,
        db,
        chunk_refs,
        Some(&zones),
        Some(&zone_candidates),
        qf_id,
        &opts,
    )?;
    if let (Some(tc), Some(t0)) = (tracer, rw_start) {
        let parent = tc.record(
            tc.ambient(),
            "rewrite_stage2",
            format!("{} passes", s2.trace.len()),
            t0,
            tc.now_ns().saturating_sub(t0),
            None,
            None,
            None,
        );
        // Replay per-pass timings from the pipeline's trace; starts
        // are reconstructed by accumulation (passes run in order).
        let mut cursor = t0;
        for p in &s2.trace {
            tc.record(
                Some(parent),
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
    let mut phys = s2.physical;
    let trace = s2.trace;
    stats.files_pruned = s2.pruned;
    if considered > 0 {
        config.obs.count("zone.chunks_considered", considered as u64);
        config.obs.count("zone.chunks_pruned", s2.pruned as u64);
    }
    let decode_projection = phys.decode_projection();

    // ---- Async raw-byte prefetch over the surviving chunk list. ----
    // Submitted the moment pruning settles — before any decode is
    // scheduled — so dedicated IO threads read chunk k+1..k+d while
    // workers decode chunk k. The guard finishes the plan on every
    // exit path (success, decode error, cancel), releasing staged-but-
    // unconsumed bytes.
    let prefetch_guard: Option<PrefetchGuard> = match (&s2.chunks, &access) {
        (Some(refs), ChunkAccess::Managed(residency)) if !refs.is_empty() => {
            let to_fetch: Vec<String> =
                refs.iter().filter(|r| !r.cached).map(|r| r.uri.clone()).collect();
            let handle = if to_fetch.is_empty() {
                None
            } else {
                residency.prefetch(&to_fetch, &config.policy())
            };
            if let (Some(tc), Some(h)) = (tracer, handle.as_deref()) {
                let now = tc.now_ns();
                tc.record(
                    tc.ambient(),
                    "prefetch",
                    format!("{} issued over {} candidates", h.submitted(), to_fetch.len()),
                    now,
                    0,
                    None,
                    None,
                    None,
                );
            }
            handle.map(PrefetchGuard)
        }
        _ => None,
    };

    // ---- Chunk acquisition over the (pruned) list. -----------------
    // The load span is ambient while the wave runs, so per-chunk spans
    // recorded on pool workers attach under it.
    let outer_span = tracer.map(|tc| tc.ambient());
    let load_span = match (&s2.chunks, &access) {
        (Some(_), access) if !matches!(access, ChunkAccess::None) => tracer.map(|tc| {
            let id = tc.start(tc.ambient(), "load");
            tc.set_ambient(Some(id));
            id
        }),
        _ => None,
    };
    let mut pin_guard: Option<PinGuard<'_>> = None;
    // Cancellation checkpoint before any decode work is scheduled: a
    // cancel here means no pins were ever taken.
    config.check_cancel()?;
    match (&s2.chunks, &access) {
        (None, _) | (_, ChunkAccess::None) => {}
        (Some(refs), ChunkAccess::Direct { source, recycler }) => {
            let t = Instant::now();
            for r in refs.iter().filter(|r| r.cached) {
                let rel =
                    recycler.expect("cached flag implies recycler").get(&r.uri).ok_or_else(
                        || EngineError::Chunk(format!("chunk {:?} evicted mid-query", r.uri)),
                    )?;
                stats.cache_hits += 1;
                ctx.chunks.insert(r.uri.clone(), rel);
            }
            // The recycler retains whole chunks across queries, so a
            // caching run must decode full width; projection applies
            // only when nothing outlives this query.
            let caching = config.use_cache && recycler.is_some();
            let projection = if caching { None } else { decode_projection.as_deref() };
            let to_load: Vec<&str> =
                refs.iter().filter(|r| !r.cached).map(|r| r.uri.as_str()).collect();
            let policy = config.policy();
            let loaded = match config.parallel {
                ParallelMode::Static => {
                    load_static(*source, &to_load, projection, &policy, &config.obs)?
                }
                ParallelMode::Exchange { .. } => {
                    load_exchange(*source, &to_load, projection, &policy, &config.obs)?
                }
            };
            for (uri, rel) in loaded {
                stats.files_loaded += 1;
                stats.rows_loaded += rel.rows() as u64;
                stats.bytes_loaded += rel.approx_bytes() as u64;
                let rel = Arc::new(rel);
                if caching {
                    if let Some(r) = recycler {
                        r.put(&uri, Arc::clone(&rel));
                    }
                }
                ctx.chunks.insert(uri, rel);
            }
            stats.load = t.elapsed();
        }
        (Some(refs), ChunkAccess::Managed(residency)) => {
            let uris: Vec<String> = refs.iter().map(|r| r.uri.clone()).collect();
            let projection = decode_projection.as_deref();
            let t = Instant::now();
            // Fuse decode into execution when the whole chunk
            // consumption is one partial-agg pipeline; otherwise
            // load-all (the union materializes anyway, and pins must
            // span all of stage 2).
            if !uris.is_empty()
                && phys.partial_agg_count() == 1
                && phys.chunk_union_count() == 0
            {
                let node = phys.find_partial_agg().expect("counted above").clone();
                let merged = fused_wave(
                    *residency,
                    &uris,
                    projection,
                    &node,
                    &ctx,
                    config,
                    &mut stats,
                    &mut skipped,
                )?;
                stats.load = t.elapsed();
                let id = ctx.materialized.len();
                ctx.materialized.push(Arc::new(merged));
                phys.replace_first_partial_agg(id);
            } else {
                let acquired = residency.acquire_many(&uris, projection, &config.policy())?;
                // Pins are held until stage 2 is done (drop of the
                // guard), so the manager cannot evict these chunks
                // mid-query. Skipped chunks hold no pin, so the guard
                // covers only the chunks that were actually acquired.
                let pinned: Vec<String> = uris
                    .iter()
                    .zip(&acquired)
                    .filter(|(_, c)| c.skipped.is_none())
                    .map(|(u, _)| u.clone())
                    .collect();
                pin_guard = Some(PinGuard { residency: *residency, uris: pinned });
                for (uri, chunk) in uris.iter().zip(acquired) {
                    if let Some(reason) = &chunk.skipped {
                        stats.files_skipped += 1;
                        skipped
                            .push(SkippedChunk { uri: uri.clone(), reason: reason.clone() });
                    } else if chunk.loaded {
                        stats.files_loaded += 1;
                        stats.rows_loaded += chunk.relation.rows() as u64;
                        stats.bytes_loaded += chunk.relation.approx_bytes() as u64;
                    } else {
                        stats.cache_hits += 1;
                    }
                    if chunk.joined {
                        stats.load_joins += 1;
                    }
                    stats.pin_wait += chunk.pin_wait;
                    if let Some(tc) = tracer {
                        record_chunk_acquisition(tc, uri, &chunk);
                    }
                    ctx.chunks.insert(uri.clone(), chunk.relation);
                }
                stats.load = t.elapsed();
            }
        }
    }

    // The chunk wave is over: everything prefetched was either claimed
    // by a decode or is now wasted — release it before stage 2 runs.
    drop(prefetch_guard);

    if let (Some(tc), Some(id)) = (tracer, load_span) {
        tc.end_with(
            id,
            Some(format!(
                "{} loaded, {} hits, {} joined",
                stats.files_loaded, stats.cache_hits, stats.load_joins
            )),
            Some(stats.rows_loaded),
            Some(stats.bytes_loaded),
        );
        tc.set_ambient(outer_span.flatten());
    }

    // ---- Stage 2: the remainder Qs. ---------------------------------
    // Cancellation checkpoint: dropping out here unwinds the pin guard,
    // so a cancelled query never leaves pinned chunks behind.
    config.check_cancel()?;
    let t = Instant::now();
    let stage2_span = tracer.map(|tc| {
        let id = tc.start(tc.ambient(), "stage2");
        tc.set_ambient(Some(id));
        id
    });
    let relation = execute(&phys, &ctx)?;
    if let (Some(tc), Some(id)) = (tracer, stage2_span) {
        tc.end_with(id, Some("Qs (remainder)".into()), Some(relation.rows() as u64), None);
        tc.set_ambient(outer_span.flatten());
    }
    stats.stage2 = t.elapsed();
    stats.rows_union_materialized += ctx.counters.union_rows.load(Ordering::Relaxed);
    stats.partial_agg_chunks += ctx.counters.partial_agg_chunks.load(Ordering::Relaxed);
    drop(pin_guard);

    // Chunk accounting must balance on every path: each selected chunk
    // is pruned, sampled out, loaded, or a cache hit.
    debug_assert!(
        stats.accounting_balanced(),
        "chunk accounting out of balance: selected {} != pruned {} + sampled_out {} + loaded {} + hits {} + skipped {}",
        stats.files_selected,
        stats.files_pruned,
        stats.files_sampled_out,
        stats.files_loaded,
        stats.cache_hits,
        stats.files_skipped
    );

    let o = &config.obs;
    o.count("query.count", 1);
    o.count("query.stage1_ns", stats.stage1.as_nanos() as u64);
    o.count("query.load_ns", stats.load.as_nanos() as u64);
    o.count("query.stage2_ns", stats.stage2.as_nanos() as u64);
    o.count("chunks.selected", stats.files_selected as u64);
    o.count("chunks.pruned", stats.files_pruned as u64);
    o.count("chunks.sampled_out", stats.files_sampled_out as u64);
    o.count("chunks.loaded", stats.files_loaded as u64);
    o.count("chunks.cache_hits", stats.cache_hits as u64);
    o.count("chunks.load_joins", stats.load_joins);
    o.count("chunks.skipped", stats.files_skipped as u64);
    o.count("rows.loaded", stats.rows_loaded);
    o.count("bytes.loaded", stats.bytes_loaded);
    Ok(QueryOutcome { relation, stats, trace, skipped })
}

/// Record the acquisition span of one managed chunk (non-fused path):
/// the span covers decode + pin wait, annotated with how it was
/// satisfied.
fn record_chunk_acquisition(tc: &TraceCollector, uri: &str, chunk: &AcquiredChunk) {
    let dur = (chunk.decode + chunk.pin_wait).as_nanos() as u64;
    let status = if chunk.joined {
        format!("{uri} joined, waited {}", fmt_ns(chunk.pin_wait.as_nanos() as u64))
    } else if chunk.loaded {
        format!("{uri} decoded in {}", fmt_ns(chunk.decode.as_nanos() as u64))
    } else {
        format!("{uri} hit")
    };
    let end = tc.now_ns();
    tc.record(
        tc.ambient(),
        "chunk.load",
        status,
        end.saturating_sub(dur),
        dur,
        None,
        Some(chunk.relation.rows() as u64),
        Some(chunk.relation.approx_bytes() as u64),
    );
}

/// The fused decode→execute wave over one [`PhysicalPlan::PartialAggUnion`]:
/// each chunk runs its pipeline (projection, pushed-down selection,
/// probe of the shared build side, residual filter, partial
/// aggregation) on the worker that produced it, then drops its pin; the
/// partial states merge in chunk order afterwards.
#[allow(clippy::too_many_arguments)]
fn fused_wave(
    residency: &dyn ChunkResidency,
    uris: &[String],
    projection: Option<&[String]>,
    node: &PhysicalPlan,
    ctx: &ExecContext,
    config: &TwoStageConfig,
    stats: &mut ExecStats,
    skipped: &mut Vec<SkippedChunk>,
) -> Result<Relation> {
    let PhysicalPlan::PartialAggUnion {
        columns, predicate, join, ops, group_by, aggs, ..
    } = node
    else {
        unreachable!("caller located a partial-agg node")
    };
    // The build side is chunk-free (fusion guarantees it): execute and
    // hash it once; every chunk probes the shared build.
    let build = join
        .as_ref()
        .map(|j| crate::join::JoinBuild::new(execute(&j.right, ctx)?, &j.right_keys))
        .transpose()?;
    let pipeline = ChunkPipeline {
        columns,
        predicate: predicate.as_ref(),
        build: join.as_ref().zip(build.as_ref()).map(|(j, b)| (b, j.left_keys.as_slice())),
        ops,
    };
    let slots: Vec<Mutex<Option<PartialAgg>>> =
        (0..uris.len()).map(|_| Mutex::new(None)).collect();
    let (loaded, hits) = (AtomicU64::new(0), AtomicU64::new(0));
    let (rows, bytes) = (AtomicU64::new(0), AtomicU64::new(0));
    let (joins, wait_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let skips: Mutex<Vec<SkippedChunk>> = Mutex::new(Vec::new());
    let tracer = config.obs.tracer().map(Arc::as_ref);
    let sink = |i: usize, chunk: AcquiredChunk| -> Result<()> {
        let chunk_bytes = chunk.relation.approx_bytes() as u64;
        if let Some(reason) = &chunk.skipped {
            skips.lock().push(SkippedChunk { uri: uris[i].clone(), reason: reason.clone() });
        } else if chunk.loaded {
            loaded.fetch_add(1, Ordering::Relaxed);
            rows.fetch_add(chunk.relation.rows() as u64, Ordering::Relaxed);
            bytes.fetch_add(chunk_bytes, Ordering::Relaxed);
        } else {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        if chunk.joined {
            joins.fetch_add(1, Ordering::Relaxed);
        }
        wait_ns.fetch_add(chunk.pin_wait.as_nanos() as u64, Ordering::Relaxed);
        let t0 = Instant::now();
        let part = partial_aggregate(&pipeline.run(&chunk.relation)?, group_by, aggs)?;
        if let Some(tc) = tracer {
            // One span per chunk, covering decode + pin wait + the
            // fused pipeline (all on the worker that decoded it).
            let pipe_ns = t0.elapsed().as_nanos() as u64;
            let acq_ns = (chunk.decode + chunk.pin_wait).as_nanos() as u64;
            let end = tc.now_ns();
            let how = if chunk.joined {
                format!("wait {}", fmt_ns(chunk.pin_wait.as_nanos() as u64))
            } else if chunk.loaded {
                format!("decode {}", fmt_ns(chunk.decode.as_nanos() as u64))
            } else {
                "hit".to_string()
            };
            tc.record(
                tc.ambient(),
                "chunk",
                format!("{} ({how}, pipeline {})", uris[i], fmt_ns(pipe_ns)),
                end.saturating_sub(acq_ns + pipe_ns),
                acq_ns + pipe_ns,
                obs::current_worker(),
                Some(chunk.relation.rows() as u64),
                Some(chunk_bytes),
            );
        }
        *slots[i].lock() = Some(part);
        Ok(())
    };
    residency.acquire_each(uris, projection, &config.policy(), &sink)?;
    let skips = skips.into_inner();
    stats.files_skipped += skips.len();
    skipped.extend(skips);
    stats.files_loaded += loaded.load(Ordering::Relaxed) as usize;
    stats.cache_hits += hits.load(Ordering::Relaxed) as usize;
    stats.rows_loaded += rows.load(Ordering::Relaxed);
    stats.bytes_loaded += bytes.load(Ordering::Relaxed);
    stats.load_joins += joins.load(Ordering::Relaxed);
    stats.pin_wait += Duration::from_nanos(wait_ns.load(Ordering::Relaxed));
    stats.partial_agg_chunks += uris.len() as u64;
    let parts: Vec<PartialAgg> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("sink ran for every chunk"))
        .collect();
    merge_partials(parts, group_by, aggs)
}

/// Approximate answering: keep a deterministic sample of the selected
/// chunks (stable across repeated runs of the query).
fn sample_uris(
    uris: Vec<String>,
    sampling: Option<f64>,
    stats: &mut ExecStats,
) -> Vec<String> {
    match sampling {
        Some(fraction) if fraction < 1.0 && uris.len() > 1 => {
            let keep = ((uris.len() as f64 * fraction.clamp(0.0, 1.0)).ceil() as usize)
                .clamp(1, uris.len());
            let mut ranked: Vec<(u64, String)> = uris
                .into_iter()
                .map(|u| {
                    use std::hash::{Hash, Hasher};
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    u.hash(&mut h);
                    (h.finish(), u)
                })
                .collect();
            ranked.sort();
            stats.files_sampled_out = ranked.len() - keep;
            ranked.truncate(keep);
            // Restore a deterministic (name) order for loading.
            let mut kept: Vec<String> = ranked.into_iter().map(|(_, u)| u).collect();
            kept.sort();
            kept
        }
        _ => uris,
    }
}

/// Distinct URIs from the stage-1 result, in first-appearance order.
fn distinct_uris(rf: &Relation, uri_column: &str) -> Result<Vec<String>> {
    let col = rf.column(uri_column)?;
    let text = match col {
        ColumnData::Text(t) => t,
        other => {
            return Err(EngineError::Exec(format!(
                "uri column {uri_column} has type {}, expected text",
                other.data_type()
            )))
        }
    };
    let mut seen = vec![false; text.dict.len()];
    let mut out = Vec::new();
    for &code in &text.codes {
        if !seen[code as usize] {
            seen[code as usize] = true;
            out.push(text.dict.get(code).to_string());
        }
    }
    Ok(out)
}

/// Static parallelism: chunks pre-partitioned round-robin over up to
/// `max_threads` workers; each worker ingests its fixed share.
fn load_static(
    source: &dyn ChunkSource,
    uris: &[&str],
    projection: Option<&[String]>,
    policy: &SchedPolicy,
    obs: &Obs,
) -> Result<Vec<(String, Relation)>> {
    let policy = SchedPolicy { parallel: ParallelMode::Static, ..policy.clone() };
    let loaded = run_indexed_policy(uris.len(), &policy, obs, |i| {
        let tracer = obs.tracer();
        let t0 = tracer.map(|tc| tc.now_ns());
        let rel = source.load_chunk(uris[i], projection);
        if let (Some(tc), Some(t0)) = (tracer, t0) {
            tc.record(
                tc.ambient(),
                "chunk.load",
                uris[i].to_string(),
                t0,
                tc.now_ns().saturating_sub(t0),
                obs::current_worker(),
                rel.as_ref().ok().map(|r| r.rows() as u64),
                rel.as_ref().ok().map(|r| r.approx_bytes() as u64),
            );
        }
        rel
    });
    let mut out = Vec::with_capacity(uris.len());
    for (uri, rel) in uris.iter().zip(loaded) {
        out.push((uri.to_string(), rel?));
    }
    Ok(out)
}

/// Exchange-style parallelism: decode units from all chunks feed a
/// shared queue drained by a fixed worker pool, so skew between chunks
/// balances out.
fn load_exchange(
    source: &dyn ChunkSource,
    uris: &[&str],
    projection: Option<&[String]>,
    policy: &SchedPolicy,
    obs: &Obs,
) -> Result<Vec<(String, Relation)>> {
    if uris.is_empty() {
        return Ok(Vec::new());
    }
    // Build the unit list (cheap: header reads, no decoding) ...
    let mut slots: Vec<(usize, Mutex<Option<ChunkUnit<'_>>>)> = Vec::new();
    for (fi, uri) in uris.iter().enumerate() {
        for unit in source.chunk_units(uri, projection)? {
            slots.push((fi, Mutex::new(Some(unit))));
        }
    }
    // ... then decode dynamically: each worker pulls the next unit.
    let results = run_indexed_policy(slots.len(), policy, obs, |i| {
        let unit = slots[i].1.lock().take().expect("each unit taken once");
        let tracer = obs.tracer();
        let t0 = tracer.map(|tc| tc.now_ns());
        let rel = unit();
        if let (Some(tc), Some(t0)) = (tracer, t0) {
            tc.record(
                tc.ambient(),
                "chunk.load",
                format!("{} (unit)", uris[slots[i].0]),
                t0,
                tc.now_ns().saturating_sub(t0),
                obs::current_worker(),
                rel.as_ref().ok().map(|r| r.rows() as u64),
                rel.as_ref().ok().map(|r| r.approx_bytes() as u64),
            );
        }
        rel
    });
    // Reassemble per-file relations; unit order within a file is the
    // construction order, so the union is deterministic.
    let mut per_file: Vec<Relation> = (0..uris.len()).map(|_| Relation::empty()).collect();
    for (&(fi, _), rel) in slots.iter().zip(results) {
        per_file[fi].union_in_place(&rel?)?;
    }
    Ok(uris.iter().map(|u| u.to_string()).zip(per_file).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp, Expr};
    use sommelier_storage::buffer::BufferPoolConfig;
    use sommelier_storage::catalog::Disposition;
    use sommelier_storage::column::TextColumn;
    use sommelier_storage::{ConstraintPolicy, DataType, TableClass, TableSchema, Value};
    use std::sync::atomic::AtomicUsize;

    /// A chunk source serving synthetic per-file D relations:
    /// file `u<i>` has rows with file_id = i and values i*10 .. i*10+2.
    struct FakeSource {
        uris: Vec<String>,
        loads: AtomicUsize,
    }

    impl FakeSource {
        fn new(n: usize) -> Self {
            FakeSource {
                uris: (0..n).map(|i| format!("u{i}")).collect(),
                loads: AtomicUsize::new(0),
            }
        }

        fn rel_for(i: i64) -> Relation {
            Relation::new(vec![
                ("D.file_id".into(), ColumnData::Int64(vec![i, i, i])),
                (
                    "D.sample_value".into(),
                    ColumnData::Float64(vec![
                        i as f64 * 10.0,
                        i as f64 * 10.0 + 1.0,
                        i as f64 * 10.0 + 2.0,
                    ]),
                ),
            ])
            .unwrap()
        }
    }

    fn apply_projection(rel: Relation, projection: Option<&[String]>) -> Result<Relation> {
        match projection {
            Some(cols) => {
                let wanted: Vec<(String, String)> =
                    cols.iter().map(|c| (c.clone(), c.clone())).collect();
                rel.project_named(&wanted)
            }
            None => Ok(rel),
        }
    }

    impl ChunkSource for FakeSource {
        fn load_chunk(&self, uri: &str, projection: Option<&[String]>) -> Result<Relation> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            let i: i64 = uri[1..]
                .parse()
                .map_err(|_| EngineError::Chunk(format!("unknown uri {uri:?}")))?;
            apply_projection(Self::rel_for(i), projection)
        }

        fn chunk_units<'s>(
            &'s self,
            uri: &str,
            projection: Option<&[String]>,
        ) -> Result<Vec<ChunkUnit<'s>>> {
            // Two units per chunk: split the 3 rows as 2 + 1.
            self.loads.fetch_add(1, Ordering::Relaxed);
            let i: i64 = uri[1..].parse().unwrap();
            let full = apply_projection(Self::rel_for(i), projection)?;
            let a = full.take(&[0, 1]);
            let b = full.take(&[2]);
            Ok(vec![Box::new(move || Ok(a)), Box::new(move || Ok(b))])
        }

        fn all_chunks(&self) -> Result<Vec<String>> {
            Ok(self.uris.clone())
        }
    }

    /// A minimal residency manager over a [`FakeSource`], to exercise
    /// the fused decode→execute path without the core crate's cellar:
    /// everything stays resident, pins are counted.
    struct FakeResidency {
        source: FakeSource,
        resident: Mutex<std::collections::HashMap<String, Arc<Relation>>>,
        pins: AtomicUsize,
        peak_pins: AtomicUsize,
        /// uri → reason: loads of these chunks fail (skip or error
        /// depending on the policy's degradation mode).
        unreadable: Mutex<std::collections::HashMap<String, String>>,
        /// uri → reason: stage 1 skips these without touching them.
        quarantined: Mutex<std::collections::HashMap<String, String>>,
    }

    impl FakeResidency {
        fn new(n: usize) -> Self {
            FakeResidency {
                source: FakeSource::new(n),
                resident: Mutex::new(std::collections::HashMap::new()),
                pins: AtomicUsize::new(0),
                peak_pins: AtomicUsize::new(0),
                unreadable: Mutex::new(std::collections::HashMap::new()),
                quarantined: Mutex::new(std::collections::HashMap::new()),
            }
        }

        fn pin(&self) {
            let now = self.pins.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak_pins.fetch_max(now, Ordering::SeqCst);
        }

        fn empty_placeholder() -> Arc<Relation> {
            Arc::new(
                Relation::new(vec![
                    ("D.file_id".into(), ColumnData::Int64(Vec::new())),
                    ("D.sample_value".into(), ColumnData::Float64(Vec::new())),
                ])
                .unwrap(),
            )
        }
    }

    impl ChunkResidency for FakeResidency {
        fn is_resident(&self, uri: &str) -> bool {
            self.resident.lock().contains_key(uri)
        }

        fn acquire_many(
            &self,
            uris: &[String],
            _projection: Option<&[String]>,
            policy: &SchedPolicy,
        ) -> Result<Vec<AcquiredChunk>> {
            uris.iter()
                .map(|u| {
                    if let Some(reason) = self.unreadable.lock().get(u) {
                        return match policy.degradation {
                            DegradationPolicy::SkipUnreadable => Ok(AcquiredChunk::skipped(
                                Self::empty_placeholder(),
                                reason.clone(),
                            )),
                            DegradationPolicy::Strict => Err(EngineError::ChunkLoad {
                                uri: u.clone(),
                                kind: ErrorKind::Permanent,
                                message: reason.clone(),
                            }),
                        };
                    }
                    self.pin();
                    let mut resident = self.resident.lock();
                    if let Some(rel) = resident.get(u) {
                        return Ok(AcquiredChunk::untimed(Arc::clone(rel), false, false));
                    }
                    // Retaining manager: always decodes full width.
                    let rel = Arc::new(self.source.load_chunk(u, None)?);
                    resident.insert(u.clone(), Arc::clone(&rel));
                    Ok(AcquiredChunk::untimed(rel, true, false))
                })
                .collect()
        }

        fn release_many(&self, uris: &[String]) {
            let unreadable = self.unreadable.lock();
            let n = uris.iter().filter(|u| !unreadable.contains_key(*u)).count();
            self.pins.fetch_sub(n, Ordering::SeqCst);
        }

        fn all_chunks(&self) -> Result<Vec<String>> {
            self.source.all_chunks()
        }

        fn quarantined(&self, uri: &str) -> Option<String> {
            self.quarantined.lock().get(uri).cloned()
        }
    }

    fn test_config() -> TwoStageConfig {
        TwoStageConfig { uri_column: "F.uri".to_string(), ..TwoStageConfig::default() }
    }

    fn metadata_db() -> Database {
        let db = Database::in_memory(BufferPoolConfig::default());
        db.create_table(
            TableSchema::new("F", TableClass::MetadataGiven)
                .column("file_id", DataType::Int64)
                .column("uri", DataType::Text)
                .column("station", DataType::Text)
                .primary_key(["file_id"]),
            Disposition::Resident,
        )
        .unwrap();
        db.append(
            "F",
            &[
                ColumnData::Int64(vec![0, 1, 2]),
                ColumnData::Text(TextColumn::from_strs(["u0", "u1", "u2"])),
                ColumnData::Text(TextColumn::from_strs(["ISK", "FIAM", "ISK"])),
            ],
            ConstraintPolicy::all(),
        )
        .unwrap();
        db
    }

    /// AVG(D.sample_value) for station ISK — a T4-shaped two-stage plan.
    fn lazy_plan() -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::LazyScan {
                    table: "D".into(),
                    columns: vec!["D.file_id".into(), "D.sample_value".into()],
                    predicate: Some(
                        Expr::col("D.sample_value").cmp(CmpOp::Ge, Expr::lit(0.0)),
                    ),
                }),
                right: Box::new(LogicalPlan::QfMark {
                    input: Box::new(LogicalPlan::Scan {
                        table: "F".into(),
                        columns: vec!["F.file_id".into(), "F.uri".into(), "F.station".into()],
                        predicate: Some(Expr::col("F.station").eq(Expr::lit("ISK"))),
                    }),
                }),
                left_keys: vec![Expr::col("D.file_id")],
                right_keys: vec![Expr::col("F.file_id")],
            }),
            group_by: vec![],
            aggs: vec![("avg_v".into(), AggFunc::Avg, Expr::col("D.sample_value"))],
        }
    }

    #[test]
    fn two_stage_loads_only_selected_chunks() {
        let db = metadata_db();
        let source = FakeSource::new(3);
        let recycler = Recycler::new(1 << 20);
        let config = test_config();
        let out = execute_plan(
            &db,
            &lazy_plan(),
            ChunkAccess::Direct { source: &source, recycler: Some(&recycler) },
            &config,
        )
        .unwrap();
        // Stage 1 selects files 0 and 2 (ISK); their 6 values: 0,1,2,20,21,22.
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
        assert_eq!(out.stats.files_selected, 2);
        assert_eq!(out.stats.files_loaded, 2);
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.rows_loaded, 6);
        assert_eq!(source.loads.load(Ordering::Relaxed), 2, "u1 never touched");
        // The aggregate fused: no union was materialized.
        assert_eq!(out.stats.partial_agg_chunks, 2);
        assert_eq!(out.stats.rows_union_materialized, 0);
    }

    #[test]
    fn second_run_hits_recycler() {
        let db = metadata_db();
        let source = FakeSource::new(3);
        let recycler = Recycler::new(1 << 20);
        let config = test_config();
        let access = || ChunkAccess::Direct { source: &source, recycler: Some(&recycler) };
        execute_plan(&db, &lazy_plan(), access(), &config).unwrap();
        let out = execute_plan(&db, &lazy_plan(), access(), &config).unwrap();
        assert_eq!(out.stats.cache_hits, 2);
        assert_eq!(out.stats.files_loaded, 0);
        assert_eq!(source.loads.load(Ordering::Relaxed), 2, "no re-ingestion");
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
    }

    #[test]
    fn cache_disabled_always_reloads() {
        let db = metadata_db();
        let source = FakeSource::new(3);
        let recycler = Recycler::new(1 << 20);
        let config = TwoStageConfig { use_cache: false, ..test_config() };
        let access = || ChunkAccess::Direct { source: &source, recycler: Some(&recycler) };
        execute_plan(&db, &lazy_plan(), access(), &config).unwrap();
        let out = execute_plan(&db, &lazy_plan(), access(), &config).unwrap();
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.files_loaded, 2);
        assert_eq!(source.loads.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn exchange_mode_matches_static() {
        let db = metadata_db();
        let source = FakeSource::new(3);
        let config = TwoStageConfig {
            parallel: ParallelMode::Exchange { workers: 4 },
            use_cache: false,
            ..test_config()
        };
        let out = execute_plan(
            &db,
            &lazy_plan(),
            ChunkAccess::Direct { source: &source, recycler: None },
            &config,
        )
        .unwrap();
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
        assert_eq!(out.stats.rows_loaded, 6);
    }

    #[test]
    fn managed_residency_runs_fused_wave() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let config = test_config();
        let out = execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &config)
            .unwrap();
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
        assert_eq!(out.stats.files_loaded, 2);
        assert_eq!(out.stats.partial_agg_chunks, 2);
        assert_eq!(out.stats.rows_union_materialized, 0, "no union materialized");
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0, "all pins released");
        // Second run: served from residency, still fused.
        let out2 = execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &config)
            .unwrap();
        assert_eq!(out2.stats.cache_hits, 2);
        assert_eq!(out2.stats.files_loaded, 0);
        assert_eq!(out2.relation.value(0, "avg_v").unwrap(), Value::Float(11.0));
    }

    #[test]
    fn fused_and_load_all_results_agree() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        let fused =
            execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &test_config())
                .unwrap();
        // Pushdown off → no fusion → load-all + materialized union.
        let config = TwoStageConfig { pushdown: false, ..test_config() };
        let unioned =
            execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &config)
                .unwrap();
        assert_eq!(unioned.stats.partial_agg_chunks, 0);
        assert!(unioned.stats.rows_union_materialized > 0);
        match (
            fused.relation.value(0, "avg_v").unwrap(),
            unioned.relation.value(0, "avg_v").unwrap(),
        ) {
            (Value::Float(a), Value::Float(b)) => assert!((a - b).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn pure_metadata_plan_runs_single_stage() {
        let db = metadata_db();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::QfMark {
                input: Box::new(LogicalPlan::Scan {
                    table: "F".into(),
                    columns: vec!["F.station".into()],
                    predicate: None,
                }),
            }),
            exprs: vec![("s".into(), Expr::col("F.station"))],
        };
        let out = execute_plan(&db, &plan, ChunkAccess::None, &test_config()).unwrap();
        assert_eq!(out.relation.rows(), 3);
        assert_eq!(out.stats.files_selected, 0);
        assert!(out.stats.stage1 > Duration::ZERO);
    }

    #[test]
    fn pure_ad_plan_loads_everything() {
        let db = metadata_db();
        let source = FakeSource::new(3);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::LazyScan {
                table: "D".into(),
                columns: vec!["D.sample_value".into()],
                predicate: None,
            }),
            group_by: vec![],
            aggs: vec![("n".into(), AggFunc::Count, Expr::col("D.sample_value"))],
        };
        let out = execute_plan(
            &db,
            &plan,
            ChunkAccess::Direct { source: &source, recycler: None },
            &test_config(),
        )
        .unwrap();
        assert_eq!(out.stats.files_selected, 3, "no metadata: all chunks");
        assert_eq!(out.relation.value(0, "n").unwrap(), Value::Int(9));
    }

    #[test]
    fn missing_source_is_an_error() {
        let db = metadata_db();
        assert!(matches!(
            execute_plan(&db, &lazy_plan(), ChunkAccess::None, &test_config()),
            Err(EngineError::Chunk(_))
        ));
    }

    #[test]
    fn skip_mode_completes_over_readable_chunks() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        residency.unreadable.lock().insert("u2".into(), "bad magic".into());
        let config = TwoStageConfig {
            degradation: DegradationPolicy::SkipUnreadable,
            ..test_config()
        };
        let out = execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &config)
            .unwrap();
        // Only u0's values (0, 1, 2) survive; u2 is skipped.
        assert_eq!(out.relation.value(0, "avg_v").unwrap(), Value::Float(1.0));
        assert_eq!(out.stats.files_skipped, 1);
        assert_eq!(out.stats.files_loaded, 1);
        assert!(out.stats.accounting_balanced());
        assert_eq!(out.skipped.len(), 1);
        assert_eq!(out.skipped[0].uri, "u2");
        assert_eq!(out.skipped[0].reason, "bad magic");
        assert_eq!(residency.pins.load(Ordering::SeqCst), 0, "no pins leaked");
    }

    #[test]
    fn strict_mode_fails_with_typed_error_naming_the_chunk() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        residency.unreadable.lock().insert("u2".into(), "bad magic".into());
        let err =
            execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &test_config())
                .unwrap_err();
        match err {
            EngineError::ChunkLoad { uri, kind, .. } => {
                assert_eq!(uri, "u2");
                assert_eq!(kind, ErrorKind::Permanent);
            }
            other => panic!("expected ChunkLoad, got {other:?}"),
        }
    }

    #[test]
    fn quarantined_chunk_skipped_without_being_touched() {
        let db = metadata_db();
        let residency = FakeResidency::new(3);
        residency.quarantined.lock().insert("u2".into(), "quarantined earlier".into());
        let config = TwoStageConfig {
            degradation: DegradationPolicy::SkipUnreadable,
            ..test_config()
        };
        let out = execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &config)
            .unwrap();
        assert_eq!(out.stats.files_skipped, 1);
        assert_eq!(out.skipped[0].uri, "u2");
        assert_eq!(
            residency.source.loads.load(Ordering::Relaxed),
            1,
            "only u0 decoded; the quarantined chunk's file was never touched"
        );
        // Strict mode fails fast on the quarantined chunk, still
        // without touching its file.
        let err =
            execute_plan(&db, &lazy_plan(), ChunkAccess::Managed(&residency), &test_config())
                .unwrap_err();
        assert!(matches!(err, EngineError::ChunkLoad { uri, .. } if uri == "u2"));
        assert_eq!(residency.source.loads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn distinct_uris_keeps_first_appearance_order() {
        let rel = Relation::new(vec![(
            "F.uri".into(),
            ColumnData::Text(TextColumn::from_strs(["b", "a", "b", "c", "a"])),
        )])
        .unwrap();
        assert_eq!(distinct_uris(&rel, "F.uri").unwrap(), vec!["b", "a", "c"]);
        assert!(distinct_uris(&rel, "F.nope").is_err());
    }
}
