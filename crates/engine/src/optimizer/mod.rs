//! The unified rule-based optimizer: one ordered rewrite pipeline.
//!
//! Before this module, the optimizer of the paper's §III/§V was
//! reproduced as rewrite logic scattered across four places — join
//! ordering in [`crate::joinorder`], lowering plus ad-hoc
//! partial-aggregate fusion in [`crate::physical`], the stage-1→stage-2
//! chunk rewrite open-coded in [`crate::twostage`], and
//! classification/inference in the core crate. Following the
//! rule-controller architecture of systems like AsterixDB, every
//! rewrite is now a named [`OptPass`] executed by an ordered
//! [`Pipeline`] over one [`OptState`], with a per-pass fired/skipped
//! [`PassTrace`] that `EXPLAIN` surfaces.
//!
//! Two pipelines cover the query lifecycle:
//!
//! * **compile** ([`compile_plan`]): `join_order` — the R1–R4
//!   metadata-first decomposition, producing the logical plan. Every
//!   loading mode runs it; eager modes resolve its lazy scans against
//!   the loaded actual-data table.
//! * **stage 2** ([`rewrite_stage2`]), invoked by the two-stage driver
//!   once the stage-1 chunk list is known:
//!   `zone_map_pruning` → `chunk_rewrite` → `selection_pushdown` →
//!   `partial_agg_fusion` → `projection_pushdown`.
//!
//! The two genuinely new passes:
//!
//! * **`zone_map_pruning`** — drops chunks whose per-chunk min/max
//!   zone maps (recorded by the registrar from adapter-declared
//!   prunable columns) contradict the lazy scan's pushed-down
//!   predicate, *before any decode is scheduled*.
//! * **`projection_pushdown`** — marks chunk scans so the decode path
//!   materializes only the columns the query references (the
//!   scan-level projection the binder already computed via
//!   `QuerySpec::needed_columns`), instead of decoding the full
//!   actual-data width and projecting afterwards.

pub mod passes;

pub use passes::{
    as_zone_constraint, plan_zone_constraints, zone_conjunct_contradicted, ChunkRewrite,
    JoinOrder, PartialAggFusion, ProjectionPushdown, SelectionPushdown, ZoneMapPruning,
};

use crate::error::Result;
use crate::joinorder::PlanOptions;
use crate::logical::LogicalPlan;
use crate::physical::{ChunkRef, PhysicalPlan};
use crate::spec::QuerySpec;
use sommelier_storage::{Database, Value};
use std::borrow::Cow;
use std::fmt;

/// A per-chunk min/max summary of one column — the zone map the
/// registrar records for every adapter-declared prunable column.
/// Bounds are **inclusive** and may over-cover (a zone wider than the
/// actual data is safe: pruning only drops chunks whose zone is
/// provably disjoint from the predicate).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZone {
    /// Qualified actual-data column (e.g. `"D.sample_time"`).
    pub column: String,
    pub min: Value,
    pub max: Value,
}

/// Zone-map lookup, by chunk URI. `None` = no zone maps recorded for
/// the chunk (never pruned).
pub type ZoneMapFn<'a> = dyn Fn(&str) -> Option<Vec<ColumnZone>> + 'a;

/// One `column ⟨op⟩ literal` conjunct of a pushed-down predicate, in
/// the normalized column-on-left form — the query shape a sorted zone
/// interval index answers.
#[derive(Debug, Clone)]
pub struct ZoneConstraint {
    /// Qualified actual-data column (e.g. `"D.sample_time"`).
    pub column: String,
    pub op: crate::expr::CmpOp,
    pub value: Value,
}

/// An indexed answer to "which chunks may satisfy these constraints?".
#[derive(Debug, Clone)]
pub enum ZoneCandidates {
    /// Every registered chunk may satisfy them (no pruning possible).
    All,
    /// Only these chunks (by URI) may satisfy them. Must be a superset
    /// of the exactly-not-contradicted chunks: chunks with no recorded
    /// zone for a constrained column are always included, and
    /// constraints the index cannot answer constrain nothing. The
    /// exact per-chunk zone check still runs on the survivors, so an
    /// over-approximation is sound — an under-approximation is not.
    /// Shared `Arc<str>` URIs keep per-hit cost at a refcount bump
    /// (implementations intern them once at registration).
    Uris(std::collections::HashSet<std::sync::Arc<str>>),
}

/// Indexed stage-1 candidate selection over the chunk registry's zone
/// maps (O(log n + hits) instead of a per-chunk scan). `None` = no
/// index can answer (fall back to per-chunk zone checks only). The
/// implementation must be built over the same registry the run-time
/// chunk list is drawn from.
pub type ZoneCandidateFn<'a> = dyn Fn(&[ZoneConstraint]) -> Option<ZoneCandidates> + 'a;

/// What one pipeline run carries between passes.
pub struct OptState<'a> {
    pub db: &'a Database,
    /// The bound spec (input of the compile pipeline).
    pub spec: Option<&'a QuerySpec>,
    /// The logical plan (output of `join_order`, input of stage 2 —
    /// borrowed there, since the stage-2 passes only read it).
    pub logical: Option<Cow<'a, LogicalPlan>>,
    /// The physical plan (output of `chunk_rewrite`).
    pub physical: Option<PhysicalPlan>,
    /// The run-time chunk list for lazy-scan expansion. `None` for
    /// plans without lazy scans (nothing to expand).
    pub chunks: Option<Vec<ChunkRef>>,
    /// Zone-map lookup for `zone_map_pruning`.
    pub zones: Option<&'a ZoneMapFn<'a>>,
    /// Indexed candidate selection for `zone_map_pruning` (the sorted
    /// interval index over the chunk registry); the exact per-chunk
    /// checks then run on the prefiltered survivors only.
    pub zone_candidates: Option<&'a ZoneCandidateFn<'a>>,
    /// What `QfMark` lowers to (a materialized result-scan slot).
    pub qf_result_id: Option<usize>,
    /// Chunks dropped by `zone_map_pruning` this run.
    pub pruned: usize,
}

impl<'a> OptState<'a> {
    /// An empty state over `db`.
    pub fn new(db: &'a Database) -> Self {
        OptState {
            db,
            spec: None,
            logical: None,
            physical: None,
            chunks: None,
            zones: None,
            zone_candidates: None,
            qf_result_id: None,
            pruned: 0,
        }
    }
}

/// Outcome of one pass application.
pub enum PassEffect {
    /// The pass rewrote the plan (detail says what it did).
    Fired(String),
    /// The pass did not apply (detail says why).
    Skipped(String),
}

/// One rewrite rule of the pipeline.
pub trait OptPass {
    /// Stable pass name (shown in traces and EXPLAIN).
    fn name(&self) -> &'static str;

    /// Apply the pass to `state`.
    fn apply(&self, state: &mut OptState) -> Result<PassEffect>;
}

/// One line of the optimizer trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTrace {
    pub name: &'static str,
    pub fired: bool,
    pub detail: String,
    /// Wall time the pass took. Always measured — two `Instant` reads
    /// per pass are noise — so `EXPLAIN ANALYZE` and the span trace can
    /// replay per-pass timings without re-running the pipeline.
    pub nanos: u64,
}

impl fmt::Display for PassTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({})",
            self.name,
            if self.fired { "fired" } else { "skipped" },
            self.detail
        )
    }
}

/// An ordered sequence of passes.
pub struct Pipeline {
    passes: Vec<Box<dyn OptPass>>,
}

impl Pipeline {
    /// A pipeline running `passes` in order.
    pub fn new(passes: Vec<Box<dyn OptPass>>) -> Self {
        Pipeline { passes }
    }

    /// Run every pass in order, collecting the trace.
    pub fn run(&self, state: &mut OptState) -> Result<Vec<PassTrace>> {
        let mut trace = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let start = std::time::Instant::now();
            let (fired, detail) = match pass.apply(state)? {
                PassEffect::Fired(d) => (true, d),
                PassEffect::Skipped(d) => (false, d),
            };
            let nanos = start.elapsed().as_nanos() as u64;
            trace.push(PassTrace { name: pass.name(), fired, detail, nanos });
        }
        Ok(trace)
    }
}

/// Knobs of the stage-2 pipeline (mirrors
/// [`crate::twostage::TwoStageConfig`]).
#[derive(Debug, Clone)]
pub struct Stage2Options {
    pub use_index_joins: bool,
    /// `selection_pushdown` (rewrite-rule refinement; also the fusion
    /// gate).
    pub pushdown: bool,
    /// `projection_pushdown` (decode only referenced columns).
    pub projection_pushdown: bool,
    /// `zone_map_pruning` (drop contradicted chunks before decode).
    pub zone_map_pruning: bool,
}

/// Result of the stage-2 pipeline.
pub struct Stage2Plan {
    pub physical: PhysicalPlan,
    /// The (possibly zone-pruned) chunk list the driver must acquire,
    /// when the plan had lazy scans.
    pub chunks: Option<Vec<ChunkRef>>,
    /// Chunks dropped by `zone_map_pruning`.
    pub pruned: usize,
    pub trace: Vec<PassTrace>,
}

/// The compile pipeline: spec → logical plan via the `join_order` pass.
pub fn compile_plan(
    spec: &QuerySpec,
    db: &Database,
    opts: &PlanOptions,
) -> Result<(LogicalPlan, Vec<PassTrace>)> {
    let pipeline = Pipeline::new(vec![Box::new(JoinOrder::from_options(opts))]);
    let mut state = OptState::new(db);
    state.spec = Some(spec);
    let trace = pipeline.run(&mut state)?;
    let plan = state.logical.expect("join_order produced a plan").into_owned();
    Ok((plan, trace))
}

/// The stage-2 pipeline: logical plan + run-time chunk list → physical
/// plan, through every rewrite rule in order.
pub fn rewrite_stage2(
    plan: &LogicalPlan,
    db: &Database,
    chunks: Option<Vec<ChunkRef>>,
    zones: Option<&ZoneMapFn<'_>>,
    zone_candidates: Option<&ZoneCandidateFn<'_>>,
    qf_result_id: Option<usize>,
    opts: &Stage2Options,
) -> Result<Stage2Plan> {
    let pipeline = Pipeline::new(vec![
        Box::new(ZoneMapPruning { enabled: opts.zone_map_pruning }),
        Box::new(ChunkRewrite { use_index_joins: opts.use_index_joins }),
        Box::new(SelectionPushdown { enabled: opts.pushdown }),
        Box::new(PartialAggFusion),
        Box::new(ProjectionPushdown { enabled: opts.projection_pushdown }),
    ]);
    let mut state = OptState::new(db);
    state.logical = Some(Cow::Borrowed(plan));
    state.chunks = chunks;
    state.zones = zones;
    state.zone_candidates = zone_candidates;
    state.qf_result_id = qf_result_id;
    let trace = pipeline.run(&mut state)?;
    Ok(Stage2Plan {
        physical: state.physical.expect("chunk_rewrite produced a plan"),
        chunks: state.chunks,
        pruned: state.pruned,
        trace,
    })
}

/// Render a trace as indented lines (what EXPLAIN appends).
pub fn format_trace(trace: &[PassTrace]) -> String {
    let mut out = String::new();
    for t in trace {
        out.push_str("  ");
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out
}
