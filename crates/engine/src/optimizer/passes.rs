//! The concrete optimizer passes. See the [module docs](super) for the
//! pipeline order.

use super::{ColumnZone, OptPass, OptState, PassEffect, ZoneCandidates, ZoneConstraint};
use crate::error::{EngineError, Result};
use crate::expr::{CmpOp, Expr};
use crate::joinorder::{plan_query, PlanOptions};
use crate::logical::LogicalPlan;
use crate::physical::{fuse_partial_agg, lower, LowerOptions, PhysicalPlan};
use sommelier_storage::Value;
use std::collections::HashSet;

/// `join_order` — the paper's R1–R4 metadata-first decomposition
/// (`Q = Qf ▷ Qs`), in every loading mode. Consumes
/// [`OptState::spec`], produces [`OptState::logical`].
pub struct JoinOrder {
    pub options: PlanOptions,
}

impl JoinOrder {
    /// Wrap existing plan options.
    pub fn from_options(opts: &PlanOptions) -> Self {
        JoinOrder { options: opts.clone() }
    }
}

impl OptPass for JoinOrder {
    fn name(&self) -> &'static str {
        "join_order"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        let Some(spec) = state.spec else {
            return Ok(PassEffect::Skipped("no spec to order".into()));
        };
        let plan = plan_query(spec, &self.options)?;
        let detail = match plan.qf() {
            Some(qf) => format!(
                "metadata-first: Qf over [{}]{}",
                qf.tables().join(", "),
                if plan.has_lazy_scan() { ", lazy actual-data scans above" } else { "" }
            ),
            None => "metadata-first: no metadata tables (pure actual-data)".into(),
        };
        state.logical = Some(std::borrow::Cow::Owned(plan));
        Ok(PassEffect::Fired(detail))
    }
}

/// `zone_map_pruning` — drop chunks whose recorded min/max zone maps
/// contradict the lazy scan's pushed-down predicate, before any decode
/// is scheduled. With several lazy scans (which share one chunk list),
/// a chunk is dropped only if *every* scan's predicate contradicts it.
pub struct ZoneMapPruning {
    pub enabled: bool,
}

impl OptPass for ZoneMapPruning {
    fn name(&self) -> &'static str {
        "zone_map_pruning"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        if !self.enabled {
            return Ok(PassEffect::Skipped("disabled by config".into()));
        }
        let Some(chunks) = state.chunks.as_mut() else {
            return Ok(PassEffect::Skipped("no run-time chunk list".into()));
        };
        let Some(zones) = state.zones else {
            // Plan-time pipelines (EXPLAIN) have no zone provider; the
            // pass is armed and applies once the chunk list is real.
            return Ok(PassEffect::Skipped("armed; chunk zones resolved at run time".into()));
        };
        let plan = state.logical.as_ref().ok_or_else(|| {
            EngineError::Plan("zone_map_pruning needs the logical plan".into())
        })?;
        let mut predicates: Vec<Option<&Expr>> = Vec::new();
        plan.visit(&mut |p| {
            if let LogicalPlan::LazyScan { predicate, .. } = p {
                predicates.push(predicate.as_ref());
            }
        });
        if predicates.is_empty() || predicates.iter().any(|p| p.is_none()) {
            return Ok(PassEffect::Skipped(
                "no pushed-down predicate on the lazy scans".into(),
            ));
        }
        // Split each predicate into conjuncts once, not once per chunk.
        let conjunct_sets: Vec<Vec<Expr>> = predicates
            .iter()
            .map(|p| p.expect("checked above").clone().split_conjunction())
            .collect();
        let before = chunks.len();

        // Indexed prefilter: ask the registry's sorted interval index
        // which chunks may satisfy each scan's constraints
        // (O(log n + hits) instead of touching every chunk's zones). A
        // chunk survives if *any* scan's candidate set keeps it; the
        // exact per-chunk checks below then run on the survivors only —
        // so an over-approximating index stays sound and the final
        // chunk list is identical to the unindexed path.
        let mut indexed = false;
        if let Some(index) = state.zone_candidates {
            let mut keep: HashSet<std::sync::Arc<str>> = HashSet::new();
            let mut keep_all = false;
            for conjuncts in &conjunct_sets {
                let constraints: Vec<ZoneConstraint> =
                    conjuncts.iter().filter_map(as_zone_constraint).collect();
                match (!constraints.is_empty()).then(|| index(&constraints)).flatten() {
                    Some(ZoneCandidates::Uris(uris)) => keep.extend(uris),
                    // This scan constrains nothing the index can see:
                    // every chunk survives the prefilter.
                    Some(ZoneCandidates::All) | None => {
                        keep_all = true;
                        break;
                    }
                }
            }
            if !keep_all {
                chunks.retain(|c| keep.contains(c.uri.as_str()));
                indexed = true;
            }
        }

        // Exact per-chunk zone checks on the (prefiltered) list.
        chunks.retain(|c| {
            let Some(zone) = zones(&c.uri) else { return true };
            // Prunable only if every lazy scan's predicate rules the
            // chunk out.
            !conjunct_sets
                .iter()
                .all(|conjuncts| conjuncts.iter().any(|c| conjunct_contradicted(c, &zone)))
        });
        let pruned = before - chunks.len();
        state.pruned = pruned;
        let how = if indexed { "indexed" } else { "scanned" };
        if pruned == 0 {
            Ok(PassEffect::Skipped(format!("no chunk of {before} contradicted ({how})")))
        } else {
            Ok(PassEffect::Fired(format!("pruned {pruned} of {before} chunks ({how})")))
        }
    }
}

/// Normalize one conjunct into the `column ⟨op⟩ literal` form a zone
/// interval index can answer; `None` for any other shape.
pub fn as_zone_constraint(conjunct: &Expr) -> Option<ZoneConstraint> {
    let Expr::Cmp(op, lhs, rhs) = conjunct else { return None };
    let (op, col, lit) = match (&**lhs, &**rhs) {
        (Expr::Col(c), Expr::Lit(v)) => (*op, c, v),
        (Expr::Lit(v), Expr::Col(c)) => (op.flip(), c, v),
        _ => return None,
    };
    Some(ZoneConstraint { column: col.clone(), op, value: lit.clone() })
}

/// The zone constraints of every lazy scan's pushed-down predicate in
/// `plan` — one entry per lazy scan carrying a predicate. This is how
/// `EXPLAIN` probes the registry's zone index for a candidate count
/// without running the query (at plan time the chunk list is not yet
/// real, so `ZoneMapPruning` itself only reports "armed").
pub fn plan_zone_constraints(plan: &LogicalPlan) -> Vec<Vec<ZoneConstraint>> {
    let mut out = Vec::new();
    plan.visit(&mut |p| {
        if let LogicalPlan::LazyScan { predicate: Some(pred), .. } = p {
            out.push(
                pred.clone()
                    .split_conjunction()
                    .iter()
                    .filter_map(as_zone_constraint)
                    .collect(),
            );
        }
    });
    out
}

/// Is `column ⟨op⟩ lit` provably false for every row of a chunk with
/// the given zones? The single source of truth for zone contradiction —
/// the pruning pass, the core registry's linear scan and the interval
/// index's equivalence tests all funnel through it.
pub fn zone_conjunct_contradicted(
    op: CmpOp,
    column: &str,
    lit: &Value,
    zones: &[ColumnZone],
) -> bool {
    let Some(zone) = zones.iter().find(|z| z.column == column) else { return false };
    // Coerce the literal into the zone's type family (e.g. a quoted
    // timestamp against a Time zone); incomparable → keep the chunk.
    let lit = match zone.min.data_type().and_then(|t| lit.coerce_to(t).ok()) {
        Some(v) => v,
        None => return false,
    };
    let (Ok(min_lit), Ok(max_lit)) = (zone.min.compare(&lit), zone.max.compare(&lit)) else {
        return false;
    };
    use std::cmp::Ordering::*;
    match op {
        // col < L: impossible if even the smallest value is >= L.
        CmpOp::Lt => matches!(min_lit, Greater | Equal),
        // col <= L: impossible if min > L.
        CmpOp::Le => matches!(min_lit, Greater),
        // col > L: impossible if even the largest value is <= L.
        CmpOp::Gt => matches!(max_lit, Less | Equal),
        // col >= L: impossible if max < L.
        CmpOp::Ge => matches!(max_lit, Less),
        // col = L: impossible if L lies outside [min, max].
        CmpOp::Eq => matches!(min_lit, Greater) || matches!(max_lit, Less),
        CmpOp::Ne => false,
    }
}

/// Is `pred` provably false for every row of a chunk with the given
/// zones? Only plain `col ⟨op⟩ literal` conjuncts can contradict;
/// anything else (disjunctions, computed columns, unzoned columns)
/// conservatively keeps the chunk. (The pass itself pre-splits the
/// conjunctions; this convenience form drives the unit tests.)
#[cfg(test)]
fn contradicted(pred: &Expr, zones: &[ColumnZone]) -> bool {
    pred.clone().split_conjunction().iter().any(|c| conjunct_contradicted(c, zones))
}

fn conjunct_contradicted(conjunct: &Expr, zones: &[ColumnZone]) -> bool {
    // Borrowing normalization (no per-chunk clones): this runs once per
    // chunk per conjunct in the exact retain pass.
    let Expr::Cmp(op, lhs, rhs) = conjunct else { return false };
    let (op, col, lit) = match (&**lhs, &**rhs) {
        (Expr::Col(c), Expr::Lit(v)) => (*op, c.as_str(), v),
        (Expr::Lit(v), Expr::Col(c)) => (op.flip(), c.as_str(), v),
        _ => return false,
    };
    zone_conjunct_contradicted(op, col, lit, zones)
}

/// `chunk_rewrite` — the run-time rewrite rule (1): every lazy
/// `scan(a)` becomes the union of cache-scans and chunk-accesses over
/// the stage-1 chunk list, and the plan lowers to physical operators
/// (`QfMark` → result-scan, index joins where available). Selections
/// stay *above* the per-chunk accesses here; `selection_pushdown`
/// moves them in.
pub struct ChunkRewrite {
    pub use_index_joins: bool,
}

impl OptPass for ChunkRewrite {
    fn name(&self) -> &'static str {
        "chunk_rewrite"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        let plan = state
            .logical
            .as_ref()
            .ok_or_else(|| EngineError::Plan("chunk_rewrite needs a logical plan".into()))?;
        let opts = LowerOptions {
            db: state.db,
            use_index_joins: self.use_index_joins,
            lazy_chunks: state.chunks.as_deref(),
            chunk_pushdown: false,
            qf_result_id: state.qf_result_id,
        };
        let phys = lower(plan, &opts)?;
        let detail = match &state.chunks {
            Some(chunks) => {
                let cached = chunks.iter().filter(|c| c.cached).count();
                format!(
                    "lazy scans -> union of {cached} cache-scan + {} chunk-access",
                    chunks.len() - cached
                )
            }
            None => "lowered (no lazy scans)".into(),
        };
        let fired = state.chunks.is_some();
        state.physical = Some(phys);
        if fired {
            Ok(PassEffect::Fired(detail))
        } else {
            Ok(PassEffect::Skipped(detail))
        }
    }
}

/// `selection_pushdown` — move each rewritten scan's selection into
/// the per-chunk accesses (the paper's rewrite-rule refinement), so
/// chunks filter as they decode instead of after the union
/// materializes. Also the gate for `partial_agg_fusion`: without it
/// the union deliberately materializes (the ablation baseline).
pub struct SelectionPushdown {
    pub enabled: bool,
}

impl OptPass for SelectionPushdown {
    fn name(&self) -> &'static str {
        "selection_pushdown"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        let phys = state.physical.as_mut().ok_or_else(|| {
            EngineError::Plan("selection_pushdown needs a physical plan".into())
        })?;
        if !self.enabled {
            return Ok(PassEffect::Skipped("disabled by config".into()));
        }
        let mut unions = 0usize;
        let mut pushed = 0usize;
        phys.visit_mut(&mut |p| {
            if let PhysicalPlan::ChunkUnion { pushdown, predicate, .. } = p {
                unions += 1;
                *pushdown = true;
                if predicate.is_some() {
                    pushed += 1;
                }
            }
        });
        if unions == 0 {
            Ok(PassEffect::Skipped("no chunk unions in the plan".into()))
        } else {
            Ok(PassEffect::Fired(format!(
                "selections pushed into {pushed} of {unions} chunk unions"
            )))
        }
    }
}

/// `partial_agg_fusion` — rewrite `Aggregate` over a pushdown chunk
/// union (optionally through residual filters and one hash join
/// against a chunk-free build side) into a
/// [`PhysicalPlan::PartialAggUnion`], so stage 2 aggregates
/// chunk-by-chunk and never materializes the union.
pub struct PartialAggFusion;

impl OptPass for PartialAggFusion {
    fn name(&self) -> &'static str {
        "partial_agg_fusion"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        let phys = state.physical.take().ok_or_else(|| {
            EngineError::Plan("partial_agg_fusion needs a physical plan".into())
        })?;
        let fused = fuse_partial_agg(phys);
        let count = fused.partial_agg_count();
        state.physical = Some(fused);
        if count == 0 {
            Ok(PassEffect::Skipped("no fusable aggregate-over-union chain".into()))
        } else {
            Ok(PassEffect::Fired(format!(
                "{count} aggregate(s) fused into per-chunk partial aggregation"
            )))
        }
    }
}

/// `projection_pushdown` — mark every chunk scan so the *decode* path
/// materializes only the scan's referenced columns (computed by the
/// binder via `QuerySpec::needed_columns`) instead of the full
/// actual-data width. Cache-retained chunks still decode full width
/// (they must serve future queries with other column sets); the two-
/// stage driver applies the projection on the non-retaining decode
/// paths.
pub struct ProjectionPushdown {
    pub enabled: bool,
}

impl OptPass for ProjectionPushdown {
    fn name(&self) -> &'static str {
        "projection_pushdown"
    }

    fn apply(&self, state: &mut OptState) -> Result<PassEffect> {
        let db = state.db;
        let phys = state.physical.as_mut().ok_or_else(|| {
            EngineError::Plan("projection_pushdown needs a physical plan".into())
        })?;
        if !self.enabled {
            return Ok(PassEffect::Skipped("disabled by config".into()));
        }
        let mut details: Vec<String> = Vec::new();
        phys.visit_mut(&mut |p| {
            if let PhysicalPlan::ChunkUnion { table, columns, projected_decode, .. }
            | PhysicalPlan::PartialAggUnion {
                table, columns, projected_decode, ..
            } = p
            {
                *projected_decode = true;
                let width =
                    db.table_schema(table).map(|s| s.columns.len()).unwrap_or(columns.len());
                details.push(format!("{table}: decode {} of {width} columns", columns.len()));
            }
        });
        if details.is_empty() {
            Ok(PassEffect::Skipped("no chunk scans in the plan".into()))
        } else {
            Ok(PassEffect::Fired(details.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sommelier_storage::Value;

    fn zone(col: &str, min: Value, max: Value) -> ColumnZone {
        ColumnZone { column: col.into(), min, max }
    }

    #[test]
    fn conjunct_contradiction_table() {
        let zones = vec![zone("D.t", Value::Time(100), Value::Time(200))];
        let col = || Expr::col("D.t");
        // Inside the zone: never contradicted.
        assert!(!contradicted(&col().cmp(CmpOp::Ge, Expr::lit(150i64)), &zones));
        // Entirely above the zone.
        assert!(contradicted(&col().cmp(CmpOp::Ge, Expr::lit(201i64)), &zones));
        assert!(contradicted(&col().cmp(CmpOp::Gt, Expr::lit(200i64)), &zones));
        assert!(!contradicted(&col().cmp(CmpOp::Ge, Expr::lit(200i64)), &zones));
        // Entirely below the zone.
        assert!(contradicted(&col().cmp(CmpOp::Lt, Expr::lit(100i64)), &zones));
        assert!(contradicted(&col().cmp(CmpOp::Le, Expr::lit(99i64)), &zones));
        assert!(!contradicted(&col().cmp(CmpOp::Le, Expr::lit(100i64)), &zones));
        // Equality outside / inside.
        assert!(contradicted(&col().eq(Expr::lit(50i64)), &zones));
        assert!(contradicted(&col().eq(Expr::lit(250i64)), &zones));
        assert!(!contradicted(&col().eq(Expr::lit(150i64)), &zones));
        // Flipped literal-first form.
        assert!(contradicted(&Expr::lit(201i64).cmp(CmpOp::Le, col()), &zones));
        // Unzoned column: keep.
        assert!(!contradicted(&Expr::col("D.v").cmp(CmpOp::Gt, Expr::lit(0i64)), &zones));
        // Conjunction: one contradicted factor suffices.
        let both = col().cmp(CmpOp::Ge, Expr::lit(150i64)).and(col().eq(Expr::lit(5i64)));
        assert!(contradicted(&both, &zones));
        // Disjunction: conservatively kept.
        let either = col().eq(Expr::lit(5i64)).or(col().eq(Expr::lit(6i64)));
        assert!(!contradicted(&either, &zones));
    }

    #[test]
    fn literal_coercion_in_pruning() {
        // Float zone vs int literal (the `E.val > 800` shape).
        let zones = vec![zone("E.val", Value::Float(1.0), Value::Float(700.0))];
        assert!(contradicted(&Expr::col("E.val").cmp(CmpOp::Gt, Expr::lit(800i64)), &zones));
        assert!(!contradicted(&Expr::col("E.val").cmp(CmpOp::Gt, Expr::lit(600i64)), &zones));
        // Time zone vs quoted timestamp literal.
        let zones = vec![zone("E.ts", Value::Time(0), Value::Time(1000))];
        let lit = Expr::lit("1970-01-01T00:00:02.000");
        assert!(contradicted(&Expr::col("E.ts").cmp(CmpOp::Ge, lit), &zones));
        // Garbage literal: keep the chunk.
        let lit = Expr::lit("not-a-time");
        assert!(!contradicted(&Expr::col("E.ts").cmp(CmpOp::Ge, lit), &zones));
    }
}
