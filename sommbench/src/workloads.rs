//! The three workloads: their configurations, their seeded query
//! sequences, and the code that runs one pass (a fresh system, set-up, the
//! first query, then the query sequence).

use crate::trace::{Recorder, TimedAdapter};
use crate::util::{Digest, Rng};
use sommelier_bench::queries;
use sommelier_core::admission::AdmissionStats;
use sommelier_core::cellar::CellarSnapshot;
use sommelier_core::{
    LoadingMode, PrepReport, Priority, QueryResult, SchedStats, Sommelier, SommelierConfig,
    SourceAdapter,
};
use sommelier_mseed::{MseedAdapter, Repository};
use sommelier_server::{Server, SessionOptions};
use sommelier_sql::BindCatalog;
use sommelier_storage::buffer::{PoolStatsSnapshot, SimIo};
use sommelier_storage::time::MS_PER_DAY;
use sommelier_storage::ColumnData;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MIB: usize = 1024 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreLazy,
    EagerLoad,
    ServerMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ExploreLazy, Workload::EagerLoad, Workload::ServerMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreLazy => "explore-lazy",
            Workload::EagerLoad => "eager-load",
            Workload::ServerMixed => "server-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One client, so every count of a pass repeats exactly.
    pub fn single_client(self) -> bool {
        self != Workload::ServerMixed
    }

    /// Everything a workload configures, in one place: budget,
    /// `max_threads`, `sim_chunk_io` and the loading mode.
    pub fn config(self) -> (SommelierConfig, LoadingMode) {
        let base = SommelierConfig { max_threads: 2, ..SommelierConfig::default() };
        match self {
            // The cellar holds the whole decoded dataset; IO is real
            // (page-cached files).
            Workload::ExploreLazy => {
                (SommelierConfig { cellar_bytes: Some(256 * MIB), ..base }, LoadingMode::Lazy)
            }
            // The buffer pool is smaller than the loaded database, so
            // queries spill to the column files.
            Workload::EagerLoad => (
                SommelierConfig { buffer_pool_bytes: 64 * MIB, ..base },
                LoadingMode::EagerDmd,
            ),
            // A cellar below the working set, and a modelled seek-bound
            // repository: 2 ms per 64 KiB of chunk file.
            Workload::ServerMixed => (
                SommelierConfig {
                    cellar_bytes: Some(32 * MIB),
                    sim_chunk_io: Some(SimIo { per_page: Duration::from_millis(2) }),
                    ..base
                },
                LoadingMode::Lazy,
            ),
        }
    }
}

/// Dataset scale and query counts.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub sf: u32,
    pub samples_per_seg: u32,
    pub explore_queries: usize,
    pub eager_queries: usize,
    /// Queries of the server's interactive and batch clients per pass,
    /// in the ratio the two complete at when both run flat out, so
    /// they finish together and the latency mix is the same every run.
    pub server_high: usize,
    pub server_low: usize,
    /// Set-ups timed on their own after each pass, per loading mode.
    pub lazy_setups_per_pass: usize,
    pub eager_setups_per_pass: usize,
}

impl Size {
    /// INGV sf-9, 256 samples per segment: 1 464 chunk files.
    pub const FULL: Size = Size {
        sf: 9,
        samples_per_seg: 256,
        explore_queries: 1000,
        eager_queries: 100,
        server_high: 850,
        server_low: 150,
        lazy_setups_per_pass: 8,
        eager_setups_per_pass: 2,
    };

    /// INGV sf-1, 16 samples per segment: for the smoke test.
    pub const TINY: Size = Size {
        sf: 1,
        samples_per_seg: 16,
        explore_queries: 60,
        eager_queries: 20,
        server_high: 50,
        server_low: 10,
        lazy_setups_per_pass: 2,
        eager_setups_per_pass: 1,
    };

    pub fn setups_per_pass(&self, w: Workload) -> usize {
        if w.config().1.is_eager() {
            self.eager_setups_per_pass
        } else {
            self.lazy_setups_per_pass
        }
    }
}

/// The generated queries of one run. Every pass replays them.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The cold first query of data-to-insight: Fig. 8's T5 selectivity
    /// variant over the first quarter of the days.
    pub first: Query,
    /// The single client's sequence.
    pub sequence: Vec<Query>,
    /// The server's interactive (`High`) and batch (`Low`) clients.
    pub high: Vec<Query>,
    pub low: Vec<Query>,
}

/// Station and channel of the INGV dataset's four sensors.
fn sensors() -> Vec<(String, String)> {
    sommelier_mseed::repo::ingv_stations()
        .into_iter()
        .map(|s| (s.station, s.channel))
        .collect()
}

/// Mean distance of a window's start from the end of the data, in days:
/// start days are drawn from an exponential with this mean, so recent
/// weeks are favoured and chunks and windows repeat.
const RECENT_MEAN_DAYS: f64 = 21.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    T1,
    T2,
    T3,
    T4,
    T5,
    /// Fig. 8's T5 selectivity variant: every sensor, no thresholds.
    Fig8,
}

impl Shape {
    /// The answer is one average rather than a set of rows.
    pub fn is_avg(self) -> bool {
        matches!(self, Shape::T4 | Shape::T5 | Shape::Fig8)
    }
}

/// Deals a client's shapes in rounds that hold each shape once, in
/// seeded random order, so the shapes keep equal shares in every stretch
/// of the sequence. Drawn independently instead, the 100 queries of
/// `eager-load` held 29-44 T4 and T5 over seeds 1-10, and its workload
/// time followed that count from 15 to 25 s.
struct Shapes {
    all: Vec<Shape>,
    round: Vec<Shape>,
}

impl Shapes {
    fn new(all: &[Shape]) -> Self {
        Shapes { all: all.to_vec(), round: Vec::new() }
    }

    fn deal(&mut self, rng: &mut Rng) -> Shape {
        if self.round.is_empty() {
            self.round = self.all.clone();
            rng.shuffle(&mut self.round);
        }
        self.round.pop().expect("a round holds every shape")
    }
}

/// One generated query: the SQL the system receives, and what it asks,
/// from which the reference answer is composed.
#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub shape: Shape,
    /// Index into [`sensors`]; unused by `Fig8`.
    pub sensor: usize,
    /// The window: first day (counted from the first day of the data)
    /// and length in days.
    pub start: i64,
    pub len: i64,
}

/// The first day of the generated data, in days since the epoch.
fn day0() -> i64 {
    sommelier_storage::time::days_from_civil(2010, 1, 1)
}

impl Query {
    pub fn new(shape: Shape, sensor: usize, start: i64, len: i64) -> Query {
        let (st, ch) = {
            let s = &sensors()[sensor];
            (s.0.clone(), s.1.clone())
        };
        let (a, b) = queries::day_range(day0() + start, len);
        let sql = match shape {
            Shape::T1 => queries::t1(&st),
            Shape::T2 => queries::t2(&st, &ch, a, b),
            Shape::T3 => queries::t3(&st, &ch, a, b),
            Shape::T4 => queries::t4(&st, &ch, a, b),
            Shape::T5 => queries::t5(&st, &ch, a, b, 10_000.0, 10.0),
            Shape::Fig8 => queries::t5_selectivity(a, b),
        };
        Query { sql, shape, sensor, start, len }
    }
}

impl Plan {
    pub fn generate(w: Workload, seed: u64, size: &Size) -> Plan {
        let days = i64::from(sommelier_mseed::repo::days_for_sf(size.sf));
        let first = Query::new(Shape::Fig8, 0, 0, (days / 4).max(1));
        let mut plan =
            Plan { first, sequence: Vec::new(), high: Vec::new(), low: Vec::new() };
        let mut rng = Rng::new(seed);
        let n_sensors = sensors().len() as u64;
        match w {
            Workload::ExploreLazy | Workload::EagerLoad => {
                // eager-load replays the first queries of the same sequence.
                let n = if w == Workload::ExploreLazy {
                    size.explore_queries
                } else {
                    size.eager_queries
                };
                // T1-T5 in equal shares, 1-7-day windows.
                let mut shapes =
                    Shapes::new(&[Shape::T1, Shape::T2, Shape::T3, Shape::T4, Shape::T5]);
                plan.sequence = (0..n)
                    .map(|_| {
                        let shape = shapes.deal(&mut rng);
                        let sensor = rng.below(n_sensors) as usize;
                        let len = (1 + rng.below(7) as i64).min(days);
                        let back = (rng.exponential(RECENT_MEAN_DAYS) as i64).min(days - len);
                        Query::new(shape, sensor, days - len - back, len)
                    })
                    .collect();
            }
            Workload::ServerMixed => {
                // Interactive: T1/T2/T4 over 1-day windows in the last week.
                let mut shapes = Shapes::new(&[Shape::T1, Shape::T2, Shape::T4]);
                plan.high = (0..size.server_high)
                    .map(|_| {
                        let shape = shapes.deal(&mut rng);
                        let sensor = rng.below(n_sensors) as usize;
                        let start = days - 1 - rng.below(7.min(days) as u64) as i64;
                        Query::new(shape, sensor, start, 1)
                    })
                    .collect();
                // Batch: T4/T5 over 7-30-day windows anywhere in the data.
                let mut shapes = Shapes::new(&[Shape::T4, Shape::T5]);
                plan.low = (0..size.server_low)
                    .map(|_| {
                        let shape = shapes.deal(&mut rng);
                        let sensor = rng.below(n_sensors) as usize;
                        let len = (7 + rng.below(24) as i64).min(days);
                        let start = rng.below((days - len + 1) as u64) as i64;
                        Query::new(shape, sensor, start, len)
                    })
                    .collect();
            }
        }
        plan
    }
}

/// Process-wide context of a run.
pub struct Ctx {
    pub repo_dir: PathBuf,
    /// Where the scratch databases of the passes live.
    pub db_root: PathBuf,
    pub catalog: BindCatalog,
    seq: AtomicUsize,
}

impl Ctx {
    pub fn new(repo_dir: PathBuf, db_root: PathBuf) -> Self {
        let catalog =
            sommelier_core::source::assemble_catalog(&[&sommelier_mseed::mseed_descriptor()])
                .expect("the mSEED catalog assembles");
        Ctx { repo_dir, db_root, catalog, seq: AtomicUsize::new(0) }
    }

    /// Build and prepare a fresh disk-backed system.
    fn system(
        &self,
        config: SommelierConfig,
        mode: LoadingMode,
        rec: Option<&Arc<Recorder>>,
    ) -> (System, Duration, PrepReport) {
        let db_dir = self.db_root.join(format!(
            "db-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&db_dir);
        let adapter = MseedAdapter::new(Repository::at(&self.repo_dir));
        let adapter: Arc<dyn SourceAdapter> = match rec {
            Some(r) => Arc::new(TimedAdapter::new(adapter, Arc::clone(r))),
            None => Arc::new(adapter),
        };
        let t0 = Instant::now();
        let somm = Sommelier::builder()
            .source_arc(adapter)
            .config(config)
            .on_disk(&db_dir)
            .build()
            .expect("building the system");
        let prep = somm.prepare(mode).expect("preparing the system");
        let setup = t0.elapsed();
        (System { somm: Arc::new(somm), db_dir }, setup, prep)
    }

    /// Time one set-up on its own (build + prepare), then drop it.
    pub fn setup_only(&self, w: Workload) -> Duration {
        let (config, mode) = w.config();
        self.system(config, mode, None).1
    }

    /// The reference answers, keyed by SQL, from a system in another
    /// loading mode than the workload's: `EagerDmd` with a buffer pool
    /// that holds the whole database for the lazy workloads, and for
    /// `eager-load` a single-threaded `Lazy` system without prefetch and
    /// with a cellar that holds the whole dataset.
    ///
    /// Only T1 is asked as generated. T2 and T3 answers are composed
    /// from one-day queries, and the averages (T4, T5 and the first
    /// query) from per-day sums and counts (`GROUP BY DAY_BUCKET`, one
    /// query per shape and sensor), so the reference costs seconds even
    /// where each generated average would scan the loaded samples, and
    /// `AVG` itself is checked against `SUM` and `COUNT`.
    pub fn reference<'a>(
        &self,
        w: Workload,
        queries: impl IntoIterator<Item = &'a Query>,
    ) -> HashMap<String, Result<Digest, String>> {
        let (config, mode) = if w.config().1.is_eager() {
            let config = SommelierConfig {
                max_threads: 1,
                prefetch_depth: 0,
                cellar_bytes: Some(1024 * MIB),
                ..SommelierConfig::default()
            };
            (config, LoadingMode::Lazy)
        } else {
            let config = SommelierConfig {
                max_threads: 2,
                buffer_pool_bytes: 1024 * MIB,
                ..SommelierConfig::default()
            };
            (config, LoadingMode::EagerDmd)
        };
        let (sys, _, _) = self.system(config, mode, None);
        let run = |q: &Query| {
            sys.somm
                .query(&q.sql)
                .map(|r| Digest::of(&r.relation, q.shape.is_avg()))
                .map_err(|e| e.to_string())
        };

        let mut distinct: Vec<&Query> = Vec::new();
        let mut seen = HashSet::new();
        for q in queries {
            if seen.insert(q.sql.as_str()) {
                distinct.push(q);
            }
        }
        // Per shape and sensor, the days the averages cover.
        let mut hulls: HashMap<(Shape, usize), (i64, i64)> = HashMap::new();
        for q in distinct.iter().filter(|q| q.shape.is_avg()) {
            let h = hulls.entry((q.shape, q.sensor)).or_insert((q.start, q.start + q.len));
            *h = (h.0.min(q.start), h.1.max(q.start + q.len));
        }
        let mut sums: HashMap<(Shape, usize), Result<DailySums, String>> = HashMap::new();
        for (&(shape, sensor), &(lo, hi)) in &hulls {
            let q = Query::new(shape, sensor, lo, hi - lo);
            sums.insert((shape, sensor), daily_sums(&sys.somm, shape, &q.sql));
        }
        let mut days: HashMap<(Shape, usize, i64), Result<Digest, String>> = HashMap::new();

        let mut out = HashMap::new();
        for q in distinct {
            let digest = match q.shape {
                Shape::T1 => run(q),
                Shape::T2 | Shape::T3 => (q.start..q.start + q.len)
                    .map(|d| {
                        days.entry((q.shape, q.sensor, d))
                            .or_insert_with(|| run(&Query::new(q.shape, q.sensor, d, 1)))
                            .clone()
                    })
                    .try_fold(None, |acc: Option<Digest>, d| {
                        d.map(|d| Some(acc.map_or(d, |a| a.union(d))))
                    })
                    .map(|d| d.expect("a window has at least one day")),
                Shape::T4 | Shape::T5 | Shape::Fig8 => {
                    sums[&(q.shape, q.sensor)].clone().map(|by_day| {
                        let (sum, n) = (q.start..q.start + q.len)
                            .filter_map(|d| by_day.get(&d))
                            .fold((0.0, 0), |(s, n), (ds, dn)| (s + ds, n + dn));
                        Digest::Avg((n > 0).then(|| sum / n as f64))
                    })
                }
            };
            out.insert(q.sql.clone(), digest);
        }
        out
    }
}

/// Sum and count of the averaged samples, by day of the data.
type DailySums = HashMap<i64, (f64, u64)>;

/// Per-day sums and counts of the samples an average query takes: its
/// own `WHERE` clause, grouped by the day of the column its window
/// bounds (`D.sample_time` for T4, `H.window_start_ts` otherwise).
fn daily_sums(somm: &Sommelier, shape: Shape, avg_sql: &str) -> Result<DailySums, String> {
    let day = if shape == Shape::T4 { "D.sample_time" } else { "H.window_start_ts" };
    let rest = avg_sql
        .strip_prefix("SELECT AVG(D.sample_value) FROM ")
        .expect("an average query selects one average");
    let sql = format!(
        "SELECT DAY_BUCKET({day}) AS day, SUM(D.sample_value) AS total, COUNT(*) AS n \
         FROM {rest} GROUP BY DAY_BUCKET({day})"
    );
    let rel = somm.query(&sql).map_err(|e| e.to_string())?.relation;
    let cols = rel.columns();
    match (cols[0].1.as_ref(), cols[1].1.as_ref(), cols[2].1.as_ref()) {
        (ColumnData::Timestamp(day), ColumnData::Float64(sum), ColumnData::Int64(n)) => {
            Ok(day
                .iter()
                .zip(sum)
                .zip(n)
                .map(|((d, s), n)| (d.div_euclid(MS_PER_DAY) - day0(), (*s, *n as u64)))
                .collect())
        }
        other => Err(format!("unexpected column types of daily sums: {other:?}")),
    }
}

/// A prepared system; its scratch database goes when it drops.
struct System {
    somm: Arc<Sommelier>,
    db_dir: PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.db_dir);
    }
}

/// One query's answer, as checked against the reference.
#[derive(Debug, Clone)]
pub struct Answer {
    pub query: Query,
    /// The answer's digest, or the error the query failed with.
    pub result: Result<Digest, String>,
    /// `ExecStats::accounting_balanced()`.
    pub balanced: bool,
}

/// Engine counters of one pass (setup, first query and sequence).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub compile_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub files_pruned: u64,
    pub stage1: Duration,
    pub load: Duration,
    pub stage2: Duration,
    pub files_loaded: u64,
    pub cache_hits: u64,
    pub bytes_loaded: u64,
    pub union_rows: u64,
    pub rows_loaded: u64,
    pub dmd_windows: u64,
    pub dmd_rows: u64,
    pub dmd_derive: Duration,
    pub prep: PrepReport,
    pub cellar: CellarSnapshot,
    pub cellar_peak_resident: usize,
    /// `(issued, hits, wasted_bytes, io_wait_ns)`.
    pub prefetch: (u64, u64, u64, u64),
    pub admission: AdmissionStats,
    pub sched: Option<SchedStats>,
    pub pool: PoolStatsSnapshot,
}

impl Layers {
    fn add(&mut self, r: &QueryResult) {
        let s = &r.stats;
        self.plan_us.push(r.trace.iter().map(|p| p.nanos).sum::<u64>() as f64 / 1e3);
        self.files_pruned += s.files_pruned as u64;
        self.stage1 += s.stage1;
        self.load += s.load;
        self.stage2 += s.stage2;
        self.files_loaded += s.files_loaded as u64;
        self.cache_hits += s.cache_hits as u64;
        self.bytes_loaded += s.bytes_loaded;
        self.union_rows += s.rows_union_materialized;
        self.rows_loaded += s.rows_loaded;
        if let Some(d) = &r.dmd {
            self.dmd_windows += d.missing as u64;
            self.dmd_rows += d.rows_inserted;
            self.dmd_derive += d.derive_time;
        }
    }

    /// The counts a single-client pass must repeat exactly: files
    /// loaded, cache hits, decoded rows, pool misses, DMd windows.
    pub fn deterministic(&self) -> [(&'static str, u64); 5] {
        [
            ("files_loaded", self.files_loaded),
            ("cache_hits", self.cache_hits),
            ("rows_loaded", self.rows_loaded),
            ("pool_misses", self.pool.misses),
            ("dmd_windows", self.dmd_windows),
        ]
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub setup: Duration,
    pub first: Duration,
    /// Wall time of the query sequence (after the first query).
    pub phase: Duration,
    /// Per-query latency of the sequence, ms.
    pub latencies: Vec<f64>,
    pub high_latencies: Vec<f64>,
    pub low_latencies: Vec<f64>,
    /// Every answer, the first query's included.
    pub answers: Vec<Answer>,
    pub layers: Layers,
    pub db_bytes_per_source_byte: f64,
}

impl Pass {
    pub fn workload(&self) -> Duration {
        self.setup + self.first + self.phase
    }
}

/// The traced pass's recorder plus the span everything hangs off.
#[derive(Clone, Copy)]
struct TraceCtx<'a> {
    rec: &'a Recorder,
    root: u32,
}

/// One timed query, with its spans when traced. `attach` makes the
/// query span the parent of adapter calls: true for a single client,
/// false under concurrent traffic, where adapter calls run on shared
/// workers and belong to the workload.
fn timed_query(
    ctx: &Ctx,
    tr: Option<TraceCtx<'_>>,
    q: u32,
    attach: bool,
    layers: &Mutex<Layers>,
    query: &Query,
    run: impl FnOnce(&str) -> Result<QueryResult, String>,
) -> (f64, Answer) {
    let sql = query.sql.as_str();
    let (res, latency) = match tr {
        None => {
            let t0 = Instant::now();
            let res = run(sql);
            (res, t0.elapsed())
        }
        Some(t) => {
            let qspan = t.rec.reserve();
            let start = t.rec.now_ns();
            let wall = Instant::now();
            if attach {
                t.rec.enter(qspan, Some(q));
            }
            let _ = sommelier_sql::compile(sql, &ctx.catalog);
            let compiled = t.rec.now_ns();
            t.rec.record(
                t.rec.reserve(),
                Some(qspan),
                "sql.compile",
                start,
                compiled,
                Some(q),
                0,
                false,
            );
            let compile_us = (compiled - start) as f64 / 1e3;
            let call = t.rec.now_ns();
            let res = run(sql);
            let latency = wall.elapsed();
            if attach {
                t.rec.enter(t.root, None);
            }
            t.rec.record(
                qspan,
                Some(t.root),
                "query",
                start,
                t.rec.now_ns(),
                Some(q),
                0,
                false,
            );
            if let Ok(r) = &res {
                let plan = Duration::from_nanos(r.trace.iter().map(|p| p.nanos).sum());
                let derive = r.dmd.as_ref().map_or(Duration::ZERO, |d| d.derive_time);
                t.rec.phases(
                    qspan,
                    call,
                    Some(q),
                    &[
                        ("dmd.derive", derive),
                        ("optimizer.passes", plan),
                        ("twostage.stage1", r.stats.stage1),
                        ("twostage.load", r.stats.load),
                        ("twostage.stage2", r.stats.stage2),
                    ],
                );
            }
            layers.lock().expect("layers lock").compile_us.push(compile_us);
            (res, latency)
        }
    };
    let answer = match &res {
        Ok(r) => {
            layers.lock().expect("layers lock").add(r);
            Answer {
                query: query.clone(),
                result: Ok(Digest::of(&r.relation, query.shape.is_avg())),
                balanced: r.stats.accounting_balanced(),
            }
        }
        Err(e) => Answer { query: query.clone(), result: Err(e.clone()), balanced: true },
    };
    (latency.as_secs_f64() * 1e3, answer)
}

/// Run one pass of `w` on a fresh system; traced when `rec` is given.
pub fn run_pass(ctx: &Ctx, w: Workload, plan: &Plan, rec: Option<&Arc<Recorder>>) -> Pass {
    let (config, mode) = w.config();
    let root = rec.map(|r| {
        let root = r.reserve();
        (r, root, r.now_ns())
    });
    let tr = root.map(|(r, root, _)| TraceCtx { rec: r.as_ref(), root });

    // Set-up: build + prepare, with PrepReport phases under `prepare`.
    let setup_span = tr.map(|t| (t.rec.reserve(), t.rec.now_ns()));
    if let (Some(t), Some((id, _))) = (tr, setup_span) {
        t.rec.enter(id, None);
    }
    let (sys, setup, prep) = ctx.system(config, mode, rec);
    if let (Some(t), Some((id, start))) = (tr, setup_span) {
        t.rec.record(id, Some(t.root), "setup", start, t.rec.now_ns(), None, 0, false);
        t.rec.phases(
            id,
            start,
            None,
            &[
                ("prepare.register", prep.register),
                ("prepare.chunks_to_db", prep.chunks_to_db),
                ("prepare.indexing", prep.indexing),
                ("prepare.dmd_derivation", prep.dmd_derivation),
            ],
        );
        t.rec.enter(t.root, None);
    }
    let somm = &sys.somm;
    let source = somm.source_bytes().expect("source bytes").max(1);
    let mut pass = Pass {
        setup,
        db_bytes_per_source_byte: somm.db_bytes() as f64 / source as f64,
        ..Pass::default()
    };
    let layers = Mutex::new(Layers { prep, ..Layers::default() });
    let peak_resident = AtomicUsize::new(0);
    let sample_resident = || {
        if let Some(c) = somm.cellar() {
            peak_resident.fetch_max(c.resident_bytes(), Ordering::Relaxed);
        }
    };

    if w == Workload::ServerMixed {
        let server = Server::new(Arc::clone(somm));
        let session = |priority| {
            server.open_session(SessionOptions { priority, ..SessionOptions::default() })
        };
        let high = session(Priority::High);
        let low = session(Priority::Low);
        let submit = |s: &sommelier_server::Session, sql: &str| {
            s.submit(sql).and_then(|h| h.wait()).map_err(|e| e.to_string())
        };
        let (ms, a) =
            timed_query(ctx, tr, 0, false, &layers, &plan.first, |q| submit(&high, q));
        pass.first = Duration::from_secs_f64(ms / 1e3);
        pass.answers.push(a);
        sample_resident();
        let t0 = Instant::now();
        let clients = std::thread::scope(|scope| {
            let handles: Vec<_> =
                [(&high, &plan.high, 1), (&low, &plan.low, 1 + plan.high.len())]
                    .into_iter()
                    .map(|(s, list, first_id)| {
                        let (layers, sample) = (&layers, &sample_resident);
                        scope.spawn(move || {
                            let mut lat = Vec::new();
                            let mut answers = Vec::new();
                            for (i, query) in list.iter().enumerate() {
                                let id = (first_id + i) as u32;
                                let (ms, a) =
                                    timed_query(ctx, tr, id, false, layers, query, |q| {
                                        submit(s, q)
                                    });
                                sample();
                                lat.push(ms);
                                answers.push(a);
                            }
                            (lat, answers)
                        })
                    })
                    .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
        });
        pass.phase = t0.elapsed();
        let mut clients = clients.into_iter();
        let (hl, ha) = clients.next().expect("high client");
        let (ll, la) = clients.next().expect("low client");
        pass.latencies = hl.iter().chain(&ll).copied().collect();
        pass.answers.extend(ha.into_iter().chain(la));
        pass.high_latencies = hl;
        pass.low_latencies = ll;
    } else {
        let run = |q: &str| somm.query(q).map_err(|e| e.to_string());
        let (ms, a) = timed_query(ctx, tr, 0, true, &layers, &plan.first, run);
        pass.first = Duration::from_secs_f64(ms / 1e3);
        pass.answers.push(a);
        sample_resident();
        let t0 = Instant::now();
        for (i, query) in plan.sequence.iter().enumerate() {
            let (ms, a) = timed_query(ctx, tr, i as u32 + 1, true, &layers, query, run);
            sample_resident();
            pass.latencies.push(ms);
            pass.answers.push(a);
        }
        pass.phase = t0.elapsed();
    }

    let mut layers = layers.into_inner().expect("layers lock");
    if let Some(c) = somm.cellar() {
        layers.cellar = c.stats();
    }
    layers.cellar_peak_resident = peak_resident.into_inner();
    layers.prefetch = somm.prefetch_stage().map_or((0, 0, 0, 0), |p| p.stats());
    layers.admission = somm.admission_stats();
    layers.sched = somm.scheduler().map(|s| s.stats());
    layers.pool = somm.db().pool().stats().snapshot();
    pass.layers = layers;
    if let Some((r, id, start)) = root {
        r.record(id, None, "pass", start, r.now_ns(), None, 0, false);
    }
    pass
}
