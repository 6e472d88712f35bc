//! One seeded benchmark of the sommelier: data-to-insight, query
//! latency and two-tenant throughput over the INGV dataset.
//!
//! ```sh
//! cargo run --release --offline --manifest-path sommbench/Cargo.toml -- \
//!     --workload explore-lazy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced passes;
//! `--trace 1` runs one untraced and one traced pass with the same seed
//! and prints the per-layer metrics. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` beside this file for the workloads and metrics.

mod trace;
mod util;
mod workloads;

use sommelier_bench::datasets::{dataset, BenchScale, DatasetKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use util::{mb, median, percentile, ratio, Digest};
use workloads::{run_pass, Answer, Ctx, Pass, Plan, Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    data_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: sommbench --workload <explore-lazy|eager-load|server-mixed> \
         --seed <n> --seconds <n> --trace <0|1> [--scale full|tiny] [--data-dir <dir>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else { usage(&format!("unexpected {k:?}")) };
        let v = it.next().unwrap_or_else(|| usage(&format!("{k} needs a value")));
        kv.insert(name.to_string(), v);
    }
    let get =
        |k: &str| kv.get(k).cloned().unwrap_or_else(|| usage(&format!("--{k} is required")));
    let num =
        |k: &str| get(k).parse::<u64>().unwrap_or_else(|_| usage(&format!("bad --{k}")));
    let workload =
        Workload::parse(&get("workload")).unwrap_or_else(|| usage("unknown workload"));
    let size = match kv.get("scale").map(String::as_str) {
        None | Some("full") => Size::FULL,
        Some("tiny") => Size::TINY,
        Some(other) => usage(&format!("unknown scale {other:?}")),
    };
    Args {
        workload,
        seed: num("seed"),
        seconds: num("seconds"),
        trace: num("trace") != 0,
        size,
        data_dir: kv
            .get("data-dir")
            .map_or_else(|| PathBuf::from(".sommbench"), PathBuf::from),
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Check every answer against the reference: wrong answers, errors and
/// unbalanced chunk accounting each fail the query. Returns the number
/// of failed queries and prints each one.
fn check(answers: &[Answer], reference: &HashMap<String, Result<Digest, String>>) -> usize {
    let mut failed = 0;
    for (i, a) in answers.iter().enumerate() {
        let why = match (&a.result, reference.get(&a.query.sql)) {
            (Err(e), _) => Some(format!("error: {e}")),
            (Ok(_), _) if !a.balanced => Some("chunk accounting unbalanced".to_string()),
            (Ok(d), Some(Ok(r))) if d.matches(r) => None,
            (Ok(d), Some(Ok(r))) => Some(format!("answer {d:?} != reference {r:?}")),
            (Ok(_), Some(Err(e))) => Some(format!("reference failed: {e}")),
            (Ok(_), None) => Some("no reference answer".to_string()),
        };
        if let Some(why) = why {
            failed += 1;
            println!("FAILED answer #{i}: {why}: {}", a.query.sql);
        }
    }
    failed
}

/// Compare the deterministic counts of single-client passes.
fn counts_repeat(what: &str, a: &Pass, b: &Pass) -> bool {
    let (x, y) = (a.layers.deterministic(), b.layers.deterministic());
    let same = x == y;
    if !same {
        println!("FAILED count check ({what}): {x:?} != {y:?}");
    }
    same
}

/// End-to-end metrics. Every pass replays the same queries on a fresh
/// system, so each metric is measured per pass and reported as the
/// median over the passes (set-up time over every set-up), and one pass
/// hit by a burst of foreign load does not move it. A pass holds at
/// least 1 000 queries (100 on `eager-load`), so 10 samples lie beyond
/// its p99 (its p90).
fn end_to_end(passes: &[Pass], setups: &[f64], peak_rss: f64) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let secs = |d: Duration| d.as_secs_f64();
    vec![
        ("setup_s", median(setups), "s"),
        ("data_to_insight_s", per_pass(&|p| secs(p.setup + p.first)), "s"),
        ("workload_s", per_pass(&|p| secs(p.workload())), "s"),
        ("qps", per_pass(&|p| ratio(p.latencies.len() as f64, secs(p.phase))), "1/s"),
        ("query_p50_ms", per_pass(&|p| percentile(&p.latencies, 0.50)), "ms"),
        ("query_p90_ms", per_pass(&|p| percentile(&p.latencies, 0.90)), "ms"),
        ("query_p99_ms", per_pass(&|p| percentile(&p.latencies, 0.99)), "ms"),
        ("peak_rss_mb", peak_rss, "MB"),
        ("db_bytes_per_source_byte", passes[0].db_bytes_per_source_byte, "ratio"),
    ]
}

fn per_layer(
    traced: &Pass,
    untraced: &Pass,
    rec: &Recorder,
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    let l = &traced.layers;
    let spans = rec.spans();
    let sum = |name: &str, f: &dyn Fn(&trace::Span) -> f64| -> f64 {
        spans.iter().filter(|s| s.name == name).map(f).sum()
    };
    let count = |name: &str| sum(name, &|_| 1.0);
    let secs = |name: &str| sum(name, &|s| s.dur_ns() as f64 / 1e9);
    let value = |name: &str| sum(name, &|s| s.value as f64);
    let selfs = trace::self_times(&spans);
    let (q_self, q_wall) = spans
        .iter()
        .filter(|s| s.name == "query")
        .fold((0u64, 0u64), |(a, b), s| (a + selfs[&s.id], b + s.dur_ns()));
    let c = &l.cellar;
    let (issued, useful, wasted, io_wait) = l.prefetch;
    let sched = l.sched.unwrap_or_default();
    let busy = sched.busy_ns as f64 / 1e9;
    let p = &l.pool;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    vec![
        ("sql.compile_us_p50", median(&l.compile_us), "us"),
        ("optimizer.plan_us_p50", median(&l.plan_us), "us"),
        ("optimizer.files_pruned", l.files_pruned as f64, "count"),
        ("twostage.stage1_ms", ms(l.stage1), "ms"),
        ("twostage.load_ms", ms(l.load), "ms"),
        ("twostage.stage2_ms", ms(l.stage2), "ms"),
        ("twostage.files_loaded", l.files_loaded as f64, "count"),
        ("twostage.cache_hits", l.cache_hits as f64, "count"),
        ("twostage.bytes_loaded_mb", mb(l.bytes_loaded), "MB"),
        ("twostage.union_rows", l.union_rows as f64, "count"),
        ("mseed.register_s", secs("mseed.register"), "s"),
        ("mseed.fetch_calls", count("mseed.fetch_bytes"), "count"),
        ("mseed.fetch_s", secs("mseed.fetch_bytes"), "s"),
        ("mseed.fetch_mb", value("mseed.fetch_bytes") / (1024.0 * 1024.0), "MB"),
        ("mseed.decode_calls", count("mseed.decode") + count("mseed.decode_bytes"), "count"),
        ("mseed.decode_s", secs("mseed.decode") + secs("mseed.decode_bytes"), "s"),
        ("mseed.decode_rows", value("mseed.decode") + value("mseed.decode_bytes"), "count"),
        ("loader.chunks_to_db_s", l.prep.chunks_to_db.as_secs_f64(), "s"),
        ("loader.indexing_s", l.prep.indexing.as_secs_f64(), "s"),
        ("loader.dmd_derivation_s", l.prep.dmd_derivation.as_secs_f64(), "s"),
        ("loader.rows_loaded", l.prep.rows_loaded as f64, "count"),
        ("dmd.windows_derived", l.dmd_windows as f64, "count"),
        ("dmd.rows_inserted", l.dmd_rows as f64, "count"),
        ("dmd.derive_s", l.dmd_derive.as_secs_f64(), "s"),
        ("cellar.hits", c.hits as f64, "count"),
        ("cellar.loads", c.loads as f64, "count"),
        ("cellar.reloads", c.reloads as f64, "count"),
        ("cellar.evictions", c.evictions as f64, "count"),
        ("cellar.hit_ratio", ratio(c.hits as f64, (c.hits + c.loads) as f64), "ratio"),
        ("cellar.pin_wait_ms", c.pin_wait_ns as f64 / 1e6, "ms"),
        ("cellar.peak_resident_mb", mb(l.cellar_peak_resident as u64), "MB"),
        ("prefetch.issued", issued as f64, "count"),
        ("prefetch.useful_ratio", ratio(useful as f64, issued as f64), "ratio"),
        ("prefetch.wasted_mb", mb(wasted), "MB"),
        ("prefetch.io_wait_s", io_wait as f64 / 1e9, "s"),
        ("admission.queue_wait_ms", l.admission.queue_wait_ns as f64 / 1e6, "ms"),
        ("admission.rejected", l.admission.rejected as f64, "count"),
        ("sched.tasks", sched.tasks as f64, "count"),
        ("sched.busy_s", busy, "s"),
        (
            "sched.utilization",
            ratio(busy, sched.workers as f64 * traced.workload().as_secs_f64()),
            "ratio",
        ),
        ("server.high_p90_ms", percentile(&traced.high_latencies, 0.90), "ms"),
        ("server.low_p90_ms", percentile(&traced.low_latencies, 0.90), "ms"),
        ("storage.pool_hits", p.hits as f64, "count"),
        ("storage.pool_misses", p.misses as f64, "count"),
        ("storage.pool_hit_ratio", ratio(p.hits as f64, (p.hits + p.misses) as f64), "ratio"),
        ("storage.pool_read_mb", mb(p.bytes_read), "MB"),
        ("query.unaccounted_pct", 100.0 * ratio(q_self as f64, q_wall as f64), "%"),
        (
            "trace.overhead_pct",
            100.0 * (ratio(traced.phase.as_secs_f64(), untraced.phase.as_secs_f64()) - 1.0),
            "%",
        ),
        ("failed_frac", ratio(failed as f64, attempted as f64), "ratio"),
    ]
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let scale = BenchScale {
        sfs: vec![args.size.sf],
        samples_per_seg: args.size.samples_per_seg,
        data_dir: args.data_dir.join("data"),
        ..BenchScale::tiny()
    };
    std::fs::create_dir_all(&scale.data_dir).expect("creating the data directory");
    let (repo, stats) = dataset(&scale, DatasetKind::Ingv, args.size.sf);
    println!(
        "dataset: INGV sf-{} at {} samples/segment: {} files, {} samples, {:.1} MB of mSEED",
        args.size.sf,
        args.size.samples_per_seg,
        stats.files,
        stats.samples,
        mb(stats.bytes)
    );
    let ctx = Ctx::new(repo.dir().to_path_buf(), args.data_dir.join("db"));
    let plan = Plan::generate(w, args.seed, &args.size);
    let budget = Duration::from_secs(args.seconds);

    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut rec: Option<Arc<Recorder>> = None;
    let mut counts_ok = true;
    let mut peak_rss = 0.0;
    if !args.trace {
        // Fixed-size passes while another pass of average length still
        // fits in the measuring time; always at least one. Each pass is
        // followed by set-ups timed on their own, so set-up time is
        // sampled across the whole run.
        let t0 = Instant::now();
        util::reset_peak_rss();
        loop {
            passes.push(run_pass(&ctx, w, &plan, None));
            if passes.len() == 1 {
                // The peak since the reset: the first pass alone. Later
                // passes reuse memory the allocator kept.
                peak_rss = util::peak_rss_mb();
            }
            for _ in 0..args.size.setups_per_pass(w) {
                setups.push(ctx.setup_only(w).as_secs_f64());
            }
            let spent = t0.elapsed();
            if spent + spent / passes.len() as u32 > budget {
                break;
            }
        }
        setups.extend(passes.iter().map(|p| p.setup.as_secs_f64()));
        if w.single_client() {
            for (i, p) in passes.iter().enumerate().skip(1) {
                counts_ok &= counts_repeat(&format!("pass {i} vs pass 0"), &passes[0], p);
            }
        }
    } else {
        passes.push(run_pass(&ctx, w, &plan, None));
        let r = Arc::new(Recorder::new());
        passes.push(run_pass(&ctx, w, &plan, Some(&r)));
        if w.single_client() {
            counts_ok = counts_repeat("traced vs untraced", &passes[0], &passes[1]);
        }
        rec = Some(r);
    }

    let answers: Vec<Answer> =
        passes.iter().flat_map(|p| p.answers.iter().cloned()).collect();
    let t_ref = Instant::now();
    let reference = ctx.reference(w, answers.iter().map(|a| &a.query));
    println!(
        "reference: {} distinct queries in {:.1} s",
        reference.len(),
        t_ref.elapsed().as_secs_f64()
    );
    let failed = check(&answers, &reference);
    let attempted = answers.len();

    let metrics = match &rec {
        None => end_to_end(&passes, &setups, peak_rss),
        Some(r) => {
            let path = args.data_dir.join("trace").join(format!(
                "{}-seed{}.jsonl",
                w.name(),
                args.seed
            ));
            match r.dump(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => println!("could not write spans to {}: {e}", path.display()),
            }
            println!("{:<24} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
            for (name, n, total, own) in trace::summary(&r.spans()) {
                println!(
                    "{name:<24} {n:>8} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
            per_layer(&passes[1], &passes[0], r, attempted, failed)
        }
    };
    println!(
        "{} seed {}: {} pass(es), {} queries attempted, {} failed; counts of pass 0: {:?}",
        w.name(),
        args.seed,
        passes.len(),
        attempted,
        failed,
        passes[0].layers.deterministic()
    );
    for (i, p) in passes.iter().enumerate() {
        println!(
            "pass {i}: workload {:.3} s, p50 {:.3} ms, p99 {:.3} ms",
            p.workload().as_secs_f64(),
            percentile(&p.latencies, 0.50),
            percentile(&p.latencies, 0.99)
        );
    }
    for (name, v, unit) in &metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && counts_ok,
        body.join(", ")
    );
}
