//! Microbenchmarks of the core data structures and algorithms:
//! the Steim-style codec, buffer pool, join implementations, the
//! R1–R4 join-order optimizer, the recycler, and timestamp parsing.

use criterion::{criterion_group, criterion_main, Criterion};
use sommelier_engine::expr::Expr;
use sommelier_engine::graph::QueryGraph;
use sommelier_engine::join::hash_join;
use sommelier_engine::joinorder::{order_metadata_first, order_traditional, PlanOptions};
use sommelier_engine::relation::Relation;
use sommelier_engine::spec::{JoinEdge, OutputExpr, QuerySpec, TableRef};
use sommelier_engine::Recycler;
use sommelier_mseed::gen::{generate_segment, WaveformParams};
use sommelier_mseed::steim;
use sommelier_storage::buffer::{BufferPool, BufferPoolConfig};
use sommelier_storage::index::HashIndex;
use sommelier_storage::page::PageKey;
use sommelier_storage::{ColumnData, TableClass};
use std::hint::black_box;
use std::sync::Arc;

fn bench_steim(c: &mut Criterion) {
    let samples = generate_segment(7, &WaveformParams::default(), 0, 20.0, 65_536);
    let encoded = steim::encode(&samples);
    let mut g = c.benchmark_group("steim");
    g.throughput(criterion::Throughput::Elements(samples.len() as u64));
    g.bench_function("encode_64k", |b| b.iter(|| steim::encode(black_box(&samples))));
    g.bench_function("decode_64k", |b| {
        b.iter(|| steim::decode(black_box(&encoded), samples.len()).unwrap())
    });
    g.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    // One 2 MiB file, pool sized to half of it: mixed hits and misses.
    let dir = std::env::temp_dir().join(format!("somm-bench-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.bin");
    std::fs::write(&path, vec![7u8; 4096 + 2 * 1024 * 1024]).unwrap();
    let pool =
        BufferPool::new(BufferPoolConfig { capacity_bytes: 1024 * 1024, sim_io: None });
    let fid = pool.disk().register(&path).unwrap();
    let mut g = c.benchmark_group("buffer_pool");
    g.bench_function("hit", |b| {
        pool.get_page(PageKey { file: fid, page_no: 0 }).unwrap();
        b.iter(|| pool.get_page(black_box(PageKey { file: fid, page_no: 0 })).unwrap())
    });
    g.bench_function("sweep_with_evictions", |b| {
        b.iter(|| {
            for p in 0..32u32 {
                pool.get_page(PageKey { file: fid, page_no: p }).unwrap();
            }
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn join_inputs(rows: usize) -> (Relation, Relation) {
    let child = Relation::new(vec![
        ("D.file_id".into(), ColumnData::Int64((0..rows as i64).map(|i| i % 64).collect())),
        ("D.v".into(), ColumnData::Float64((0..rows).map(|i| i as f64).collect())),
    ])
    .unwrap();
    let parent = Relation::new(vec![
        ("F.file_id".into(), ColumnData::Int64((0..64).collect())),
        ("F.station".into(), ColumnData::Int64((0..64).map(|i| i * 10).collect())),
    ])
    .unwrap();
    (child, parent)
}

fn bench_joins(c: &mut Criterion) {
    let (child, parent) = join_inputs(100_000);
    let positions: Vec<u32> = (0..100_000u32).map(|i| i % 64).collect();
    let child_prov = child.clone().with_provenance("D", (0..100_000u32).collect());
    let mut g = c.benchmark_group("join_100k");
    g.bench_function("hash", |b| {
        b.iter(|| {
            hash_join(
                black_box(&child),
                black_box(&parent),
                &[Expr::col("D.file_id")],
                &[Expr::col("F.file_id")],
            )
            .unwrap()
        })
    });
    g.bench_function("index", |b| {
        b.iter(|| {
            sommelier_engine::join::index_join(
                black_box(&child_prov),
                black_box(&parent),
                &positions,
                None,
            )
            .unwrap()
        })
    });
    g.bench_function("hash_index_build", |b| {
        let keys = child.column("D.file_id").unwrap();
        b.iter(|| HashIndex::build(black_box(&[keys])))
    });
    g.finish();
}

/// The windowdataview-shaped four-table spec.
fn window_spec() -> QuerySpec {
    QuerySpec {
        tables: vec![
            TableRef { name: "F".into(), class: TableClass::MetadataGiven },
            TableRef { name: "S".into(), class: TableClass::MetadataGiven },
            TableRef { name: "H".into(), class: TableClass::MetadataDerived },
            TableRef { name: "D".into(), class: TableClass::ActualData },
        ],
        joins: vec![
            JoinEdge::new(
                "F",
                "S",
                vec![Expr::col("F.file_id")],
                vec![Expr::col("S.file_id")],
            )
            .unwrap(),
            JoinEdge::new(
                "F",
                "H",
                vec![Expr::col("F.station")],
                vec![Expr::col("H.window_station")],
            )
            .unwrap(),
            JoinEdge::new("S", "D", vec![Expr::col("S.seg_id")], vec![Expr::col("D.seg_id")])
                .unwrap(),
        ],
        predicates: vec![("F".into(), Expr::col("F.station").eq(Expr::lit("ISK")))],
        output: vec![OutputExpr::Column {
            name: "v".into(),
            expr: Expr::col("D.sample_value"),
        }],
        ..QuerySpec::default()
    }
}

fn bench_joinorder(c: &mut Criterion) {
    let spec = window_spec();
    let graph = QueryGraph::from_spec(&spec).unwrap();
    let opts = PlanOptions::with_qf_columns(&["F.uri"]);
    let mut g = c.benchmark_group("joinorder");
    g.bench_function("metadata_first_r1_r4", |b| {
        b.iter(|| order_metadata_first(black_box(&graph), &spec, &opts).unwrap())
    });
    g.bench_function("traditional", |b| {
        b.iter(|| order_traditional(black_box(&graph), &spec).unwrap())
    });
    g.bench_function("graph_coloring", |b| {
        b.iter(|| QueryGraph::from_spec(black_box(&spec)).unwrap())
    });
    g.finish();
}

fn bench_recycler(c: &mut Criterion) {
    let rel = Arc::new(
        Relation::new(vec![("D.v".into(), ColumnData::Int64(vec![0; 1_000]))]).unwrap(),
    );
    let recycler = Recycler::new(64 * 1024 * 1024);
    for i in 0..128 {
        recycler.put(&format!("chunk-{i}"), Arc::clone(&rel));
    }
    let mut g = c.benchmark_group("recycler");
    g.bench_function("get_hit", |b| b.iter(|| recycler.get(black_box("chunk-64"))));
    g.bench_function("get_miss", |b| b.iter(|| recycler.get(black_box("absent"))));
    g.bench_function("put_evicting", |b| {
        let small = Recycler::new(rel.approx_bytes() * 4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            small.put(&format!("c{i}"), Arc::clone(&rel));
        })
    });
    g.finish();
}

fn bench_time_parsing(c: &mut Criterion) {
    let mut g = c.benchmark_group("time");
    g.bench_function("parse_ts", |b| {
        b.iter(|| {
            sommelier_storage::time::parse_ts(black_box("2010-04-20T23:15:42.123")).unwrap()
        })
    });
    g.bench_function("format_ts", |b| {
        b.iter(|| sommelier_storage::time::format_ts(black_box(1_271_804_142_123)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_steim,
    bench_buffer_pool,
    bench_joins,
    bench_joinorder,
    bench_recycler,
    bench_time_parsing
);
criterion_main!(benches);
