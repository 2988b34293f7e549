//! Criterion microbenchmarks of the storage substrate: row codec,
//! indexed inserts, point lookups vs scans, and snapshot round-trips.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use crowddb_common::{codec, row, Row, Value};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

fn make_db(rows: usize) -> Database {
    let db = Database::new();
    let Statement::CreateTable(ct) = parse_statement(
        "CREATE TABLE talk (title STRING PRIMARY KEY, abstract STRING, nb INTEGER)",
    )
    .unwrap() else {
        panic!()
    };
    let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
    db.create_table(schema).unwrap();
    for i in 0..rows {
        db.insert(
            "talk",
            row![format!("talk-{i:05}"), format!("abstract {i}"), i as i64],
        )
        .unwrap();
    }
    db
}

fn bench_codec(c: &mut Criterion) {
    let rows: Vec<Row> = (0..1000)
        .map(|i| row![i as i64, format!("value-{i}"), i % 2 == 0, Value::CNull])
        .collect();
    c.bench_function("codec_encode_1k_rows", |b| {
        b.iter(|| codec::encode_rows(black_box(&rows)))
    });
    let encoded = codec::encode_rows(&rows);
    c.bench_function("codec_decode_1k_rows", |b| {
        b.iter(|| codec::decode_rows(black_box(&encoded)).unwrap())
    });
}

fn bench_insert_with_pk_index(c: &mut Criterion) {
    c.bench_function("insert_row_with_pk_index", |b| {
        let db = make_db(0);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            db.insert("talk", row![format!("t{i}"), "a", i as i64])
                .unwrap()
        })
    });
}

fn bench_lookup_vs_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("pk_lookup_vs_scan");
    for n in [100usize, 1000, 10_000] {
        let db = make_db(n);
        let key = vec![Value::str(format!("talk-{:05}", n / 2))];
        g.bench_with_input(BenchmarkId::new("pk_lookup", n), &db, |b, db| {
            b.iter(|| {
                db.with_table("talk", |t| t.lookup_pk(black_box(&key)).map(|v| v.len()))
                    .unwrap()
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &db, |b, db| {
            b.iter(|| {
                db.with_table("talk", |t| t.scan_rows().map(|v| v.len()))
                    .unwrap()
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let db = make_db(5000);
    c.bench_function("snapshot_5k_rows", |b| b.iter(|| db.snapshot()));
    let snap = db.snapshot().unwrap();
    c.bench_function("restore_5k_rows", |b| {
        b.iter(|| Database::restore(black_box(&snap)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_codec,
    bench_insert_with_pk_index,
    bench_lookup_vs_scan,
    bench_snapshot
);
criterion_main!(benches);
