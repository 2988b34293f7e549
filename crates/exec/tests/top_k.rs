//! `ORDER BY … LIMIT k` keeps `k` rows: lowering gives a machine-keyed
//! Sort under a `StopAfter` a `keep` (`top=k` in EXPLAIN), and the sort
//! holds a heap of that many rows instead of sorting its whole input.
//! What it emits must be exactly the first `k` rows of the full stable
//! sort — ties in arrival order — and what it asks the crowd must be
//! exactly what the full sort asked.

use crowddb_common::rng::Rng;
use crowddb_common::{Row, Value};
use crowddb_exec::{execute_physical, lower_plan, CompareCaches, ExecResult};
use crowddb_plan::{optimize, Binder, OptimizerConfig, PhysicalPlan};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

/// `t` with duplicate INTEGER keys, FLOAT keys, NULLs in both, strings,
/// and a CROWD column whose `CNULL`s a scan that reads it probes.
fn world(rng: &mut Rng, n: i64) -> Database {
    let db = Database::new();
    let ddl = "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b FLOAT, s STRING, \
               c CROWD INTEGER)";
    let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
        panic!("{ddl}")
    };
    let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
    db.create_table(schema).unwrap();
    for id in 0..n {
        let a = match rng.gen_range(0..5) {
            0 => Value::Null,
            _ => Value::Int(rng.gen_range(-3..4)),
        };
        let b = match rng.gen_range(0..5) {
            0 => Value::Null,
            1 => Value::Float(-0.0),
            _ => Value::Float(f64::from(rng.gen_range(-6..7i32)) / 2.0),
        };
        let s = Value::str(["x", "y", "z", ""][rng.gen_range(0..4usize)]);
        let c = match rng.gen_bool(0.3) {
            true => Value::CNull,
            false => Value::Int(rng.gen_range(0..3)),
        };
        db.insert("t", Row::new(vec![Value::Int(id), a, b, s, c]))
            .unwrap();
    }
    db
}

fn plan(db: &Database, sql: &str) -> PhysicalPlan {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let stats = crowddb_exec::live_row_stats(db);
    lower_plan(db, &optimize(bound, &stats, &OptimizerConfig::default()))
}

fn run(db: &Database, physical: &PhysicalPlan) -> ExecResult {
    execute_physical(db, &CompareCaches::default(), physical)
        .unwrap()
        .0
}

/// `Value`'s `==` holds `3 == 3.0` and `0.0 == -0.0`; the debug text
/// tells the variants and the zeros apart.
fn exact(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// The same plan with every sort's `keep` taken out: how `ORDER BY …
/// LIMIT` ran before it kept `k` rows.
fn full_sort(plan: &PhysicalPlan) -> PhysicalPlan {
    let mut plan = plan.clone();
    fn strip(p: &mut PhysicalPlan) {
        match p {
            PhysicalPlan::Sort { keep, input, .. } => {
                *keep = None;
                strip(input);
            }
            PhysicalPlan::StopAfter { input, .. } | PhysicalPlan::Project { input, .. } => {
                strip(input)
            }
            _ => {}
        }
    }
    strip(&mut plan);
    plan
}

const KEYS: &[&str] = &[
    "a",
    "a DESC",
    "COALESCE(a, b)",
    "COALESCE(a, b) DESC, id",
    "b DESC, a",
    "s, a DESC, b",
    "a, b DESC",
    "c",
];

#[test]
fn top_k_is_the_prefix_of_the_full_stable_sort() {
    let mut rng = Rng::seed_from_u64(0x70_4B);
    let mut checked = 0;
    for n in [0i64, 1, 2, 7, 40, 300] {
        let db = world(&mut rng, n);
        let n = n as usize;
        for keys in KEYS {
            // `c` is read but not asked for here: no CNULL probe.
            let full = plan(&db, &format!("SELECT id, a, b, s FROM t ORDER BY {keys}"));
            let sorted = run(&db, &full).rows;
            assert_eq!(sorted.len(), n);
            for limit in [0, 1, 3, n.saturating_sub(1), n, n + 5] {
                for offset in [0, 1, 4, n] {
                    let sql = format!(
                        "SELECT id, a, b, s FROM t ORDER BY {keys} LIMIT {limit} OFFSET {offset}"
                    );
                    let top = plan(&db, &sql);
                    let shown = top.explain();
                    assert!(
                        shown.contains(&format!(" top={}", limit + offset)),
                        "{sql}:\n{shown}"
                    );
                    let want = &sorted[offset.min(n)..(offset + limit).min(n)];
                    assert_eq!(exact(&run(&db, &top).rows), exact(want), "{sql}");
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 6 * KEYS.len() * 6 * 4);
}

/// Over a scan that probes `CNULL`s the sort collects its input whole
/// (`ops` invariant (i)); keeping `k` rows must not change what the
/// round asks, in which order, nor the rows it shows.
#[test]
fn top_k_over_a_probing_scan_records_the_needs_of_the_full_sort() {
    let mut rng = Rng::seed_from_u64(0xC0_11);
    let db = world(&mut rng, 120);
    for sql in [
        "SELECT id, c FROM t ORDER BY a DESC, id LIMIT 5",
        "SELECT c, a FROM t ORDER BY c, b DESC LIMIT 3 OFFSET 2",
        "SELECT id FROM t WHERE c > 0 ORDER BY b LIMIT 4",
    ] {
        let top = plan(&db, sql);
        assert!(top.explain().contains(" top="), "{sql}:\n{}", top.explain());
        let (kept, full) = (run(&db, &top), run(&db, &full_sort(&top)));
        assert!(!full.needs.is_empty(), "{sql} probes nothing");
        let keys = |r: &ExecResult| r.needs.iter().map(|n| n.dedup_key()).collect::<Vec<_>>();
        assert_eq!(keys(&kept), keys(&full), "{sql}");
        assert_eq!(kept.stats, full.stats, "{sql}");
        assert_eq!(exact(&kept.rows), exact(&full.rows), "{sql}");
    }
}

/// Where keeping `k` rows would change what is asked or evaluated, the
/// sort keeps every row: a projection above it that asks the crowd or
/// reads a subquery, and a `CROWDORDER` sort, whose comparisons are the
/// bill. Beside each, its machine twin, which does keep `k`.
#[test]
fn top_k_stays_below_what_would_see_fewer_rows() {
    let mut rng = Rng::seed_from_u64(7);
    let db = world(&mut rng, 10);
    for (blocked, twin) in [
        (
            "SELECT id, (SELECT COUNT(*) FROM t) FROM t ORDER BY a LIMIT 2",
            "SELECT id, 7 FROM t ORDER BY a LIMIT 2",
        ),
        (
            "SELECT id, s ~= 'x' FROM t ORDER BY a LIMIT 2",
            "SELECT id, s = 'x' FROM t ORDER BY a LIMIT 2",
        ),
        (
            "SELECT id FROM t ORDER BY CROWDORDER(s, 'Which is better?') LIMIT 2",
            "SELECT id FROM t ORDER BY s LIMIT 2",
        ),
        (
            "SELECT id FROM t ORDER BY a OFFSET 3",
            "SELECT id FROM t ORDER BY a LIMIT 0 OFFSET 3",
        ),
    ] {
        let shown = plan(&db, blocked).explain();
        assert!(!shown.contains("top="), "{blocked}:\n{shown}");
        let shown = plan(&db, twin).explain();
        assert!(shown.contains(" top="), "{twin}:\n{shown}");
    }
}
