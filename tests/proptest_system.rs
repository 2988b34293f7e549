//! System-level property tests: random data through the full
//! parse→bind→optimize→execute stack must satisfy SQL invariants, and
//! optimization must never change results.
//!
//! Each property is a seeded loop: case `n` draws its input from
//! `Rng::seed_from_u64(n)`, and a failing case prints its seed and input.

use std::collections::HashSet;
use std::fmt::Debug;

use crowddb::{CrowdDB, Value};
use crowddb_common::rng::Rng;

/// Check `property` on `cases` inputs, input `n` generated from seed `n`.
/// To replay one case, generate from its seed alone.
fn for_all<T: Debug>(cases: u64, generate: impl Fn(&mut Rng) -> T, property: impl Fn(&T)) {
    /// Names the case on the way out of a failed assertion.
    struct Report<'a, T: Debug>(u64, &'a T);
    impl<T: Debug> Drop for Report<'_, T> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at seed {} with input {:?}", self.0, self.1);
            }
        }
    }
    for seed in 0..cases {
        let input = generate(&mut Rng::seed_from_u64(seed));
        let _report = Report(seed, &input);
        property(&input);
    }
}

/// Build a CrowdDB with `rows` of (id, grp, score) in table `t`.
fn seeded_db(rows: &[(i64, String, i64)]) -> CrowdDB {
    let db = CrowdDB::new();
    db.execute_local("CREATE TABLE t (id INTEGER PRIMARY KEY, grp STRING, score INTEGER)")
        .unwrap();
    for (id, grp, score) in rows {
        db.execute_local(&format!(
            "INSERT INTO t VALUES ({id}, '{}', {score})",
            grp.replace('\'', "''")
        ))
        .unwrap();
    }
    db
}

/// `(id in 0..1000, one letter of `letters`)` rows, fewer than `max_len`
/// of them, with distinct ids (first occurrence kept).
fn keyed_letters(rng: &mut Rng, max_len: usize, letters: &[u8]) -> Vec<(i64, String)> {
    let mut seen = HashSet::new();
    (0..rng.gen_range(0..max_len))
        .map(|_| {
            let letter = letters[rng.gen_range(0..letters.len())];
            (rng.gen_range(0..1000), char::from(letter).to_string())
        })
        .filter(|(id, _)| seen.insert(*id))
        .collect()
}

type Rows = Vec<(i64, String, i64)>;

/// 0–39 rows of `(id in 0..1000, grp in a–d, score in -100..100)`.
fn rows(rng: &mut Rng) -> Rows {
    keyed_letters(rng, 40, b"abcd")
        .into_iter()
        .map(|(id, grp)| (id, grp, rng.gen_range(-100..100)))
        .collect()
}

const CASES: u64 = 64;

#[test]
fn select_star_returns_all_rows() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let r = db.execute_local("SELECT * FROM t").unwrap();
        assert_eq!(r.rows.len(), rows.len());
    });
}

#[test]
fn order_by_sorts_and_limit_windows() {
    let input = |rng: &mut Rng| (rows(rng), rng.gen_range(0..20u64), rng.gen_range(0..10u64));
    for_all(CASES, input, |(rows, limit, offset)| {
        let db = seeded_db(rows);
        let r = db
            .execute_local(&format!(
                "SELECT score FROM t ORDER BY score LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap();
        // Sortedness.
        let got: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        for w in got.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Window matches the reference computation.
        let mut expected: Vec<i64> = rows.iter().map(|(_, _, s)| *s).collect();
        expected.sort_unstable();
        let lo = (*offset as usize).min(expected.len());
        let hi = (lo + *limit as usize).min(expected.len());
        assert_eq!(got, expected[lo..hi]);
    });
}

#[test]
fn where_filter_matches_reference() {
    let input = |rng: &mut Rng| (rows(rng), rng.gen_range(-100..100i64));
    for_all(CASES, input, |(rows, threshold)| {
        let db = seeded_db(rows);
        let r = db
            .execute_local(&format!("SELECT id FROM t WHERE score > {threshold}"))
            .unwrap();
        let expected: HashSet<i64> = rows
            .iter()
            .filter(|(_, _, s)| s > threshold)
            .map(|(id, _, _)| *id)
            .collect();
        let got: HashSet<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn group_by_count_partitions_rows() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let r = db
            .execute_local("SELECT grp, COUNT(*) FROM t GROUP BY grp")
            .unwrap();
        let total: i64 = r.rows.iter().map(|x| x[1].as_i64().unwrap()).sum();
        assert_eq!(total, rows.len() as i64);
        // Each group's count matches the reference.
        for row in &r.rows {
            let g = row[0].to_string();
            let expected = rows.iter().filter(|(_, rg, _)| *rg == g).count() as i64;
            assert_eq!(row[1].as_i64().unwrap(), expected);
        }
    });
}

#[test]
fn aggregates_match_reference() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let r = db
            .execute_local("SELECT COUNT(*), SUM(score), MIN(score), MAX(score) FROM t")
            .unwrap();
        let row = &r.rows[0];
        assert_eq!(row[0].as_i64().unwrap(), rows.len() as i64);
        if rows.is_empty() {
            assert_eq!(&row[1], &Value::Null);
            assert_eq!(&row[2], &Value::Null);
        } else {
            let scores = || rows.iter().map(|x| x.2);
            assert_eq!(row[1].as_i64().unwrap(), scores().sum::<i64>());
            assert_eq!(row[2].as_i64().unwrap(), scores().min().unwrap());
            assert_eq!(row[3].as_i64().unwrap(), scores().max().unwrap());
        }
    });
}

#[test]
fn self_join_on_key_is_identity_sized() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let r = db
            .execute_local("SELECT a.id FROM t a JOIN t b ON a.id = b.id")
            .unwrap();
        assert_eq!(r.rows.len(), rows.len());
    });
}

#[test]
fn distinct_never_increases_rows() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let all = db.execute_local("SELECT grp FROM t").unwrap();
        let distinct = db.execute_local("SELECT DISTINCT grp FROM t").unwrap();
        assert!(distinct.rows.len() <= all.rows.len());
        let set: HashSet<String> = all.rows.iter().map(|x| x[0].to_string()).collect();
        assert_eq!(distinct.rows.len(), set.len());
    });
}

#[test]
fn snapshot_restore_preserves_query_results() {
    for_all(CASES, rows, |rows| {
        let db = seeded_db(rows);
        let before = db
            .execute_local("SELECT id, grp, score FROM t ORDER BY id")
            .unwrap();
        let snap = db.storage().snapshot().unwrap();
        let restored_storage = crowddb_storage::Database::restore(&snap).unwrap();
        // Query the restored storage through a fresh engine round.
        let caches = crowddb_exec::CompareCaches::default();
        let stmt =
            crowddb_sql::parse_statement("SELECT id, grp, score FROM t ORDER BY id").unwrap();
        let crowddb_sql::Statement::Select(q) = stmt else {
            panic!()
        };
        let plan = restored_storage
            .with_catalog(|c| crowddb_plan::Binder::new(c).bind_query(&q))
            .unwrap();
        let result = crowddb_exec::execute(&restored_storage, &caches, &plan).unwrap();
        assert_eq!(result.rows, before.rows);
    });
}

#[test]
fn update_then_delete_is_consistent() {
    let input = |rng: &mut Rng| (rows(rng), rng.gen_range(1..50i64));
    for_all(CASES, input, |(rows, bump)| {
        let db = seeded_db(rows);
        let updated = db
            .execute_local(&format!(
                "UPDATE t SET score = score + {bump} WHERE grp = 'a'"
            ))
            .unwrap();
        let expected_a = rows.iter().filter(|(_, g, _)| g == "a").count();
        assert_eq!(updated.affected, expected_a);
        let deleted = db.execute_local("DELETE FROM t WHERE grp = 'a'").unwrap();
        assert_eq!(deleted.affected, expected_a);
        let left = db.execute_local("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(
            left.rows[0][0].as_i64().unwrap(),
            (rows.len() - expected_a) as i64
        );
    });
}

/// Optimizer soundness: the full rule set must never change query
/// results. Random data, a query family covering filters, joins, and
/// projections, both optimizer configurations, compared as multisets.
mod optimizer_soundness {
    use super::*;
    use crowddb_exec::{execute, CompareCaches};
    use crowddb_plan::cardinality::FnStats;
    use crowddb_plan::{optimize, Binder, OptimizerConfig};
    use crowddb_sql::{parse_statement, Statement};
    use crowddb_storage::Database;

    fn raw_db(rows: &[(i64, String, i64)], more: &[(i64, String)]) -> Database {
        let db = Database::new();
        for ddl in [
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp STRING, score INTEGER)",
            "CREATE TABLE u (id INTEGER PRIMARY KEY, tag STRING)",
        ] {
            let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
                panic!()
            };
            let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
            db.create_table(schema).unwrap();
        }
        for (id, grp, score) in rows {
            db.insert("t", crowddb_common::row![*id, grp.clone(), *score])
                .unwrap();
        }
        for (id, tag) in more {
            db.insert("u", crowddb_common::row![*id, tag.clone()])
                .unwrap();
        }
        db
    }

    fn run_config(db: &Database, sql: &str, config: &OptimizerConfig) -> Vec<crowddb::Row> {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
        let stats_fn = |t: &str| db.stats(t).ok().map(|s| s.live_rows as u64);
        let plan = optimize(bound, &FnStats(stats_fn), config);
        let caches = CompareCaches::default();
        let mut rows = execute(db, &caches, &plan).unwrap().rows;
        rows.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        rows
    }

    #[test]
    fn optimized_equals_unoptimized() {
        let input = |rng: &mut Rng| {
            let tags = keyed_letters(rng, 25, b"xyz");
            (rows(rng), tags, rng.gen_range(-100..100i64))
        };
        for_all(48, input, |(rows, tags, threshold)| {
            let db = raw_db(rows, tags);
            let none = OptimizerConfig {
                fold_constants: false,
                pushdown_predicates: false,
                reorder_joins: false,
                pushdown_limit: false,
            };
            let full = OptimizerConfig::default();
            for sql in [
                format!("SELECT id, score FROM t WHERE score > {threshold} AND grp <> 'q'"),
                format!("SELECT t.id, u.tag FROM t, u WHERE t.id = u.id AND t.score > {threshold}"),
                "SELECT t.grp, u.tag FROM t JOIN u ON t.id = u.id WHERE 1 = 1".to_string(),
                format!(
                    "SELECT a.id FROM t a, t b, u WHERE a.id = b.id AND b.id = u.id \
                     AND a.score <= {threshold}"
                ),
                "SELECT d.s FROM (SELECT id, score AS s FROM t) AS d WHERE d.s > 0".to_string(),
                "SELECT t.id, u.tag FROM t LEFT JOIN u ON t.id = u.id WHERE t.grp <> 'b'"
                    .to_string(),
                format!(
                    "SELECT a.id, u.tag FROM t a LEFT JOIN u ON a.id = u.id, t b \
                     WHERE a.id = b.id AND b.score > {threshold}"
                ),
                format!(
                    "SELECT id FROM t WHERE score > {threshold} UNION ALL SELECT id FROM u LIMIT 7"
                ),
                "SELECT grp FROM t UNION SELECT tag FROM u LIMIT 3".to_string(),
                format!(
                    "SELECT d.id FROM (SELECT id, score FROM t ORDER BY score, id LIMIT 10) AS d \
                     WHERE d.score > {threshold}"
                ),
                "SELECT d.g FROM (SELECT DISTINCT grp AS g FROM t) AS d WHERE d.g <> 'a'"
                    .to_string(),
                "SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp HAVING COUNT(*) > 1"
                    .to_string(),
                "SELECT id FROM t WHERE id IN (SELECT id FROM u WHERE tag = 'x')".to_string(),
                format!(
                    "SELECT id FROM t WHERE EXISTS (SELECT id FROM u WHERE tag = 'y') \
                     AND score <= {threshold}"
                ),
                format!("SELECT id FROM t WHERE score > {threshold} OR FALSE"),
                "SELECT id, grp FROM t WHERE NOT TRUE OR grp = 'a'".to_string(),
            ] {
                assert_eq!(
                    run_config(&db, &sql, &full),
                    run_config(&db, &sql, &none),
                    "optimizer changed results for {sql}"
                );
            }
        });
    }
}

/// Marketplace simulator invariants.
mod simulator_properties {
    use super::*;
    use crowddb_platform::{PerfectModel, Platform, SimPlatform, TaskKind, TaskSpec};

    #[test]
    fn sim_never_over_delivers() {
        let input = |rng: &mut Rng| {
            (
                rng.gen_range(0..5000u64),
                rng.gen_range(1..20usize),
                rng.gen_range(1..4u32),
            )
        };
        for_all(24, input, |&(seed, hits, reps)| {
            let mut p = SimPlatform::amt(seed, Box::new(PerfectModel));
            let specs: Vec<TaskSpec> = (0..hits)
                .map(|i| {
                    TaskSpec::new(TaskKind::Equal {
                        left: format!("a{i}"),
                        right: format!("b{i}"),
                        instruction: "same?".into(),
                    })
                    .reward(3)
                    .replicate(reps)
                })
                .collect();
            let ids = p.post(specs).unwrap();
            let mut clock = 0.0;
            let mut total = 0usize;
            let mut last_now = p.now();
            while clock < 200_000.0 {
                p.advance(600.0);
                clock += 600.0;
                // Clock is monotone.
                assert!(p.now() >= last_now);
                last_now = p.now();
                total += p.collect().len();
                if ids.iter().all(|h| p.is_complete(*h)) {
                    break;
                }
            }
            // Never more responses than requested assignments.
            assert!(total as u64 <= (hits as u64) * (reps as u64));
            let s = p.stats();
            assert!(s.assignments_completed <= s.assignments_requested);
            assert_eq!(s.hits_posted, hits as u64);
        });
    }
}
