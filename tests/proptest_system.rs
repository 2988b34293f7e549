//! System-level property tests: random data through the full
//! parse→bind→optimize→execute stack must satisfy SQL invariants, and
//! optimization must never change results.

use crowddb::{CrowdDB, Value};
use proptest::prelude::*;

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

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, String, i64)>> {
    prop::collection::vec((0i64..1000, "[a-d]", -100i64..100), 0..40).prop_map(|v| {
        // Deduplicate primary keys, keeping first occurrence.
        let mut seen = std::collections::HashSet::new();
        v.into_iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn select_star_returns_all_rows(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let r = db.execute_local("SELECT * FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), rows.len());
    }

    #[test]
    fn order_by_sorts_and_limit_windows(rows in rows_strategy(), limit in 0u64..20, offset in 0u64..10) {
        let db = seeded_db(&rows);
        let r = db
            .execute_local(&format!(
                "SELECT score FROM t ORDER BY score LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap();
        // Sortedness.
        let got: Vec<i64> = r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        for w in got.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Window matches the reference computation.
        let mut expected: Vec<i64> = rows.iter().map(|(_, _, s)| *s).collect();
        expected.sort_unstable();
        let lo = (offset as usize).min(expected.len());
        let hi = (lo + limit as usize).min(expected.len());
        prop_assert_eq!(got, expected[lo..hi].to_vec());
    }

    #[test]
    fn where_filter_matches_reference(rows in rows_strategy(), threshold in -100i64..100) {
        let db = seeded_db(&rows);
        let r = db
            .execute_local(&format!("SELECT id FROM t WHERE score > {threshold}"))
            .unwrap();
        let expected: std::collections::HashSet<i64> = rows
            .iter()
            .filter(|(_, _, s)| *s > threshold)
            .map(|(id, _, _)| *id)
            .collect();
        let got: std::collections::HashSet<i64> =
            r.rows.iter().map(|x| x[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn group_by_count_partitions_rows(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let r = db
            .execute_local("SELECT grp, COUNT(*) FROM t GROUP BY grp")
            .unwrap();
        let total: i64 = r.rows.iter().map(|x| x[1].as_i64().unwrap()).sum();
        prop_assert_eq!(total, rows.len() as i64);
        // Each group's count matches the reference.
        for row in &r.rows {
            let g = row[0].to_string();
            let expected = rows.iter().filter(|(_, rg, _)| *rg == g).count() as i64;
            prop_assert_eq!(row[1].as_i64().unwrap(), expected);
        }
    }

    #[test]
    fn aggregates_match_reference(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let r = db
            .execute_local("SELECT COUNT(*), SUM(score), MIN(score), MAX(score) FROM t")
            .unwrap();
        let row = &r.rows[0];
        prop_assert_eq!(row[0].as_i64().unwrap(), rows.len() as i64);
        if rows.is_empty() {
            prop_assert_eq!(&row[1], &Value::Null);
            prop_assert_eq!(&row[2], &Value::Null);
        } else {
            prop_assert_eq!(row[1].as_i64().unwrap(), rows.iter().map(|x| x.2).sum::<i64>());
            prop_assert_eq!(row[2].as_i64().unwrap(), rows.iter().map(|x| x.2).min().unwrap());
            prop_assert_eq!(row[3].as_i64().unwrap(), rows.iter().map(|x| x.2).max().unwrap());
        }
    }

    #[test]
    fn self_join_on_key_is_identity_sized(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let r = db
            .execute_local("SELECT a.id FROM t a JOIN t b ON a.id = b.id")
            .unwrap();
        prop_assert_eq!(r.rows.len(), rows.len());
    }

    #[test]
    fn distinct_never_increases_rows(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let all = db.execute_local("SELECT grp FROM t").unwrap();
        let distinct = db.execute_local("SELECT DISTINCT grp FROM t").unwrap();
        prop_assert!(distinct.rows.len() <= all.rows.len());
        let set: std::collections::HashSet<String> =
            all.rows.iter().map(|x| x[0].to_string()).collect();
        prop_assert_eq!(distinct.rows.len(), set.len());
    }

    #[test]
    fn snapshot_restore_preserves_query_results(rows in rows_strategy()) {
        let db = seeded_db(&rows);
        let before = db
            .execute_local("SELECT id, grp, score FROM t ORDER BY id")
            .unwrap();
        let snap = db.storage().snapshot().unwrap();
        let restored_storage = crowddb_storage::Database::restore(&snap).unwrap();
        // Query the restored storage through a fresh engine round.
        let caches = crowddb_exec::CompareCaches::default();
        let stmt = crowddb_sql::parse_statement("SELECT id, grp, score FROM t ORDER BY id").unwrap();
        let crowddb_sql::Statement::Select(q) = stmt else { panic!() };
        let plan = restored_storage
            .with_catalog(|c| crowddb_plan::Binder::new(c).bind_query(&q))
            .unwrap();
        let result = crowddb_exec::execute(&restored_storage, &caches, &plan).unwrap();
        prop_assert_eq!(result.rows, before.rows);
    }

    #[test]
    fn update_then_delete_is_consistent(rows in rows_strategy(), bump in 1i64..50) {
        let db = seeded_db(&rows);
        let updated = db
            .execute_local(&format!("UPDATE t SET score = score + {bump} WHERE grp = 'a'"))
            .unwrap();
        let expected_a = rows.iter().filter(|(_, g, _)| g == "a").count();
        prop_assert_eq!(updated.affected, expected_a);
        let deleted = db.execute_local("DELETE FROM t WHERE grp = 'a'").unwrap();
        prop_assert_eq!(deleted.affected, expected_a);
        let left = db.execute_local("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(left.rows[0][0].as_i64().unwrap(), (rows.len() - expected_a) as i64);
    }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn optimized_equals_unoptimized(
            rows in super::rows_strategy(),
            tags in proptest::collection::vec((0i64..1000, "[x-z]"), 0..25),
            threshold in -100i64..100,
        ) {
            let mut seen = std::collections::HashSet::new();
            let tags: Vec<(i64, String)> = tags
                .into_iter()
                .filter(|(id, _)| seen.insert(*id))
                .collect();
            let db = raw_db(&rows, &tags);
            let none = OptimizerConfig {
                fold_constants: false,
                pushdown_predicates: false,
                reorder_joins: false,
                pushdown_limit: false,
            };
            let full = OptimizerConfig::default();
            for sql in [
                format!("SELECT id, score FROM t WHERE score > {threshold} AND grp <> 'q'"),
                format!(
                    "SELECT t.id, u.tag FROM t, u WHERE t.id = u.id AND t.score > {threshold}"
                ),
                "SELECT t.grp, u.tag FROM t JOIN u ON t.id = u.id WHERE 1 = 1".to_string(),
                format!(
                    "SELECT a.id FROM t a, t b, u WHERE a.id = b.id AND b.id = u.id \
                     AND a.score <= {threshold}"
                ),
                "SELECT d.s FROM (SELECT id, score AS s FROM t) AS d WHERE d.s > 0".to_string(),
            ] {
                prop_assert_eq!(
                    run_config(&db, &sql, &full),
                    run_config(&db, &sql, &none),
                    "optimizer changed results for {}",
                    sql
                );
            }
        }
    }
}

/// Marketplace simulator invariants.
mod simulator_properties {
    use super::*;
    use crowddb_platform::{PerfectModel, Platform, SimPlatform, TaskKind, TaskSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sim_never_over_delivers(seed in 0u64..5000, hits in 1usize..20, reps in 1u32..4) {
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
                prop_assert!(p.now() >= last_now);
                last_now = p.now();
                total += p.collect().len();
                if ids.iter().all(|h| p.is_complete(*h)) {
                    break;
                }
            }
            // Never more responses than requested assignments.
            prop_assert!(total as u64 <= (hits as u64) * (reps as u64));
            let s = p.stats();
            prop_assert!(s.assignments_completed <= s.assignments_requested);
            prop_assert_eq!(s.hits_posted, hits as u64);
        }
    }
}
