//! SQL conformance over electronic data: CrowdDB must behave like a
//! conventional DBMS when no crowd is involved ("Existing SQL queries
//! can be run on CrowdDB", paper §1).

use crowddb::{CrowdDB, Value};

fn db() -> CrowdDB {
    let db = CrowdDB::new();
    for sql in [
        "CREATE TABLE emp (id INTEGER PRIMARY KEY, name STRING, dept STRING, \
         salary INTEGER, manager STRING)",
        "CREATE TABLE dept (dept STRING PRIMARY KEY, building INTEGER)",
        "INSERT INTO dept VALUES ('eng', 1), ('sales', 2), ('hr', 3)",
        "INSERT INTO emp VALUES \
         (1, 'ada', 'eng', 120, NULL), \
         (2, 'bob', 'eng', 100, 'ada'), \
         (3, 'cyd', 'sales', 90, NULL), \
         (4, 'dan', 'sales', 80, 'cyd'), \
         (5, 'eve', 'hr', 70, NULL), \
         (6, 'fay', 'eng', 110, 'ada')",
    ] {
        db.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    db
}

fn rows(db: &CrowdDB, sql: &str) -> Vec<Vec<String>> {
    let r = db
        .execute_local(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert!(r.complete, "query should not need the crowd: {sql}");
    r.rows
        .iter()
        .map(|row| row.values().iter().map(|v| v.to_string()).collect())
        .collect()
}

#[test]
fn select_with_predicates() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE salary >= 100 AND dept = 'eng' ORDER BY name"
        ),
        vec![vec!["ada"], vec!["bob"], vec!["fay"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE salary BETWEEN 75 AND 95 ORDER BY name"
        ),
        vec![vec!["cyd"], vec!["dan"]]
    );
    assert_eq!(
        rows(&d, "SELECT name FROM emp WHERE name LIKE '_a%' ORDER BY 1"),
        vec![vec!["dan"], vec!["fay"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE dept IN ('hr', 'sales') ORDER BY name"
        ),
        vec![vec!["cyd"], vec!["dan"], vec!["eve"]]
    );
}

#[test]
fn null_semantics() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE manager IS NULL ORDER BY name"
        ),
        vec![vec!["ada"], vec!["cyd"], vec!["eve"]]
    );
    // NULL = NULL is UNKNOWN, not TRUE.
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE manager = manager AND manager IS NULL"
        ),
        Vec::<Vec<String>>::new()
    );
    assert_eq!(
        rows(&d, "SELECT COUNT(*), COUNT(manager) FROM emp"),
        vec![vec!["6", "3"]]
    );
}

#[test]
fn joins() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT e.name, d.building FROM emp e JOIN dept d ON e.dept = d.dept \
             WHERE d.building < 3 ORDER BY e.name"
        ),
        vec![
            vec!["ada", "1"],
            vec!["bob", "1"],
            vec!["cyd", "2"],
            vec!["dan", "2"],
            vec!["fay", "1"]
        ]
    );
    // Self join: who works for ada?
    assert_eq!(
        rows(
            &d,
            "SELECT e.name FROM emp e JOIN emp m ON e.manager = m.name \
             WHERE m.name = 'ada' ORDER BY e.name"
        ),
        vec![vec!["bob"], vec!["fay"]]
    );
    // Left join keeps unmatched rows.
    assert_eq!(
        rows(
            &d,
            "SELECT d.dept, COUNT(e.id) FROM dept d LEFT JOIN emp e ON d.dept = e.dept \
             AND e.salary > 150 GROUP BY d.dept ORDER BY d.dept"
        )
        .len(),
        3
    );
}

#[test]
fn aggregation() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT dept, COUNT(*), SUM(salary), MIN(salary), MAX(salary) FROM emp \
             GROUP BY dept ORDER BY dept"
        ),
        vec![
            vec!["eng", "3", "330", "100", "120"],
            vec!["hr", "1", "70", "70", "70"],
            vec!["sales", "2", "170", "80", "90"],
        ]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT dept FROM emp GROUP BY dept HAVING AVG(salary) >= 85 ORDER BY dept"
        ),
        vec![vec!["eng"], vec!["sales"]]
    );
    assert_eq!(
        rows(&d, "SELECT COUNT(DISTINCT dept) FROM emp"),
        vec![vec!["3"]]
    );
}

#[test]
fn sorting_limits_distinct() {
    let d = db();
    assert_eq!(
        rows(&d, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2"),
        vec![vec!["ada"], vec!["fay"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 2"
        ),
        vec![vec!["bob"], vec!["cyd"]]
    );
    assert_eq!(
        rows(&d, "SELECT DISTINCT dept FROM emp ORDER BY dept"),
        vec![vec!["eng"], vec!["hr"], vec!["sales"]]
    );
    // Multi-key sort.
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp ORDER BY dept, salary DESC LIMIT 3"
        ),
        vec![vec!["ada"], vec!["fay"], vec!["bob"]]
    );
}

#[test]
fn expressions_and_functions() {
    let d = db();
    assert_eq!(
        rows(&d, "SELECT UPPER(name), salary * 2 FROM emp WHERE id = 1"),
        vec![vec!["ADA", "240"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT name, CASE WHEN salary >= 110 THEN 'high' WHEN salary >= 85 THEN 'mid' \
             ELSE 'low' END FROM emp ORDER BY id LIMIT 3"
        ),
        vec![vec!["ada", "high"], vec!["bob", "mid"], vec!["cyd", "mid"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT COALESCE(manager, 'nobody') FROM emp WHERE id = 1"
        ),
        vec![vec!["nobody"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT CAST(salary AS STRING) || '$' FROM emp WHERE id = 5"
        ),
        vec![vec!["70$"]]
    );
}

#[test]
fn subqueries() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"
        ),
        vec![vec!["ada"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE dept IN \
             (SELECT dept FROM dept WHERE building = 2) ORDER BY name"
        ),
        vec![vec!["cyd"], vec!["dan"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT d.dept FROM dept d WHERE NOT EXISTS \
             (SELECT e.id FROM emp e WHERE e.salary > 100) ORDER BY d.dept"
        ),
        Vec::<Vec<String>>::new()
    );
}

#[test]
fn dml_update_delete() {
    let d = db();
    let r = d
        .execute_local("UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'")
        .unwrap();
    assert_eq!(r.affected, 3);
    assert_eq!(
        rows(&d, "SELECT salary FROM emp WHERE id = 1"),
        vec![vec!["130"]]
    );
    let r = d
        .execute_local("DELETE FROM emp WHERE dept = 'hr'")
        .unwrap();
    assert_eq!(r.affected, 1);
    assert_eq!(rows(&d, "SELECT COUNT(*) FROM emp"), vec![vec!["5"]]);
}

#[test]
fn constraint_violations_surface() {
    let d = db();
    let err = d
        .execute_local("INSERT INTO emp VALUES (1, 'dup', 'eng', 1, NULL)")
        .unwrap_err();
    assert_eq!(err.category(), "constraint");
    let err = d
        .execute_local("INSERT INTO emp VALUES (7, 'x', 'eng', 'not a number', NULL)")
        .unwrap_err();
    assert_eq!(err.category(), "constraint");
}

#[test]
fn a_key_too_long_for_an_index_leaves_every_index_as_it_was() {
    let d = CrowdDB::new();
    for sql in [
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name STRING)",
        "CREATE INDEX t_name ON t (name)",
        "INSERT INTO t VALUES (2, 'two')",
    ] {
        d.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let long = "x".repeat(2000);
    for sql in [
        format!("INSERT INTO t VALUES (1, '{long}')"),
        format!("UPDATE t SET name = '{long}' WHERE id = 2"),
    ] {
        let err = d.execute_local(&sql).unwrap_err();
        assert_eq!(err.category(), "constraint", "{err}");
        assert!(err.message().contains("exceeds"), "{err}");
    }
    // No entry of the failed INSERT is left in `t_pk`, and the failed
    // UPDATE kept row 2's entry in `t_name`, which the probe reads.
    d.execute_local("INSERT INTO t VALUES (1, 'short')")
        .unwrap();
    assert_eq!(
        rows(&d, "SELECT id FROM t WHERE name = 'two'"),
        vec![vec!["2"]]
    );
    assert_eq!(
        rows(&d, "SELECT id, name FROM t ORDER BY id"),
        vec![vec!["1", "short"], vec!["2", "two"]]
    );
}

#[test]
fn integers_past_2_53_that_share_a_float_are_distinct_keys() {
    let d = CrowdDB::new();
    d.execute_local("CREATE TABLE t (id INTEGER PRIMARY KEY, name STRING)")
        .unwrap();
    // 2^53 and 2^53 + 1 are one `f64`, the order the index sorts by, but
    // two keys: as two statements and as two rows of one.
    for sql in [
        "INSERT INTO t VALUES (9007199254740992, 'a')",
        "INSERT INTO t VALUES (9007199254740993, 'b')",
        "INSERT INTO t VALUES (9007199254740995, 'c'), (9007199254740996, 'd')",
    ] {
        d.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    // A true repeat is still refused, whichever member of the class it
    // repeats, and so is a repeat within one statement.
    for sql in [
        "INSERT INTO t VALUES (9007199254740993, 'e')",
        "INSERT INTO t VALUES (9007199254740997, 'f'), (9007199254740997, 'g')",
    ] {
        let err = d.execute_local(sql).unwrap_err();
        assert!(
            err.message().contains("unique constraint 't_pk'"),
            "{sql}: {err}"
        );
    }
    // An UPDATE into a class the row shares with another: refused only
    // onto that row's own key.
    let err = d
        .execute_local("UPDATE t SET id = 9007199254740996 WHERE name = 'c'")
        .unwrap_err();
    assert!(err.message().contains("unique constraint 't_pk'"), "{err}");
    d.execute_local("UPDATE t SET id = 9007199254740997 WHERE name = 'c'")
        .unwrap();
    assert_eq!(
        rows(&d, "SELECT name FROM t ORDER BY name"),
        vec![vec!["a"], vec!["b"], vec!["c"], vec!["d"]]
    );
    d.execute_local("CREATE UNIQUE INDEX t_id ON t (id)")
        .unwrap();
    // A probe finds its own key, not the class's first member.
    assert_eq!(
        rows(&d, "SELECT name FROM t WHERE id = 9007199254740993"),
        vec![vec!["b"]]
    );
}

#[test]
fn derived_tables_and_alias_scoping() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT t.d, t.total FROM \
             (SELECT dept AS d, SUM(salary) AS total FROM emp GROUP BY dept) AS t \
             WHERE t.total > 100 ORDER BY t.total DESC"
        ),
        vec![vec!["eng", "330"], vec!["sales", "170"]]
    );
}

#[test]
fn values_only_queries() {
    let d = db();
    assert_eq!(rows(&d, "SELECT 1 + 2 * 3"), vec![vec!["7"]]);
    assert_eq!(
        rows(&d, "SELECT LOWER('ABC') || '-' || UPPER('x')"),
        vec![vec!["abc-X"]]
    );
}

#[test]
fn explain_never_errors_on_valid_queries() {
    let d = db();
    for sql in [
        "SELECT * FROM emp",
        "SELECT dept, COUNT(*) FROM emp GROUP BY dept",
        "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.dept LIMIT 3",
    ] {
        let text = d.explain(sql).unwrap();
        assert!(text.contains("BOUNDED"), "{text}");
    }
}

#[test]
fn three_valued_filter_excludes_unknown() {
    let d = db();
    // manager > 'a' is UNKNOWN for NULL managers: excluded.
    assert_eq!(
        rows(&d, "SELECT COUNT(*) FROM emp WHERE manager > 'a'"),
        vec![vec!["3"]]
    );
    assert_eq!(
        rows(&d, "SELECT COUNT(*) FROM emp WHERE NOT (manager > 'a')"),
        vec![vec!["0"]]
    );
}

#[test]
fn result_value_types() {
    let d = db();
    let r = d
        .execute_local("SELECT id, name, salary FROM emp WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    assert_eq!(r.rows[0][1], Value::str("ada"));
    assert_eq!(r.columns, vec!["id", "name", "salary"]);
}

#[test]
fn union_and_union_all() {
    let d = db();
    assert_eq!(
        rows(
            &d,
            "SELECT dept FROM emp WHERE salary > 100 \
             UNION SELECT dept FROM emp WHERE salary < 80 ORDER BY dept"
        ),
        vec![vec!["eng"], vec!["hr"]]
    );
    // UNION dedups; UNION ALL keeps duplicates.
    assert_eq!(
        rows(&d, "SELECT dept FROM dept UNION SELECT dept FROM dept").len(),
        3
    );
    assert_eq!(
        rows(&d, "SELECT dept FROM dept UNION ALL SELECT dept FROM dept").len(),
        6
    );
    // Mixed arms, ORDER BY position and LIMIT over the whole union.
    assert_eq!(
        rows(
            &d,
            "SELECT name FROM emp WHERE dept = 'hr' \
             UNION ALL SELECT name FROM emp WHERE dept = 'sales' \
             ORDER BY 1 DESC LIMIT 2"
        ),
        vec![vec!["eve"], vec!["dan"]]
    );
}

#[test]
fn union_arity_mismatch_rejected() {
    let d = db();
    let err = d
        .execute_local("SELECT id, name FROM emp UNION SELECT dept FROM dept")
        .unwrap_err();
    assert!(err.message().contains("arities"), "{err}");
}

#[test]
fn union_round_trips_through_display() {
    let sql = "SELECT id FROM emp UNION ALL SELECT building FROM dept ORDER BY 1 LIMIT 4";
    let ast = crowddb_sql::parse_statement(sql).unwrap();
    let rendered = ast.to_string();
    assert_eq!(ast, crowddb_sql::parse_statement(&rendered).unwrap());
    let d = db();
    assert_eq!(rows(&d, sql).len(), 4);
}

/// `0.0 = -0.0` in SQL: the hash join, the groups, DISTINCT and set
/// union must agree with the `WHERE` filter on which rows are equal.
#[test]
fn negative_zero_equals_zero_in_joins_groups_and_distinct() {
    let d = CrowdDB::new();
    for sql in [
        "CREATE TABLE a (id INTEGER PRIMARY KEY, x FLOAT)",
        "CREATE TABLE b (id INTEGER PRIMARY KEY, y FLOAT)",
        "INSERT INTO a VALUES (1, 0.0)",
        "INSERT INTO b VALUES (1, -0.0), (2, 0.0)",
    ] {
        d.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    assert_eq!(
        rows(&d, "SELECT b.id FROM b WHERE b.y = 0.0 ORDER BY 1"),
        vec![vec!["1"], vec!["2"]]
    );
    assert_eq!(
        rows(
            &d,
            "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y ORDER BY 2"
        ),
        vec![vec!["1", "1"], vec!["1", "2"]]
    );
    assert_eq!(
        rows(&d, "SELECT COUNT(*) FROM b GROUP BY y"),
        vec![vec!["2"]]
    );
    assert_eq!(rows(&d, "SELECT DISTINCT y FROM b").len(), 1);
    assert_eq!(rows(&d, "SELECT y FROM b UNION SELECT x FROM a").len(), 1);
}

/// `3 = 3.0` in SQL: the hash join, the groups, DISTINCT and set union
/// must agree with the `WHERE` filter, a range and `IN` on which INTEGER
/// and FLOAT values are equal — and all compare exactly: 2^53 + 1 is
/// not 2^53, though the two are one `f64`.
#[test]
fn integer_and_float_keys_match_in_joins_groups_and_distinct() {
    let d = CrowdDB::new();
    for sql in [
        "CREATE TABLE a (id INTEGER PRIMARY KEY, i INTEGER)",
        "CREATE TABLE b (id INTEGER PRIMARY KEY, f FLOAT)",
        "INSERT INTO a VALUES (1, 3), (2, 9007199254740993)",
        "INSERT INTO b VALUES (1, 3.0), (2, 3.5), (3, 9007199254740992.0)",
    ] {
        d.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let one_pair = vec![vec!["1", "1"]];
    assert_eq!(rows(&d, "SELECT 3 = 3.0"), vec![vec!["true"]]);
    assert_eq!(
        rows(&d, "SELECT a.id, b.id FROM a, b WHERE a.i = b.f"),
        one_pair
    );
    assert_eq!(
        rows(
            &d,
            "SELECT a.id, b.id FROM a JOIN b ON a.i >= b.f AND a.i <= b.f"
        ),
        one_pair
    );
    assert_eq!(
        rows(&d, "SELECT id FROM a WHERE i IN (SELECT f FROM b)"),
        vec![vec!["1"]]
    );
    assert_eq!(
        rows(&d, "SELECT a.id, b.id FROM a JOIN b ON a.i = b.f"),
        one_pair
    );
    let both = "SELECT i FROM a WHERE id = 1 UNION ALL SELECT f FROM b WHERE id = 1";
    assert_eq!(rows(&d, both).len(), 2);
    assert_eq!(
        rows(&d, &format!("SELECT COUNT(*) FROM ({both}) t GROUP BY i")),
        vec![vec!["2"]]
    );
    assert_eq!(
        rows(&d, &format!("SELECT DISTINCT i FROM ({both}) t")).len(),
        1
    );
    let union = "SELECT i FROM a WHERE id = 1 UNION SELECT f FROM b WHERE id = 1";
    assert_eq!(rows(&d, union).len(), 1);
}

/// `-` of the smallest INTEGER overflows: the statement fails with the
/// executor's error, and the constant folder neither panics nor wraps.
#[test]
fn negating_the_smallest_integer_is_an_overflow_error() {
    let err = CrowdDB::new()
        .execute_local("SELECT -(-9223372036854775807 - 1)")
        .unwrap_err();
    assert!(err.to_string().contains("integer overflow in -"), "{err}");
}
