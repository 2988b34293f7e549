//! Need order is part of the bill: the driver posts a round's needs in
//! the order the operators recorded them and, under a budget, only the
//! prefix it can afford. How rows travel between operators is free to
//! change; which needs a round records, in which order, is not.
//!
//! Every statement below runs on a fresh copy of `statement_driver.rs`'s
//! world through a round loop of its own — lower, execute, answer the
//! first `afford` needs the way a crowd would (write-back, verdict
//! caches), repeat — and the transcript of every round (the needs'
//! `dedup_key()`s in order, the `RunStats`, every operator's `in=`/`out=`
//! and self-attributed needs) is compared with
//! `golden/need_order.txt`, byte for byte. The golden was written by
//! this file at commit `c72a45a`, where every operator still returned a
//! `Vec<Row>`; `UPDATE_GOLDEN=1` rewrites it.

use crowddb_common::{DataType, Row, Value};
use crowddb_exec::{
    execute_physical_guarded, lower_plan, CompareCaches, ExecGuard, OpStatsNode, TaskNeed,
};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{optimize, Binder, LogicalPlan, OptimizerConfig};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

const ROUNDS: usize = 6;

/// `statement_driver.rs`'s bounded operator suite, then the shapes where
/// two operators of one plan both record needs (so that streaming rows
/// between them would interleave what they ask), then subqueries.
const STATEMENTS: &[&str] = &[
    "SELECT title, abstract FROM Talk",
    "SELECT title FROM Talk WHERE title ~= 'crowddb.'",
    "SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk",
    "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
    "SELECT title FROM Talk WHERE nb_attendees >= 100",
    "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better')",
    "SELECT COUNT(*), MAX(nb_attendees) FROM Talk",
    // Crowd UNION: both inputs probe, set union and bag union.
    "SELECT title, abstract FROM Talk WHERE title < 'K' \
     UNION ALL SELECT title, abstract FROM Talk WHERE title >= 'I'",
    "SELECT title, nb_attendees FROM Talk WHERE title < 'K' \
     UNION SELECT title, nb_attendees FROM Talk WHERE title >= 'I'",
    // A crowd predicate above a probing scan: fused into the scan, and
    // as a Filter over a join whose input probes.
    "SELECT title FROM Talk WHERE abstract ~= 'abstract of qurk.'",
    "SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk \
     WHERE t.abstract ~= v.room",
    // Joins without an equi key: the crowd decides the ON, and a LEFT
    // join pads the outer rows its ON (probes under it) rejects.
    "SELECT t.title, v.room FROM Talk t JOIN Venue v ON CROWDEQUAL(t.title, v.talk)",
    "SELECT t.title, v.room FROM Talk t LEFT JOIN Venue v \
     ON t.nb_attendees >= 150 AND t.title ~= v.talk",
    "SELECT nb_attendees, COUNT(*) FROM Talk GROUP BY nb_attendees",
    "SELECT DISTINCT abstract FROM Talk",
    "SELECT title, abstract FROM Talk ORDER BY nb_attendees DESC",
    // Subqueries: a machine one beside probes, and one that probes.
    "SELECT title FROM Talk WHERE title IN (SELECT talk FROM Venue) AND nb_attendees >= 100",
    "SELECT talk FROM Venue WHERE talk IN (SELECT title FROM Talk WHERE nb_attendees >= 100)",
    "SELECT title, (SELECT COUNT(*) FROM Venue) FROM Talk WHERE abstract ~= 'abstract of piql'",
];

fn world() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF Talk(title))",
        "CREATE TABLE Venue (talk STRING PRIMARY KEY, room STRING)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!("{ddl}")
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    db.create_index(
        "talk_attendees",
        "talk",
        &["nb_attendees".to_string()],
        false,
    )
    .unwrap();
    for title in ["CrowdDB", "Qurk", "PIQL", "HyPer", "Deco", "CrowdER"] {
        db.insert(
            "talk",
            Row::new(vec![Value::str(title), Value::CNull, Value::CNull]),
        )
        .unwrap();
    }
    for (talk, room) in [("CrowdDB", "R101"), ("Qurk", "R102"), ("Deco", "R103")] {
        db.insert("venue", Row::new(vec![Value::str(talk), Value::str(room)]))
            .unwrap();
    }
    db
}

fn plan(db: &Database, sql: &str) -> LogicalPlan {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let stats = FnStats(|t: &str| db.stats(t).ok().map(|s| s.live_rows as u64));
    optimize(bound, &stats, &OptimizerConfig::default())
}

/// What a diligent crowd would answer, as a function of the need alone.
fn answer(db: &Database, caches: &mut CompareCaches, need: &TaskNeed) {
    let normal = |s: &str| s.to_lowercase().replace('.', "");
    match need {
        TaskNeed::ProbeValues {
            table,
            tid,
            context,
            columns,
        } => {
            let key = &context[0].1;
            for (col, name, ty) in columns {
                let value = match ty {
                    DataType::Int => Value::Int(key.len() as i64 * 25),
                    _ => Value::str(format!("{name} of {}", key.to_lowercase())),
                };
                db.write_back_value(table, *tid, *col, value).unwrap();
            }
        }
        TaskNeed::NewTuples {
            table,
            preset,
            want,
        } => {
            let title = preset.first().map_or(Value::Null, |(_, v)| v.clone());
            for i in 0..(*want).min(2) {
                let name = Value::str(format!("fan {i} of {title}"));
                db.write_back_tuple(table, Row::new(vec![name, title.clone()]))
                    .unwrap();
            }
        }
        TaskNeed::Equal {
            left,
            right,
            instruction,
        } => caches.put_equal(left, right, instruction, normal(left) == normal(right)),
        TaskNeed::Order {
            left,
            right,
            instruction,
        } => caches.put_prefer(left, right, instruction, left.len() >= right.len()),
    }
}

fn tree(node: &OpStatsNode, depth: usize, out: &mut String) {
    let n = node.own();
    out.push_str(&format!(
        "    {}{} rounds={} in={} out={} probe={} new={} eq={} ord={} hit={} miss={} iprobe={}\n",
        "  ".repeat(depth),
        node.name,
        node.rounds,
        node.rows_in,
        node.rows_out,
        n.probe,
        n.new_tuples,
        n.equal,
        n.order,
        n.cache_hits,
        n.cache_misses,
        n.index_probes,
    ));
    for c in &node.children {
        tree(c, depth + 1, out);
    }
}

/// The round loop over `sql`, answering the first `afford` needs of
/// every round.
fn transcript(sql: &str, afford: usize) -> String {
    let db = world();
    let mut caches = CompareCaches::default();
    let logical = plan(&db, sql);
    let budget = match afford {
        usize::MAX => "all".to_string(),
        n => n.to_string(),
    };
    let mut out = format!("== {sql} | afford {budget}\n");
    for round in 1..=ROUNDS {
        let physical = lower_plan(&db, &logical);
        let (result, stats) =
            execute_physical_guarded(&db, &caches, &physical, ExecGuard::unlimited()).expect(sql);
        out.push_str(&format!(
            "  round {round}: {} row(s), {:?}\n",
            result.rows.len(),
            result.stats
        ));
        for row in &result.rows {
            out.push_str(&format!("    row {row}\n"));
        }
        for need in &result.needs {
            out.push_str(&format!(
                "    need {}\n",
                need.dedup_key().replace('\u{1}', "|")
            ));
        }
        tree(&stats, 0, &mut out);
        if result.needs.is_empty() {
            break;
        }
        for need in result.needs.iter().take(afford) {
            answer(&db, &mut caches, need);
        }
    }
    out
}

#[test]
fn needs_stats_and_row_counts_are_pinned_round_by_round() {
    let mut actual = String::new();
    for sql in STATEMENTS {
        // A LIMIT after a UNION binds to its last branch; cap the whole.
        let limited = match sql.contains("UNION") {
            true => format!("SELECT * FROM ({sql}) u LIMIT 2"),
            false => format!("{sql} LIMIT 2"),
        };
        for sql in [sql, limited.as_str()] {
            // Everything, and a budget that affords a prefix of the wave.
            for afford in [usize::MAX, 2] {
                let rounds = transcript(sql, afford);
                // A statement that asks nothing is not this file's
                // business under a LIMIT: there, stopping early is meant
                // to cut (machine) work — see `early_exit.rs`.
                if sql == limited && !rounds.contains("    need ") {
                    continue;
                }
                actual.push_str(&rounds);
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/need_order.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden/need_order.txt");
    if actual != expected {
        let at = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        let show = |s: &str| {
            s.lines()
                .skip(at.saturating_sub(12))
                .take(24)
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "need order drifted at line {}:\n--- expected\n{}\n--- actual\n{}",
            at + 1,
            show(&expected),
            show(&actual)
        );
    }
}
