//! Property tests for the parser, as seeded loops over
//! `crowddb_common::rng`: canonical rendering of a random AST re-parses to
//! the identical AST, and the parser never panics on arbitrary input.
//!
//! The round trip guards `Display`, which names statements wherever one is
//! shown as text: the subscription listing and error messages. Recovery
//! no longer rests on it: the WAL's `LogRecord::{Dml, Ddl}` keep the text a
//! statement was parsed from, and replay parses that same text. The
//! generators cover every statement kind and stay inside what the parser
//! can produce (it folds `-<number>` into the literal, drops unary `+`, and
//! reads `NOT EXISTS` as `NOT (EXISTS …)`).
//!
//! Case `n` of a property draws its input from `Rng::seed_from_u64(n)`; a
//! failing case prints its seed and input. Keep a seed that found a bug as
//! a case in [`regressions`].

use std::fmt::Debug;

use crowddb_common::rng::Rng;
use crowddb_common::{DataType, Value};
use crowddb_sql::{
    parse_expression, parse_statement, BinaryOp, ColumnDecl, ColumnRef, CreateIndex, CreateTable,
    Delete, Expr, Insert, Join, JoinKind, OrderByItem, Query, Relation, SelectItem, SetOp,
    Statement, TableConstraint, TableRef, UnaryOp, Update,
};

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

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn vec_of<T>(
    rng: &mut Rng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(len)).map(|_| item(rng)).collect()
}

fn maybe<T>(rng: &mut Rng, item: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| item(rng))
}

/// `x[a-z][a-z0-9_]{0,8}`: the `x` keeps it clear of every keyword.
fn ident(rng: &mut Rng) -> String {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::from("x");
    s.push(char::from(pick(rng, &TAIL[..26])));
    s.extend(vec_of(rng, 0..9, |rng| char::from(pick(rng, TAIL))));
    s
}

/// Up to `max` characters: printable ASCII (quotes, `--`, `/*` and all),
/// now and then a control character or one outside ASCII.
fn text(rng: &mut Rng, max: usize) -> String {
    const ODD: &[char] = &[
        '\'',
        '\n',
        '\t',
        '\u{e9}',
        '\u{df}',
        '\u{4e2d}',
        '\u{1f600}',
    ];
    vec_of(rng, 0..max + 1, |rng| match rng.gen_range(0..12) {
        0 => pick(rng, ODD),
        _ => char::from(rng.gen_range(b' '..=b'~')),
    })
    .into_iter()
    .collect()
}

fn int(rng: &mut Rng) -> i64 {
    match rng.gen_range(0..4) {
        // `i64::MIN` is left out: the lexer reads the magnitude before the
        // parser sees the sign and 2^63 does not fit, so no source text
        // parses to it and no logged statement can hold it.
        0 => pick(rng, &[0, 1, -1, i64::MAX, -i64::MAX, i64::MAX - 1]),
        1 => rng.gen_range(-i64::MAX..=i64::MAX),
        _ => rng.gen_range(-1000..1000),
    }
}

fn float(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..4) {
        // NaN is left out: no literal parses to it and `Value::validate`
        // refuses to store one.
        0 => pick(
            rng,
            &[
                0.0,
                -0.0,
                3.0,
                -7.0,
                1e15,
                1e16,
                -1e22,
                1e300,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                5e-324,
                f64::EPSILON,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ],
        ),
        // Integral floats must keep their `.0`, or they come back as ints.
        1 => rng.gen_range(-1000..1000i64) as f64,
        2 => f64::from_bits(rng.next_u64()),
        _ => rng.gen_range(-1.0e12..1.0e12),
    }
}

fn literal(rng: &mut Rng) -> Value {
    match rng.gen_range(0..7) {
        0 | 1 => Value::Int(int(rng)),
        2 => match float(rng) {
            f if f.is_nan() => Value::Float(0.5),
            f => Value::Float(f),
        },
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::Str(text(rng, 12)),
        5 => Value::Null,
        _ => Value::CNull,
    }
}

const BINARY_OPS: &[BinaryOp] = &[
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
    BinaryOp::Concat,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
    BinaryOp::And,
    BinaryOp::Or,
    BinaryOp::CrowdEq,
];

const DATA_TYPES: &[DataType] = &[
    DataType::Bool,
    DataType::Int,
    DataType::Float,
    DataType::Str,
];

fn column(rng: &mut Rng) -> Expr {
    match maybe(rng, ident) {
        Some(table) => Expr::Column(ColumnRef::qualified(table, ident(rng))),
        None => Expr::col(ident(rng)),
    }
}

/// An expression nested at most `depth` levels, every variant of `Expr`.
fn expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_range(0..4) == 0 {
        return match rng.gen_bool(0.5) {
            true => Expr::Literal(literal(rng)),
            false => column(rng),
        };
    }
    let d = depth - 1;
    let sub = |rng: &mut Rng| Box::new(expr(rng, d));
    match rng.gen_range(0..15) {
        0..=2 => Expr::Binary {
            left: sub(rng),
            op: pick(rng, BINARY_OPS),
            right: sub(rng),
        },
        3 => Expr::Unary {
            op: UnaryOp::Not,
            expr: sub(rng),
        },
        4 => Expr::Unary {
            op: UnaryOp::Neg,
            // `-<number>` is a literal, not a negation.
            expr: match expr(rng, d) {
                Expr::Literal(Value::Int(_) | Value::Float(_)) => Box::new(column(rng)),
                other => Box::new(other),
            },
        },
        5 => Expr::Is {
            expr: sub(rng),
            negated: rng.gen_bool(0.5),
            cnull: rng.gen_bool(0.5),
        },
        6 => Expr::Like {
            expr: sub(rng),
            pattern: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        7 => Expr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        8 => Expr::InList {
            expr: sub(rng),
            list: vec_of(rng, 1..4, |rng| expr(rng, d)),
            negated: rng.gen_bool(0.5),
        },
        9 => Expr::InSubquery {
            expr: sub(rng),
            query: Box::new(query(rng, d)),
            negated: rng.gen_bool(0.5),
        },
        10 => match rng.gen_bool(0.5) {
            true => Expr::Exists {
                query: Box::new(query(rng, d)),
                negated: false,
            },
            false => Expr::ScalarSubquery(Box::new(query(rng, d))),
        },
        11 => Expr::Case {
            operand: maybe(rng, sub),
            branches: vec_of(rng, 1..3, |rng| (expr(rng, d), expr(rng, d))),
            else_expr: maybe(rng, sub),
        },
        12 => Expr::Cast {
            expr: sub(rng),
            data_type: pick(rng, DATA_TYPES),
        },
        13 => match rng.gen_range(0..3) {
            0 => Expr::Function {
                name: "crowdequal".into(),
                args: vec![expr(rng, d), expr(rng, d)],
                distinct: false,
            },
            1 => Expr::Function {
                name: "crowdorder".into(),
                args: vec_of(rng, 1..3, |rng| expr(rng, d)),
                distinct: false,
            },
            _ => Expr::Function {
                name: "count".into(),
                args: vec![Expr::Wildcard],
                distinct: false,
            },
        },
        _ => Expr::Function {
            name: match rng.gen_bool(0.5) {
                true => pick(rng, &["count", "sum", "avg", "min", "max", "lower"]).to_string(),
                false => format!("f{}", ident(rng)),
            },
            args: vec_of(rng, 0..3, |rng| expr(rng, d)),
            distinct: rng.gen_bool(0.25),
        },
    }
}

fn relation(rng: &mut Rng, depth: u32) -> Relation {
    if depth > 0 && rng.gen_range(0..4) == 0 {
        return Relation::Subquery {
            query: Box::new(query(rng, depth - 1)),
            alias: ident(rng),
        };
    }
    Relation::Table {
        name: ident(rng),
        alias: maybe(rng, ident),
    }
}

/// `SELECT … [HAVING …]`: the part of a query a `UNION` arm may have.
fn select_core(rng: &mut Rng, depth: u32) -> Query {
    let d = depth.saturating_sub(1);
    Query {
        distinct: rng.gen_bool(0.5),
        projection: vec_of(rng, 1..4, |rng| match rng.gen_range(0..6) {
            0 => SelectItem::Wildcard,
            1 => SelectItem::QualifiedWildcard(ident(rng)),
            _ => SelectItem::Expr {
                expr: expr(rng, depth),
                alias: maybe(rng, ident),
            },
        }),
        from: vec_of(rng, 0..3, |rng| TableRef {
            relation: relation(rng, d),
            joins: vec_of(rng, 0..3, |rng| {
                let kind = pick(rng, &[JoinKind::Inner, JoinKind::Left, JoinKind::Cross]);
                Join {
                    kind,
                    relation: relation(rng, d),
                    on: (kind != JoinKind::Cross).then(|| expr(rng, d)),
                }
            }),
        }),
        filter: maybe(rng, |rng| expr(rng, depth)),
        group_by: vec_of(rng, 0..3, |rng| expr(rng, d)),
        having: maybe(rng, |rng| expr(rng, d)),
        ..Query::empty()
    }
}

/// A full query: set operations, `ORDER BY`, `LIMIT` and `OFFSET` belong
/// to the whole union.
fn query(rng: &mut Rng, depth: u32) -> Query {
    let d = depth.saturating_sub(1);
    Query {
        set_ops: vec_of(rng, 0..3, |rng| SetOp {
            all: rng.gen_bool(0.5),
            query: select_core(rng, d),
        }),
        order_by: vec_of(rng, 0..3, |rng| OrderByItem {
            expr: expr(rng, d),
            desc: rng.gen_bool(0.5),
        }),
        limit: maybe(rng, |rng| rng.gen_range(0..1000)),
        offset: maybe(rng, |rng| rng.gen_range(0..=u64::MAX >> 1)),
        ..select_core(rng, depth)
    }
}

fn idents(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<String> {
    vec_of(rng, len, ident)
}

fn create_table(rng: &mut Rng) -> CreateTable {
    CreateTable {
        name: ident(rng),
        crowd: rng.gen_bool(0.5),
        columns: vec_of(rng, 1..5, |rng| {
            let primary_key = rng.gen_bool(0.25);
            ColumnDecl {
                name: ident(rng),
                crowd: rng.gen_bool(0.5),
                data_type: pick(rng, DATA_TYPES),
                primary_key,
                not_null: rng.gen_bool(0.5),
            }
        }),
        constraints: vec_of(rng, 0..3, |rng| match rng.gen_bool(0.5) {
            true => TableConstraint::PrimaryKey(idents(rng, 1..3)),
            false => TableConstraint::ForeignKey {
                columns: idents(rng, 1..3),
                ref_table: ident(rng),
                ref_columns: idents(rng, 1..3),
            },
        }),
        if_not_exists: rng.gen_bool(0.5),
    }
}

/// Every statement kind, the logged ones (DML, DDL) most often, with
/// expressions and queries nested at most `depth` levels.
fn statement(rng: &mut Rng, depth: u32) -> Statement {
    let filter = |rng: &mut Rng| maybe(rng, |rng| expr(rng, depth));
    match rng.gen_range(0..14) {
        0..=2 => Statement::Insert(Insert {
            table: ident(rng),
            columns: maybe(rng, |rng| idents(rng, 1..4)),
            rows: vec_of(rng, 1..4, |rng| vec_of(rng, 1..4, |rng| expr(rng, depth))),
        }),
        3 | 4 => Statement::Update(Update {
            table: ident(rng),
            assignments: vec_of(rng, 1..4, |rng| (ident(rng), expr(rng, depth))),
            filter: filter(rng),
        }),
        5 | 6 => Statement::Delete(Delete {
            table: ident(rng),
            filter: filter(rng),
        }),
        7 | 8 => Statement::CreateTable(create_table(rng)),
        9 => Statement::CreateIndex(CreateIndex {
            name: ident(rng),
            table: ident(rng),
            columns: idents(rng, 1..4),
            unique: rng.gen_bool(0.5),
        }),
        10 => Statement::DropTable {
            name: ident(rng),
            if_exists: rng.gen_bool(0.5),
        },
        11 => match rng.gen_range(0..3) {
            0 => Statement::Select(Box::new(query(rng, depth))),
            1 => Statement::Subscribe(Box::new(query(rng, depth))),
            _ => Statement::Unsubscribe {
                id: rng.next_u64() >> 1,
            },
        },
        _ => Statement::Explain {
            statement: Box::new(statement(rng, depth)),
            analyze: rng.gen_bool(0.5),
        },
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// `ast` renders to text that `parse` reads back as `ast`.
fn assert_round_trips<T: Debug + PartialEq + ToString>(
    ast: &T,
    parse: impl Fn(&str) -> crowddb_common::Result<T>,
) {
    let rendered = ast.to_string();
    let reparsed =
        parse(&rendered).unwrap_or_else(|err| panic!("failed to re-parse '{rendered}': {err}"));
    assert!(
        *ast == reparsed,
        "'{rendered}' re-parses to '{}', which is {reparsed:?}",
        reparsed.to_string()
    );
}

fn assert_expr_round_trips(e: &Expr) {
    assert_round_trips(e, parse_expression);
}

fn assert_statement_round_trips(stmt: &Statement) {
    assert_round_trips(stmt, parse_statement);
}

#[test]
fn expr_render_parse_round_trip() {
    for_all(2000, |rng| expr(rng, 3), assert_expr_round_trips);
}

#[test]
fn query_render_parse_round_trip() {
    for_all(
        2000,
        |rng| Statement::Select(Box::new(query(rng, 2))),
        assert_statement_round_trips,
    );
}

/// What the WAL relies on: every statement it logs re-parses to itself.
#[test]
fn statement_render_parse_round_trip() {
    for_all(4000, |rng| statement(rng, 2), assert_statement_round_trips);
}

/// The same contract from the other side: whatever source text the parser
/// accepts — here, rendered statements with a token dropped, doubled,
/// swapped or replaced — yields an AST that survives the round trip. This
/// reaches what the generators above cannot build because only the parser
/// produces it (`"quoted names"`, `1e999`) or normalizes it away (`+x`).
#[test]
fn whatever_parses_survives_the_round_trip() {
    const SPLICE: &[&str] = &[
        "NOT",
        "NULL",
        "CNULL",
        "PRIMARY KEY",
        "NOT NULL",
        "-",
        "+",
        "(",
        ")",
        ",",
        "*",
        "AS",
        "DISTINCT",
        "ALL",
        "ASC",
        "OUTER",
        "INNER",
        "1e999",
        "-1e999",
        "1E5",
        "007",
        "0.50",
        "''",
        "'\u{e9}'",
        "\"Q\"",
        "\"a b\"",
        "\"select\"",
        "\"\u{e9}\"",
        "x",
        "X.Y",
        "9223372036854775807",
        "-- c\n",
        "/* c */",
        "REFERENCES",
        "TEXT",
        "VARCHAR(9)",
        "INT",
        "DOUBLE",
        "!=",
        ";",
    ];
    let mutant = |rng: &mut Rng| {
        // Words and the punctuation around them, each a token of its own.
        let spaced = statement(rng, 1)
            .to_string()
            .replace('(', " ( ")
            .replace(')', " ) ")
            .replace(',', " , ");
        let mut tokens: Vec<String> = spaced.split_whitespace().map(str::to_string).collect();
        for _ in 0..rng.gen_range(1..=2) {
            let at = rng.gen_range(0..tokens.len());
            let other = rng.gen_range(0..tokens.len());
            match rng.gen_range(0..6) {
                0 if tokens.len() > 1 => drop(tokens.remove(at)),
                1 => tokens.insert(at, tokens[at].clone()),
                2 => tokens.swap(at, other),
                3 => tokens[at] = pick(rng, SPLICE).to_string(),
                _ => tokens.insert(at, pick(rng, SPLICE).to_string()),
            }
        }
        tokens.join(" ")
    };
    let accepted = std::cell::Cell::new(0u32);
    for_all(30_000, mutant, |source| {
        if let Ok(stmt) = parse_statement(source) {
            accepted.set(accepted.get() + 1);
            assert_statement_round_trips(&stmt);
        }
    });
    assert!(
        accepted.get() > 1_000,
        "only {} mutants parsed: the property checked little",
        accepted.get()
    );
}

#[test]
fn parser_never_panics_on_arbitrary_input() {
    for_all(
        20_000,
        |rng| text(rng, 80),
        |s| {
            let _ = parse_statement(s);
        },
    );
}

#[test]
fn parser_never_panics_on_select_prefixed_input() {
    for_all(
        20_000,
        |rng| text(rng, 60),
        |s| {
            let _ = parse_statement(&format!("SELECT {s}"));
        },
    );
}

/// Cases that failed once, kept by hand so they outlive a change to the
/// generators (the seeds are those of the generators that found them).
#[test]
fn regressions() {
    // proptest's shrunk case from the old suite: a tight `NOT` operand.
    assert_expr_round_trips(&Expr::Binary {
        left: Box::new(Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(Expr::lit(0i64)),
        }),
        op: BinaryOp::Add,
        right: Box::new(Expr::lit(0i64)),
    });

    let parsed = |source: &str| {
        let stmt = parse_statement(source).unwrap_or_else(|e| panic!("{source}: {e}"));
        assert_statement_round_trips(&stmt);
        stmt
    };
    // `statement_render_parse_round_trip` seed 0: the lexer read quoted
    // text a byte at a time, so every replay re-mangled it.
    let Statement::Update(u) = parsed("UPDATE t SET a = 'Z\u{fc}rich \u{4e2d}'") else {
        panic!("an UPDATE")
    };
    assert_eq!(u.assignments[0].1, Expr::lit("Z\u{fc}rich \u{4e2d}"));
    // Seed 12: `PRIMARY KEY` swallowed the `NOT NULL` beside it.
    parsed("CREATE TABLE t (a INTEGER PRIMARY KEY NOT NULL, b STRING NOT NULL)");
    // `whatever_parses_survives_the_round_trip` seed 280: names that only
    // exist quoted were rendered bare.
    parsed("DELETE FROM \"select\"");
    parsed("CREATE TABLE \"my table\" (\"a b\" INTEGER, FOREIGN KEY (\"a b\") REF \"t 2\"(\"k\u{e9}y\"))");
    parsed("SELECT \"my table\".*, \"a b\" AS \"as\", \"my fn\"(1) FROM \"my table\" AS \"from\"");
    // An overflowing literal is an infinity, which used to render as `inf`.
    parsed("INSERT INTO t VALUES (1e999, -1e999)");
}
