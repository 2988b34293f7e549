//! Pinned lexer and parser error texts, each with its line and column.
//!
//! A position is 1-based; a column counts bytes, so a character outside
//! ASCII moves it by its UTF-8 length, and a newline inside a string
//! literal, a quoted identifier or a block comment starts the next line.
//! The lexer skips over quoted text and comments in bulk, so these cases
//! pin what that skipping must leave the position at.

use crowddb_common::Value;
use crowddb_sql::{parse_statement, parse_statements, Expr, Statement};

/// `(input, the error text parse_statement gives)`.
const STATEMENT_ERRORS: &[(&str, &str)] = &[
    // Unterminated quoted text: the position is end of input.
    (
        "SELECT 'abc",
        "unterminated string literal at line 1, column 12",
    ),
    (
        "SELECT '",
        "unterminated string literal at line 1, column 9",
    ),
    // A `''` at end of input is an escaped quote, not a closing one.
    (
        "SELECT 'abc''",
        "unterminated string literal at line 1, column 14",
    ),
    (
        "SELECT 'a'' FROM t",
        "unterminated string literal at line 1, column 19",
    ),
    (
        "SELECT 'a\nb\nc",
        "unterminated string literal at line 3, column 2",
    ),
    (
        "SELECT \"abc",
        "unterminated quoted identifier at line 1, column 12",
    ),
    (
        "SELECT /* never closed",
        "unterminated block comment at line 1, column 23",
    ),
    // A string spanning lines moves the line of everything after it.
    (
        "SELECT 'line one\nline two' FROM",
        "expected identifier, found end of input at line 2, column 15",
    ),
    (
        "SELECT 'line one\nline two\n' @",
        "unexpected character '@' at line 3, column 3",
    ),
    (
        "SELECT 'a\r\nb' +",
        "expected an expression, found end of input at line 2, column 5",
    ),
    (
        "INSERT INTO t VALUES ('a\n\nb', 1, )",
        "expected an expression, found ')' at line 3, column 8",
    ),
    (
        "UPDATE t SET a = 'x\ny' WHERE",
        "expected an expression, found end of input at line 2, column 9",
    ),
    (
        "INSERT INTO t VALUES ('x''y', 'multi\nline', 'z\u{fc}rich') ,",
        "expected '(', found end of input at line 2, column 20",
    ),
    (
        "SELECT \"Col\nName\" FROM",
        "expected identifier, found end of input at line 2, column 11",
    ),
    (
        "SELECT /* a\nb */ 'x' FROM",
        "expected identifier, found end of input at line 2, column 14",
    ),
    (
        "SELECT 1 -- trailing comment\n FROM",
        "expected identifier, found end of input at line 2, column 6",
    ),
    // Columns count bytes: 'ü' is two.
    (
        "SELECT 'Z\u{fc}rich' @",
        "unexpected character '@' at line 1, column 18",
    ),
    (
        "SELECT a FROM t WHERE b = 'it''s' AND",
        "expected an expression, found end of input at line 1, column 38",
    ),
    (
        "SELECT 'tab\there' FROM t WHERE ;",
        "expected an expression, found ';' at line 1, column 32",
    ),
    // Operators the lexer only half recognises.
    (
        "SELECT 1 ~ 2",
        "expected '=' after '~' (CROWDEQUAL shorthand is '~=') at line 1, column 11",
    ),
    (
        "SELECT 1 ! 2",
        "expected '=' after '!' at line 1, column 11",
    ),
    (
        "SELECT 1 | 2",
        "expected '|' after '|' at line 1, column 11",
    ),
    (
        "SELECT 99999999999999999999",
        "invalid integer literal '99999999999999999999': number too large to fit in target \
         type at line 1, column 28",
    ),
    // The parser names the token it stopped at.
    (
        "SELECT 'x' 'y'",
        "expected end of input, found string 'y' at line 1, column 12",
    ),
    (
        "SELECT 'ok';;",
        "expected end of input, found ';' at line 1, column 13",
    ),
    (
        "DELETE FROM t WHERE a = 'x' extra",
        "expected end of input, found identifier 'extra' at line 1, column 29",
    ),
    (
        "CREATE TABLE t (a VARCHAR(10)",
        "expected ')', found end of input at line 1, column 30",
    ),
    (
        "CREATE TABLE t (a FOO)",
        "expected a data type (STRING/INTEGER/FLOAT/BOOLEAN), found identifier 'foo' at \
         line 1, column 19",
    ),
];

#[test]
fn lexer_and_parser_errors_keep_their_text_and_position() {
    for (sql, want) in STATEMENT_ERRORS {
        let err = parse_statement(sql).expect_err(sql).to_string();
        assert_eq!(err, format!("parse error: {want}"), "input {sql:?}");
    }
}

#[test]
fn a_bad_type_length_names_the_bad_token() {
    for (sql, want) in [
        (
            "CREATE TABLE t (a VARCHAR(abc))",
            "expected length, found identifier 'abc' at line 1, column 27",
        ),
        (
            "CREATE TABLE t (a VARCHAR())",
            "expected length, found ')' at line 1, column 27",
        ),
        (
            "SELECT CAST(a AS STRING('x')) FROM t",
            "expected length, found string 'x' at line 1, column 25",
        ),
    ] {
        let err = parse_statement(sql).expect_err(sql).to_string();
        assert_eq!(err, format!("parse error: {want}"), "input {sql:?}");
    }
}

#[test]
fn a_script_error_keeps_its_position_past_earlier_statements() {
    let err = parse_statements("SELECT 'a\nb';\nSELECT 'it''s' 1")
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        "parse error: expected ';' between statements, found integer 1 at line 3, column 16"
    );
}

/// The text a lone string literal statement reads as.
fn literal(sql: &str) -> String {
    let Statement::Select(q) = parse_statement(sql).expect(sql) else {
        panic!("{sql}: not a SELECT");
    };
    match &q.projection[0] {
        crowddb_sql::SelectItem::Expr {
            expr: Expr::Literal(Value::Str(s)),
            ..
        } => s.clone(),
        other => panic!("{sql}: not a string literal: {other:?}"),
    }
}

#[test]
fn quoted_text_reads_back_exactly() {
    assert_eq!(literal("SELECT ''"), "");
    assert_eq!(literal("SELECT ''''"), "'");
    assert_eq!(literal("SELECT 'it''s'''"), "it's'");
    assert_eq!(literal("SELECT '''a'''"), "'a'");
    assert_eq!(literal("SELECT 'a\nb\r\n'"), "a\nb\r\n");
    assert_eq!(
        literal("SELECT 'Z\u{fc}rich ''\u{4e2d}'' \u{1f600}'"),
        "Z\u{fc}rich '\u{4e2d}' \u{1f600}"
    );
}
