//! # crowddb-sql
//!
//! Lexer, parser, and abstract syntax tree for **CrowdSQL** — the small
//! extension of SQL defined by the CrowdDB papers (VLDB 2011 demo /
//! SIGMOD 2011):
//!
//! * `CREATE CROWD TABLE ...` — open-world, crowdsourceable tables;
//! * `column CROWD TYPE` — crowdsourced columns;
//! * the `CNULL` literal — "value pending crowdsourcing";
//! * `CROWDEQUAL(a, b)` (also spelled `a ~= b`) — crowd-judged equality;
//! * `CROWDORDER(expr, 'instruction')` — crowd-judged ordering, usable in
//!   `ORDER BY`;
//! * `FOREIGN KEY (...) REF table(...)` — the paper's abbreviated
//!   `REFERENCES` spelling (both are accepted).
//!
//! The parser is a hand-written recursive-descent parser over a
//! hand-written lexer; no external parsing crates are used.
//!
//! ```
//! use crowddb_sql::parse_statement;
//! let stmt = parse_statement(
//!     "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 10",
//! ).unwrap();
//! assert!(stmt.to_string().starts_with("SELECT title FROM talk"));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::*;
pub use lexer::Lexer;
pub use parser::{parse_expression, parse_statement, parse_statements, Parser};
pub use token::{Keyword, Token, TokenKind};
