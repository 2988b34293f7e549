//! Recursive-descent parser for CrowdSQL.

use crowddb_common::{CrowdError, DataType, Result, Value};

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::{Keyword, Token, TokenKind};

// Binding levels of the expression grammar, loosest first.
const OR: u8 = 1;
const AND: u8 = 2;
/// Prefix `NOT`; a `NOT` inside a tighter operand is [`Parser::parse_unary`]'s.
const NOT: u8 = 3;
/// One comparison, IS, or [NOT] LIKE/IN/BETWEEN over additive operands.
const PREDICATE: u8 = 4;
const ADDITIVE: u8 = 5;
const MULTIPLICATIVE: u8 = 6;

/// Parse a single statement; trailing semicolon is allowed.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script into statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.parse_statement()?);
        if !p.at_eof() && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("';' between statements"));
        }
    }
}

/// Parse a standalone expression (used by tests and by the form editor).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// The recursive-descent parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lex `sql` and position at the first token.
    pub fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: Lexer::new(sql).tokenize()?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let idx = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    /// Step past the next token and hand it over by move. The parser never
    /// looks back, so a consumed token's slot keeps a placeholder; the
    /// final `Eof` is never consumed.
    fn advance(&mut self) -> TokenKind {
        if self.pos + 1 == self.tokens.len() {
            return TokenKind::Eof;
        }
        self.pos += 1;
        std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
    }

    fn at_eof(&self) -> bool {
        *self.peek() == TokenKind::Eof
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&kind.to_string()))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("{kw:?}")))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.unexpected("end of input"))
        }
    }

    fn unexpected(&self, wanted: &str) -> CrowdError {
        let t = &self.tokens[self.pos];
        CrowdError::Parse(format!(
            "expected {wanted}, found {} at line {}, column {}",
            t.kind, t.line, t.col
        ))
    }

    /// Parse an identifier (keywords are not identifiers).
    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(_) => match self.advance() {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            // `KEY` etc. sometimes appear as column names in the wild; we
            // keep the grammar strict and require quoting instead.
            _ => Err(self.unexpected("identifier")),
        }
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    /// Parse one statement.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Select) => {
                Ok(Statement::Select(Box::new(self.parse_query()?)))
            }
            TokenKind::Keyword(Keyword::Insert) => self.parse_insert(),
            TokenKind::Keyword(Keyword::Update) => self.parse_update(),
            TokenKind::Keyword(Keyword::Delete) => self.parse_delete(),
            TokenKind::Keyword(Keyword::Create) => self.parse_create(),
            TokenKind::Keyword(Keyword::Drop) => self.parse_drop(),
            TokenKind::Keyword(Keyword::Explain) => {
                self.advance();
                // ANALYZE is a contextual keyword: only meaningful right
                // after EXPLAIN, a plain identifier everywhere else.
                let analyze = matches!(self.peek(), TokenKind::Ident(s) if s == "analyze");
                if analyze {
                    self.advance();
                }
                Ok(Statement::Explain {
                    statement: Box::new(self.parse_statement()?),
                    analyze,
                })
            }
            // SUBSCRIBE/UNSUBSCRIBE are contextual keywords, like ANALYZE:
            // only meaningful at statement start, plain identifiers
            // everywhere else (so a column named `subscribe` still works).
            TokenKind::Ident(s) if s == "subscribe" => {
                self.advance();
                Ok(Statement::Subscribe(Box::new(self.parse_query()?)))
            }
            TokenKind::Ident(s) if s == "unsubscribe" => {
                self.advance();
                match *self.peek() {
                    TokenKind::IntLit(n) if n >= 0 => {
                        self.advance();
                        Ok(Statement::Unsubscribe { id: n as u64 })
                    }
                    _ => Err(self.unexpected("a subscription id")),
                }
            }
            _ => Err(self.unexpected(
                "a statement (SELECT/INSERT/UPDATE/DELETE/CREATE/DROP/EXPLAIN/\
                 SUBSCRIBE/UNSUBSCRIBE)",
            )),
        }
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        let columns = if self.check(&TokenKind::LParen) {
            self.advance();
            let mut cols = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            assignments.push((col, self.parse_expr()?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            filter,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let filter = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete { table, filter }))
    }

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::Crowd) {
            self.expect_kw(Keyword::Table)?;
            return self.parse_create_table(true);
        }
        if self.eat_kw(Keyword::Table) {
            return self.parse_create_table(false);
        }
        let unique = self.eat_kw(Keyword::Unique);
        if self.eat_kw(Keyword::Index) {
            let name = self.ident()?;
            self.expect_kw(Keyword::On)?;
            let table = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                columns.push(self.ident()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                columns,
                unique,
            }));
        }
        Err(self.unexpected("TABLE, CROWD TABLE, or [UNIQUE] INDEX after CREATE"))
    }

    fn parse_create_table(&mut self, crowd: bool) -> Result<Statement> {
        let if_not_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Not)?;
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.check_kw(Keyword::Primary) {
                self.advance();
                self.expect_kw(Keyword::Key)?;
                self.expect(&TokenKind::LParen)?;
                let mut cols = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    cols.push(self.ident()?);
                }
                self.expect(&TokenKind::RParen)?;
                constraints.push(TableConstraint::PrimaryKey(cols));
            } else if self.check_kw(Keyword::Foreign) {
                self.advance();
                self.expect_kw(Keyword::Key)?;
                self.expect(&TokenKind::LParen)?;
                let mut cols = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    cols.push(self.ident()?);
                }
                self.expect(&TokenKind::RParen)?;
                // Paper uses `REF`; standard SQL uses `REFERENCES`.
                if !self.eat_kw(Keyword::Ref) {
                    self.expect_kw(Keyword::References)?;
                }
                let ref_table = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let mut ref_columns = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    ref_columns.push(self.ident()?);
                }
                self.expect(&TokenKind::RParen)?;
                constraints.push(TableConstraint::ForeignKey {
                    columns: cols,
                    ref_table,
                    ref_columns,
                });
            } else {
                columns.push(self.parse_column_decl()?);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            crowd,
            columns,
            constraints,
            if_not_exists,
        }))
    }

    fn parse_column_decl(&mut self) -> Result<ColumnDecl> {
        let name = self.ident()?;
        // Paper syntax: `abstract CROWD STRING` — CROWD precedes the type.
        let crowd = self.eat_kw(Keyword::Crowd);
        let data_type = self.parse_data_type()?;
        let mut primary_key = false;
        let mut not_null = false;
        loop {
            if self.check_kw(Keyword::Primary) {
                self.advance();
                self.expect_kw(Keyword::Key)?;
                primary_key = true;
            } else if self.check_kw(Keyword::Not) {
                self.advance();
                self.expect_kw(Keyword::Null)?;
                not_null = true;
            } else {
                break;
            }
        }
        Ok(ColumnDecl {
            name,
            crowd,
            data_type,
            primary_key,
            not_null,
        })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let ty = match self.peek() {
            TokenKind::Keyword(Keyword::String)
            | TokenKind::Keyword(Keyword::Text)
            | TokenKind::Keyword(Keyword::Varchar) => DataType::Str,
            TokenKind::Keyword(Keyword::Int) | TokenKind::Keyword(Keyword::Integer) => {
                DataType::Int
            }
            TokenKind::Keyword(Keyword::Float) | TokenKind::Keyword(Keyword::Double) => {
                DataType::Float
            }
            TokenKind::Keyword(Keyword::Boolean) => DataType::Bool,
            _ => return Err(self.unexpected("a data type (STRING/INTEGER/FLOAT/BOOLEAN)")),
        };
        self.advance();
        // Optional length, e.g. VARCHAR(255): parsed and ignored.
        if self.eat(&TokenKind::LParen) {
            if !matches!(self.peek(), TokenKind::IntLit(_)) {
                return Err(self.unexpected("length"));
            }
            self.advance();
            self.expect(&TokenKind::RParen)?;
        }
        Ok(ty)
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        self.expect_kw(Keyword::Table)?;
        let if_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// Parse a `SELECT` query (without a trailing semicolon), including
    /// `UNION [ALL]` chains whose ORDER BY/LIMIT apply to the whole union.
    pub fn parse_query(&mut self) -> Result<Query> {
        let mut query = self.parse_select_core()?;
        while self.eat_kw(Keyword::Union) {
            let all = self.eat_kw(Keyword::All);
            let arm = self.parse_select_core()?;
            query.set_ops.push(SetOp { all, query: arm });
        }
        self.parse_order_limit(&mut query)?;
        Ok(query)
    }

    /// `SELECT ... [HAVING ...]` — the union-able part of a query.
    fn parse_select_core(&mut self) -> Result<Query> {
        self.expect_kw(Keyword::Select)?;
        let distinct = if self.eat_kw(Keyword::Distinct) {
            true
        } else {
            self.eat_kw(Keyword::All);
            false
        };
        let mut projection = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            projection.push(self.parse_select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            from.push(self.parse_table_ref()?);
            while self.eat(&TokenKind::Comma) {
                from.push(self.parse_table_ref()?);
            }
        }
        let filter = if self.eat_kw(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Query {
            distinct,
            projection,
            from,
            filter,
            group_by,
            having,
            set_ops: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        })
    }

    /// Parse the trailing `ORDER BY` / `LIMIT` / `OFFSET` into `query`.
    fn parse_order_limit(&mut self, query: &mut Query) -> Result<()> {
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                query.order_by.push(OrderByItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw(Keyword::Limit) {
            query.limit = Some(self.parse_u64()?);
        }
        if self.eat_kw(Keyword::Offset) {
            query.offset = Some(self.parse_u64()?);
        }
        Ok(())
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match *self.peek() {
            TokenKind::IntLit(v) if v >= 0 => {
                self.advance();
                Ok(v as u64)
            }
            _ => Err(self.unexpected("a non-negative integer")),
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // table.* ?
        if matches!(self.peek(), TokenKind::Ident(_))
            && *self.peek_at(1) == TokenKind::Dot
            && *self.peek_at(2) == TokenKind::Star
        {
            let name = self.ident()?;
            self.advance();
            self.advance();
            return Ok(SelectItem::QualifiedWildcard(name));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            // Implicit alias: `SELECT a b FROM t`.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let relation = self.parse_relation()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.check_kw(Keyword::Join) || self.check_kw(Keyword::Inner) {
                self.eat_kw(Keyword::Inner);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Inner
            } else if self.check_kw(Keyword::Left) {
                self.advance();
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::Left
            } else if self.check_kw(Keyword::Cross) {
                self.advance();
                self.expect_kw(Keyword::Join)?;
                JoinKind::Cross
            } else {
                break;
            };
            let relation = self.parse_relation()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw(Keyword::On)?;
                Some(self.parse_expr()?)
            };
            joins.push(Join { kind, relation, on });
        }
        Ok(TableRef { relation, joins })
    }

    fn parse_relation(&mut self) -> Result<Relation> {
        if self.eat(&TokenKind::LParen) {
            let query = self.parse_query()?;
            self.expect(&TokenKind::RParen)?;
            self.eat_kw(Keyword::As);
            let alias = self.ident()?;
            return Ok(Relation::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else if let TokenKind::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Relation::Table { name, alias })
    }

    // -----------------------------------------------------------------
    // Expressions (precedence climbing)
    // -----------------------------------------------------------------

    /// Parse an expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_level(OR)
    }

    /// An expression of operators binding at level `min` or tighter, by
    /// precedence climbing: one operand, then operators while they bind at
    /// least as tight as `min` and no tighter than the last one applied
    /// (whose right operand took every tighter one). A predicate does not
    /// chain: after one, only `AND` and `OR` go on. A lone operand costs
    /// one call and one look at the token after it.
    fn parse_level(&mut self, min: u8) -> Result<Expr> {
        let (mut left, mut limit) = if min <= NOT && self.eat_kw(Keyword::Not) {
            let e = self.parse_level(NOT)?;
            let not = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            };
            (not, AND)
        } else {
            (self.parse_unary()?, MULTIPLICATIVE)
        };
        loop {
            let (level, op) = self.infix();
            if level < min || level > limit {
                return Ok(left);
            }
            left = match op {
                Some(op) => {
                    self.advance();
                    let right = self.parse_level(level + 1)?;
                    Expr::Binary {
                        left: Box::new(left),
                        op,
                        right: Box::new(right),
                    }
                }
                None => self.parse_predicate(left)?,
            };
            limit = match level {
                PREDICATE => NOT,
                _ => level,
            };
        }
    }

    /// The level of the operator the next token starts, with its operator
    /// unless it is a predicate's; level 0 when it starts none.
    fn infix(&self) -> (u8, Option<BinaryOp>) {
        let (level, op) = match self.peek() {
            TokenKind::Keyword(Keyword::Or) => (OR, BinaryOp::Or),
            TokenKind::Keyword(Keyword::And) => (AND, BinaryOp::And),
            TokenKind::Plus => (ADDITIVE, BinaryOp::Add),
            TokenKind::Minus => (ADDITIVE, BinaryOp::Sub),
            TokenKind::Concat => (ADDITIVE, BinaryOp::Concat),
            TokenKind::Star => (MULTIPLICATIVE, BinaryOp::Mul),
            TokenKind::Slash => (MULTIPLICATIVE, BinaryOp::Div),
            TokenKind::Percent => (MULTIPLICATIVE, BinaryOp::Mod),
            TokenKind::Keyword(Keyword::Is | Keyword::Like | Keyword::Between | Keyword::In)
            | TokenKind::Eq
            | TokenKind::NotEq
            | TokenKind::Lt
            | TokenKind::LtEq
            | TokenKind::Gt
            | TokenKind::GtEq
            | TokenKind::CrowdEq => return (PREDICATE, None),
            TokenKind::Keyword(Keyword::Not)
                if matches!(
                    self.peek_at(1),
                    TokenKind::Keyword(Keyword::Like | Keyword::In | Keyword::Between)
                ) =>
            {
                return (PREDICATE, None)
            }
            _ => return (0, None),
        };
        (level, Some(op))
    }

    /// The predicate over `left` the next token starts: a comparison,
    /// IS [NOT] [C]NULL, [NOT] LIKE/IN/BETWEEN.
    fn parse_predicate(&mut self, left: Expr) -> Result<Expr> {
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            let cnull = if self.eat_kw(Keyword::Cnull) {
                true
            } else {
                self.expect_kw(Keyword::Null)?;
                false
            };
            return Ok(Expr::Is {
                expr: Box::new(left),
                negated,
                cnull,
            });
        }
        let negated = if self.check_kw(Keyword::Not)
            && matches!(
                self.peek_at(1),
                TokenKind::Keyword(Keyword::Like)
                    | TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Between)
            ) {
            self.advance();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::Like) {
            let pattern = self.parse_level(ADDITIVE)?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw(Keyword::Between) {
            let low = self.parse_level(ADDITIVE)?;
            self.expect_kw(Keyword::And)?;
            let high = self.parse_level(ADDITIVE)?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            if self.check_kw(Keyword::Select) {
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = vec![self.parse_expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.unexpected("LIKE, IN, or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            TokenKind::CrowdEq => Some(BinaryOp::CrowdEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_level(ADDITIVE)?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        // `NOT` normally binds looser than comparisons (the `NOT` level of
        // `parse_level`), but we also accept it as a tight unary operator so
        // that expressions like `a = NOT b` — which our canonical
        // rendering produces for nested NOTs — re-parse correctly.
        if self.eat_kw(Keyword::Not) {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            });
        }
        if self.eat(&TokenKind::Minus) {
            let e = self.parse_unary()?;
            // Fold negative numeric literals immediately.
            return Ok(match e {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::IntLit(_) | TokenKind::FloatLit(_) | TokenKind::StringLit(_) => {
                Ok(Expr::Literal(match self.advance() {
                    TokenKind::IntLit(v) => Value::Int(v),
                    TokenKind::FloatLit(v) => Value::Float(v),
                    TokenKind::StringLit(s) => Value::Str(s),
                    _ => unreachable!("peeked a literal"),
                }))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Keyword(Keyword::Cnull) => {
                self.advance();
                Ok(Expr::Literal(Value::CNull))
            }
            TokenKind::Keyword(Keyword::Case) => self.parse_case(),
            TokenKind::Keyword(Keyword::Cast) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_kw(Keyword::As)?;
                let data_type = self.parse_data_type()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(expr),
                    data_type,
                })
            }
            TokenKind::Keyword(Keyword::Exists) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                })
            }
            TokenKind::Keyword(Keyword::Crowdequal) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let a = self.parse_expr()?;
                self.expect(&TokenKind::Comma)?;
                let b = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Function {
                    name: "crowdequal".into(),
                    args: vec![a, b],
                    distinct: false,
                })
            }
            TokenKind::Keyword(Keyword::Crowdorder) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let mut args = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
                self.expect(&TokenKind::RParen)?;
                if args.len() > 2 {
                    return Err(CrowdError::Parse(
                        "CROWDORDER takes (expr[, 'instruction'])".into(),
                    ));
                }
                Ok(Expr::Function {
                    name: "crowdorder".into(),
                    args,
                    distinct: false,
                })
            }
            TokenKind::LParen => {
                self.advance();
                if self.check_kw(Keyword::Select) {
                    let q = self.parse_query()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                // Function call?
                if self.check(&TokenKind::LParen) {
                    self.advance();
                    let distinct = self.eat_kw(Keyword::Distinct);
                    let mut args = Vec::new();
                    if self.eat(&TokenKind::Star) {
                        args.push(Expr::Wildcard);
                    } else if !self.check(&TokenKind::RParen) {
                        args.push(self.parse_expr()?);
                        while self.eat(&TokenKind::Comma) {
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                    });
                }
                // Qualified column?
                if self.eat(&TokenKind::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column(ColumnRef {
                        table: Some(name),
                        column,
                    }));
                }
                Ok(Expr::Column(ColumnRef::bare(name)))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw(Keyword::Case)?;
        let operand = if self.check_kw(Keyword::When) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let w = self.parse_expr()?;
            self.expect_kw(Keyword::Then)?;
            let t = self.parse_expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_expr = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Select(q) => *q,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_missing_abstract() {
        let q = sel("SELECT abstract FROM paper WHERE title = 'CrowdDB';");
        assert_eq!(q.projection.len(), 1);
        assert_eq!(
            q.filter.as_ref().unwrap().to_string(),
            "(title = 'CrowdDB')"
        );
    }

    #[test]
    fn paper_crowdorder_query() {
        let q = sel(
            "SELECT title FROM Talk ORDER BY CROWDORDER(novel_idea, 'Which talk did you like better') LIMIT 10",
        );
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by.len(), 1);
        assert!(matches!(&q.order_by[0].expr, Expr::Function { name, .. } if name == "crowdorder"));
    }

    #[test]
    fn paper_example_1_create_table() {
        let s = parse_statement(
            "CREATE TABLE Talk (
                title STRING PRIMARY KEY,
                abstract CROWD STRING,
                nb_attendees CROWD INTEGER )",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert!(!ct.crowd);
        assert_eq!(ct.columns.len(), 3);
        assert!(ct.columns[0].primary_key);
        assert!(ct.columns[1].crowd);
        assert_eq!(ct.columns[2].data_type, DataType::Int);
    }

    #[test]
    fn paper_example_2_crowd_table() {
        let s = parse_statement(
            "CREATE CROWD TABLE NotableAttendee (
                name STRING PRIMARY KEY,
                title STRING,
                FOREIGN KEY (title) REF Talk(title) )",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert!(ct.crowd);
        assert_eq!(ct.constraints.len(), 1);
        match &ct.constraints[0] {
            TableConstraint::ForeignKey {
                columns,
                ref_table,
                ref_columns,
            } => {
                assert_eq!(columns, &vec!["title".to_string()]);
                assert_eq!(ref_table, "talk");
                assert_eq!(ref_columns, &vec!["title".to_string()]);
            }
            other => panic!("expected FK, got {other:?}"),
        }
    }

    #[test]
    fn references_also_accepted() {
        assert!(
            parse_statement("CREATE TABLE t (a STRING, FOREIGN KEY (a) REFERENCES u(b))").is_ok()
        );
    }

    #[test]
    fn crowdequal_tilde_shorthand() {
        let q = sel("SELECT * FROM company WHERE name ~= 'IBM'");
        let f = q.filter.unwrap();
        assert!(matches!(
            f,
            Expr::Binary {
                op: BinaryOp::CrowdEq,
                ..
            }
        ));
    }

    #[test]
    fn crowdequal_function_form() {
        let q = sel("SELECT * FROM company WHERE CROWDEQUAL(name, 'IBM')");
        assert!(matches!(q.filter.unwrap(), Expr::Function { name, .. } if name == "crowdequal"));
    }

    #[test]
    fn is_cnull_predicate() {
        let q = sel("SELECT title FROM talk WHERE abstract IS CNULL");
        assert_eq!(
            q.filter.unwrap(),
            Expr::Is {
                expr: Box::new(Expr::col("abstract")),
                negated: false,
                cnull: true
            }
        );
        let q = sel("SELECT title FROM talk WHERE abstract IS NOT CNULL");
        assert!(matches!(q.filter.unwrap(), Expr::Is { negated: true, .. }));
    }

    #[test]
    fn insert_with_cnull() {
        let s = parse_statement("INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert_eq!(ins.rows[0][1], Expr::Literal(Value::CNull));
    }

    #[test]
    fn multi_row_insert_with_columns() {
        let s =
            parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert_eq!(ins.columns, Some(vec!["a".into(), "b".into()]));
        assert_eq!(ins.rows.len(), 3);
    }

    #[test]
    fn update_delete() {
        let s = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3").unwrap();
        let Statement::Update(u) = s else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.filter.is_some());

        let s = parse_statement("DELETE FROM t").unwrap();
        let Statement::Delete(d) = s else { panic!() };
        assert!(d.filter.is_none());
    }

    #[test]
    fn joins_explicit_and_implicit() {
        let q = sel("SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.z, d");
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].joins.len(), 2);
        assert_eq!(q.from[0].joins[0].kind, JoinKind::Inner);
        assert_eq!(q.from[0].joins[1].kind, JoinKind::Left);
    }

    #[test]
    fn cross_join() {
        let q = sel("SELECT * FROM a CROSS JOIN b");
        assert_eq!(q.from[0].joins[0].kind, JoinKind::Cross);
        assert!(q.from[0].joins[0].on.is_none());
    }

    #[test]
    fn aliases() {
        let q = sel("SELECT t.a AS x, u.b y FROM talk AS t, users u");
        match &q.projection[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("x")),
            _ => panic!(),
        }
        match &q.from[1].relation {
            Relation::Table { name, alias } => {
                assert_eq!(name, "users");
                assert_eq!(alias.as_deref(), Some("u"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn group_by_having() {
        let q = sel("SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3");
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
    }

    #[test]
    fn subqueries() {
        let q = sel("SELECT * FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT * FROM v)");
        let f = q.filter.unwrap();
        let rendered = f.to_string();
        assert!(rendered.contains("IN (SELECT b FROM u)"), "{rendered}");
        assert!(rendered.contains("EXISTS"), "{rendered}");
    }

    #[test]
    fn scalar_subquery_and_derived_table() {
        let q = sel("SELECT (SELECT MAX(x) FROM u) FROM (SELECT * FROM t) AS d");
        assert!(matches!(
            q.projection[0],
            SelectItem::Expr {
                expr: Expr::ScalarSubquery(_),
                ..
            }
        ));
        assert!(matches!(q.from[0].relation, Relation::Subquery { .. }));
    }

    #[test]
    fn precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
        let e = parse_expression("a OR b AND NOT c").unwrap();
        assert_eq!(e.to_string(), "(a OR (b AND (NOT c)))");
        let e = parse_expression("-2 + 3").unwrap();
        assert_eq!(e.to_string(), "(-2 + 3)");
    }

    #[test]
    fn between_and_like_and_in() {
        let e = parse_expression("x BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expression("name NOT LIKE 'Crow%'").unwrap();
        assert!(matches!(e, Expr::Like { negated: true, .. }));
        let e = parse_expression("a NOT IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn case_expressions() {
        let e = parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END").unwrap();
        assert!(matches!(e, Expr::Case { operand: None, .. }));
        let e = parse_expression("CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").unwrap();
        match e {
            Expr::Case {
                operand, branches, ..
            } => {
                assert!(operand.is_some());
                assert_eq!(branches.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn cast_expression() {
        let e = parse_expression("CAST(a AS INTEGER)").unwrap();
        assert!(matches!(
            e,
            Expr::Cast {
                data_type: DataType::Int,
                ..
            }
        ));
    }

    #[test]
    fn count_distinct() {
        let e = parse_expression("COUNT(DISTINCT dept)").unwrap();
        match e {
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                assert_eq!(name, "count");
                assert!(distinct);
                assert_eq!(args.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn create_index() {
        let s = parse_statement("CREATE UNIQUE INDEX idx_t_a ON t (a, b)").unwrap();
        let Statement::CreateIndex(ci) = s else {
            panic!()
        };
        assert!(ci.unique);
        assert_eq!(ci.columns, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn drop_table_if_exists() {
        let s = parse_statement("DROP TABLE IF EXISTS t").unwrap();
        assert_eq!(
            s,
            Statement::DropTable {
                name: "t".into(),
                if_exists: true
            }
        );
    }

    #[test]
    fn explain() {
        let s = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
    }

    #[test]
    fn explain_analyze() {
        let s = parse_statement("EXPLAIN ANALYZE SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
        assert_eq!(s.to_string(), "EXPLAIN ANALYZE SELECT * FROM t");
        // ANALYZE still works as a regular identifier elsewhere.
        assert!(parse_statement("SELECT analyze FROM t").is_ok());
    }

    #[test]
    fn subscribe_statement() {
        let s = parse_statement("SUBSCRIBE SELECT a FROM t WHERE a > 1").unwrap();
        let Statement::Subscribe(q) = &s else {
            panic!("expected SUBSCRIBE, got {s:?}")
        };
        assert_eq!(q.projection.len(), 1);
        assert_eq!(s.to_string(), "SUBSCRIBE SELECT a FROM t WHERE (a > 1)");
        // Roundtrip: canonical rendering re-parses to the same AST.
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);
        // SUBSCRIBE is contextual: still valid as an identifier.
        assert!(parse_statement("SELECT subscribe FROM t").is_ok());
    }

    #[test]
    fn unsubscribe_statement() {
        let s = parse_statement("UNSUBSCRIBE 3").unwrap();
        assert_eq!(s, Statement::Unsubscribe { id: 3 });
        assert_eq!(s.to_string(), "UNSUBSCRIBE 3");
        assert_eq!(parse_statement(&s.to_string()).unwrap(), s);
        assert!(parse_statement("UNSUBSCRIBE").is_err());
        assert!(parse_statement("UNSUBSCRIBE x").is_err());
        assert!(parse_statement("UNSUBSCRIBE -1").is_err());
    }

    #[test]
    fn explain_subscribe() {
        let s = parse_statement("EXPLAIN SUBSCRIBE SELECT a FROM t").unwrap();
        let Statement::Explain { statement, analyze } = &s else {
            panic!("expected EXPLAIN, got {s:?}")
        };
        assert!(!analyze);
        assert!(matches!(**statement, Statement::Subscribe(_)));
        assert_eq!(s.to_string(), "EXPLAIN SUBSCRIBE SELECT a FROM t");
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_statements(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn error_messages_have_positions() {
        let err = parse_statement("SELECT FROM t").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse_statement("SELECT * FROM").unwrap_err();
        assert!(err.to_string().contains("identifier"), "{err}");
    }

    #[test]
    fn varchar_length_ignored() {
        let s = parse_statement("CREATE TABLE t (a VARCHAR(255))").unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert_eq!(ct.columns[0].data_type, DataType::Str);
    }

    #[test]
    fn table_level_primary_key() {
        let s =
            parse_statement("CREATE TABLE t (a INTEGER, b STRING, PRIMARY KEY (a, b))").unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert_eq!(
            ct.constraints[0],
            TableConstraint::PrimaryKey(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn rendering_round_trip() {
        // Canonical rendering must re-parse to the same AST.
        let sources = [
            "SELECT DISTINCT a, b AS c FROM t WHERE ((a = 1) AND (b IS NOT CNULL)) ORDER BY a DESC LIMIT 5 OFFSET 2",
            "SELECT title FROM talk ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 10",
            "INSERT INTO t (a, b) VALUES (1, CNULL)",
            "UPDATE t SET a = (a + 1) WHERE (b ~= 'IBM')",
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, FOREIGN KEY (title) REF talk(title))",
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING (COUNT(*) > 3)",
        ];
        for src in sources {
            let ast1 = parse_statement(src).unwrap();
            let rendered = ast1.to_string();
            let ast2 = parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of '{rendered}' failed: {e}"));
            assert_eq!(ast1, ast2, "round-trip mismatch for {src}");
        }
    }
}
