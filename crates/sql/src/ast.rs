//! Abstract syntax tree for CrowdSQL, with SQL rendering.
//!
//! Every node implements `Display`, producing canonical CrowdSQL text;
//! parsing that text again yields an equal AST (property-tested in the
//! parser module). This is used by `EXPLAIN`, logging, and tests.

use std::fmt;

use crowddb_common::{DataType, Value};

use crate::lexer::is_word;
use crate::token::Keyword;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(Box<Query>),
    /// `INSERT INTO t [(cols)] VALUES (...), (...)`
    Insert(Insert),
    /// `UPDATE t SET c = e [WHERE p]`
    Update(Update),
    /// `DELETE FROM t [WHERE p]`
    Delete(Delete),
    /// `CREATE [CROWD] TABLE ...`
    CreateTable(CreateTable),
    /// `CREATE [UNIQUE] INDEX name ON t (cols)`
    CreateIndex(CreateIndex),
    /// `DROP TABLE [IF EXISTS] t`
    DropTable {
        /// Table to drop.
        name: String,
        /// Suppress the error when the table does not exist.
        if_exists: bool,
    },
    /// `EXPLAIN [ANALYZE] <statement>`
    Explain {
        /// The statement being explained.
        statement: Box<Statement>,
        /// `EXPLAIN ANALYZE`: execute and report per-operator stats.
        analyze: bool,
    },
    /// `SUBSCRIBE SELECT ...` — register a standing query that emits
    /// delta batches as crowd rounds settle and DML commits.
    Subscribe(Box<Query>),
    /// `UNSUBSCRIBE <id>` — drop the standing query with that id.
    Unsubscribe {
        /// Subscription id returned by `SUBSCRIBE`.
        id: u64,
    },
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list, if given.
    pub columns: Option<Vec<String>>,
    /// One or more rows of value expressions.
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET col = expr` pairs.
    pub assignments: Vec<(String, Expr)>,
    /// Optional `WHERE` predicate.
    pub filter: Option<Expr>,
}

/// `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Optional `WHERE` predicate.
    pub filter: Option<Expr>,
}

/// `CREATE [CROWD] TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// `CREATE CROWD TABLE`?
    pub crowd: bool,
    /// Column declarations.
    pub columns: Vec<ColumnDecl>,
    /// Table-level constraints.
    pub constraints: Vec<TableConstraint>,
    /// `IF NOT EXISTS`? (accepted as `CREATE TABLE IF NOT EXISTS`)
    pub if_not_exists: bool,
}

/// A column declaration inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecl {
    /// Column name.
    pub name: String,
    /// `CROWD` modifier — the CrowdSQL extension from paper Example 1.
    pub crowd: bool,
    /// Declared type.
    pub data_type: DataType,
    /// Inline `PRIMARY KEY`.
    pub primary_key: bool,
    /// `NOT NULL`.
    pub not_null: bool,
}

/// Table-level constraint inside `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableConstraint {
    /// `PRIMARY KEY (cols)`
    PrimaryKey(Vec<String>),
    /// `FOREIGN KEY (cols) REF table(cols)` — the paper spells
    /// `REFERENCES` as `REF`; both are accepted.
    ForeignKey {
        /// Referencing columns.
        columns: Vec<String>,
        /// Referenced table.
        ref_table: String,
        /// Referenced columns.
        ref_columns: Vec<String>,
    },
}

/// `CREATE INDEX` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed columns, in order.
    pub columns: Vec<String>,
    /// `UNIQUE` index?
    pub unique: bool,
}

/// One `UNION [ALL]` arm attached to a query.
#[derive(Debug, Clone, PartialEq)]
pub struct SetOp {
    /// `UNION ALL` (keep duplicates)?
    pub all: bool,
    /// The right-hand select (no ORDER BY/LIMIT of its own; those apply
    /// to the whole union).
    pub query: Query,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `FROM` items (comma-separated; explicit joins hang off each item).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub filter: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `UNION [ALL]` arms, applied in order.
    pub set_ops: Vec<SetOp>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` count.
    pub limit: Option<u64>,
    /// `OFFSET` count.
    pub offset: Option<u64>,
}

impl Query {
    /// An empty `SELECT` skeleton (useful for tests and builders).
    pub fn empty() -> Query {
        Query {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            filter: None,
            group_by: Vec::new(),
            having: None,
            set_ops: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `table.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// A `FROM` item: a base table with optional alias and a chain of explicit
/// joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base relation.
    pub relation: Relation,
    /// Explicit `JOIN`s applied to the base relation, in order.
    pub joins: Vec<Join>,
}

/// A named relation or subquery with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub enum Relation {
    /// A named table, optionally aliased.
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesized subquery with required alias.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Alias naming the derived table.
        alias: String,
    },
}

/// One explicit join.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join type.
    pub kind: JoinKind,
    /// Right-hand relation.
    pub relation: Relation,
    /// `ON` predicate (`None` for CROSS JOIN).
    pub on: Option<Expr>,
}

/// Join types supported by CrowdDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    Left,
    /// `CROSS JOIN`
    Cross,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression (may be a `CROWDORDER(...)` call).
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `~=` / `CROWDEQUAL` — crowd-judged equality.
    CrowdEq,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::CrowdEq => "~=",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `NOT`
    Not,
    /// `-`
    Neg,
    /// `+` (no-op, kept for fidelity)
    Pos,
}

/// A column reference, optionally qualified.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Qualifier (table name or alias).
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{}.{}", Ident(t), Ident(&self.column)),
            None => write!(f, "{}", Ident(&self.column)),
        }
    }
}

/// Scalar and predicate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value (including `NULL` and `CNULL`).
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL` / `expr IS [NOT] CNULL`.
    Is {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negated (`IS NOT`)?
        negated: bool,
        /// Testing for `CNULL` rather than `NULL`?
        cnull: bool,
    },
    /// `expr [NOT] LIKE pattern` (SQL `%`/`_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// Subquery producing candidates.
        query: Box<Query>,
        /// Negated?
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// Subquery.
        query: Box<Query>,
        /// Negated?
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)`.
    ScalarSubquery(Box<Query>),
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional `CASE operand WHEN value` operand.
        operand: Option<Box<Expr>>,
        /// `(when, then)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` expression.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        data_type: DataType,
    },
    /// Function call: aggregates (`COUNT`, `SUM`, ...), scalar functions,
    /// and the crowd built-ins `CROWDEQUAL(a, b)` / `CROWDORDER(expr,
    /// 'instruction')`.
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments (`[Expr::Wildcard]` for `COUNT(*)`).
        args: Vec<Expr>,
        /// `COUNT(DISTINCT x)`-style distinct aggregation.
        distinct: bool,
    },
    /// `*` inside `COUNT(*)`.
    Wildcard,
}

impl Expr {
    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Bare column helper.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    /// Whether this expression contains an aggregate function call at the
    /// top level of expression nesting (not inside a subquery).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }

    /// Visit this expression and all sub-expressions (not descending into
    /// subqueries).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::Wildcard | Expr::ScalarSubquery(_) => {}
            Expr::Unary { expr, .. } | Expr::Is { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Exists { .. } => {}
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// Collect all column references in this expression (not descending
    /// into subqueries).
    pub fn columns(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
        out
    }
}

/// Whether `name` (lower-cased) is `CROWDEQUAL` or `CROWDORDER`.
fn is_crowd_builtin(name: &str) -> bool {
    matches!(name, "crowdequal" | "crowdorder")
}

/// Whether `name` (lower-cased) names an aggregate function.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}

// ---------------------------------------------------------------------
// Display: canonical CrowdSQL rendering
// ---------------------------------------------------------------------

/// An identifier as source text: bare when the lexer reads it back as
/// this identifier, double-quoted when it would not — a keyword, a name
/// with a space in it — so that `"my table"` and `"select"` survive
/// rendering (and with it a WAL replay) as the names they are.
struct Ident<'a>(&'a str);

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if is_word(self.0) && Keyword::from_str(self.0).is_none() {
            f.write_str(self.0)
        } else {
            write!(f, "\"{}\"", self.0)
        }
    }
}

/// `a, b, c`, each name as [`Ident`] renders it.
fn ident_list(names: &[String]) -> String {
    let names: Vec<String> = names.iter().map(|n| Ident(n).to_string()).collect();
    names.join(", ")
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::Insert(i) => write!(f, "{i}"),
            Statement::Update(u) => write!(f, "{u}"),
            Statement::Delete(d) => write!(f, "{d}"),
            Statement::CreateTable(c) => write!(f, "{c}"),
            Statement::CreateIndex(c) => write!(f, "{c}"),
            Statement::DropTable { name, if_exists } => {
                write!(
                    f,
                    "DROP TABLE {}{}",
                    if *if_exists { "IF EXISTS " } else { "" },
                    Ident(name)
                )
            }
            Statement::Explain { statement, analyze } => write!(
                f,
                "EXPLAIN {}{statement}",
                if *analyze { "ANALYZE " } else { "" }
            ),
            Statement::Subscribe(q) => write!(f, "SUBSCRIBE {q}"),
            Statement::Unsubscribe { id } => write!(f, "UNSUBSCRIBE {id}"),
        }
    }
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", Ident(&self.table))?;
        if let Some(cols) = &self.columns {
            write!(f, " ({})", ident_list(cols))?;
        }
        f.write_str(" VALUES ")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str("(")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", Ident(&self.table))?;
        for (i, (c, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} = {e}", Ident(c))?;
        }
        if let Some(p) = &self.filter {
            write!(f, " WHERE {p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", Ident(&self.table))?;
        if let Some(p) = &self.filter {
            write!(f, " WHERE {p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE {}TABLE {}{} (",
            if self.crowd { "CROWD " } else { "" },
            if self.if_not_exists {
                "IF NOT EXISTS "
            } else {
                ""
            },
            Ident(&self.name)
        )?;
        let mut first = true;
        for c in &self.columns {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        for t in &self.constraints {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

impl fmt::Display for ColumnDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Ident(&self.name))?;
        if self.crowd {
            f.write_str(" CROWD")?;
        }
        write!(f, " {}", self.data_type.sql_name())?;
        if self.primary_key {
            f.write_str(" PRIMARY KEY")?;
        }
        if self.not_null {
            f.write_str(" NOT NULL")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableConstraint::PrimaryKey(cols) => {
                write!(f, "PRIMARY KEY ({})", ident_list(cols))
            }
            TableConstraint::ForeignKey {
                columns,
                ref_table,
                ref_columns,
            } => write!(
                f,
                "FOREIGN KEY ({}) REF {}({})",
                ident_list(columns),
                Ident(ref_table),
                ident_list(ref_columns)
            ),
        }
    }
}

impl fmt::Display for CreateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE {}INDEX {} ON {} ({})",
            if self.unique { "UNIQUE " } else { "" },
            Ident(&self.name),
            Ident(&self.table),
            ident_list(&self.columns)
        )
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(p) = &self.filter {
            write!(f, " WHERE {p}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        for op in &self.set_ops {
            write!(f, " UNION {}{}", if op.all { "ALL " } else { "" }, op.query)?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}{}", o.expr, if o.desc { " DESC" } else { "" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{}.*", Ident(t)),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {}", Ident(a))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.relation)?;
        for j in &self.joins {
            write!(f, "{j}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Table { name, alias } => {
                write!(f, "{}", Ident(name))?;
                if let Some(a) = alias {
                    write!(f, " AS {}", Ident(a))?;
                }
                Ok(())
            }
            Relation::Subquery { query, alias } => write!(f, "({query}) AS {}", Ident(alias)),
        }
    }
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kw = match self.kind {
            JoinKind::Inner => " JOIN ",
            JoinKind::Left => " LEFT JOIN ",
            JoinKind::Cross => " CROSS JOIN ",
        };
        f.write_str(kw)?;
        write!(f, "{}", self.relation)?;
        if let Some(on) = &self.on {
            write!(f, " ON {on}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&v.sql_literal()),
            Expr::Column(c) => write!(f, "{c}"),
            // The outer parentheses keep rendering unambiguous: NOT binds
            // loosely when parsed top-down, so `(NOT e)` re-parses as this
            // node even when embedded in a tighter context like `x = (NOT e)`.
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Pos => write!(f, "(+{expr})"),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            Expr::Is {
                expr,
                negated,
                cnull,
            } => write!(
                f,
                "({expr} IS {}{})",
                if *negated { "NOT " } else { "" },
                if *cnull { "CNULL" } else { "NULL" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => write!(
                f,
                "({expr} {}IN ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { query, negated } => {
                write!(
                    f,
                    "({}EXISTS ({query}))",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                f.write_str("CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::Cast { expr, data_type } => {
                write!(f, "CAST({expr} AS {})", data_type.sql_name())
            }
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                // The crowd built-ins are keywords that are also called.
                if is_word(name) && (Keyword::from_str(name).is_none() || is_crowd_builtin(name)) {
                    write!(f, "{}(", name.to_ascii_uppercase())?;
                } else {
                    write!(f, "\"{name}\"(")?;
                }
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Wildcard => f.write_str("*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinaryOp::Eq,
            right: Box::new(Expr::lit(1i64)),
        };
        assert_eq!(e.to_string(), "(a = 1)");
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Function {
            name: "count".into(),
            args: vec![Expr::Wildcard],
            distinct: false,
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert!(is_aggregate_name("avg"));
        assert!(!is_aggregate_name("lower"));
    }

    #[test]
    fn columns_collected() {
        let e = Expr::Binary {
            left: Box::new(Expr::Column(ColumnRef::qualified("t", "a"))),
            op: BinaryOp::Lt,
            right: Box::new(Expr::col("b")),
        };
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0], ColumnRef::qualified("t", "a"));
        assert_eq!(cols[1], ColumnRef::bare("b"));
    }

    #[test]
    fn display_is_cnull() {
        let e = Expr::Is {
            expr: Box::new(Expr::col("abstract")),
            negated: false,
            cnull: true,
        };
        assert_eq!(e.to_string(), "(abstract IS CNULL)");
    }

    #[test]
    fn display_create_crowd_table() {
        let c = CreateTable {
            name: "notableattendee".into(),
            crowd: true,
            columns: vec![ColumnDecl {
                name: "name".into(),
                crowd: false,
                data_type: DataType::Str,
                primary_key: true,
                not_null: false,
            }],
            constraints: vec![TableConstraint::ForeignKey {
                columns: vec!["title".into()],
                ref_table: "talk".into(),
                ref_columns: vec!["title".into()],
            }],
            if_not_exists: false,
        };
        let s = c.to_string();
        assert!(s.starts_with("CREATE CROWD TABLE notableattendee"));
        assert!(s.contains("FOREIGN KEY (title) REF talk(title)"));
    }
}
