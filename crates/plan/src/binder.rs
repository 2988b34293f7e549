//! The binder: parse tree → logical plan.
//!
//! Resolves table and column names against the catalog, expands
//! wildcards, separates aggregates into `Aggregate` nodes, recognizes the
//! crowd built-ins, and records — per scan — which base columns the query
//! actually needs (the set that drives CrowdProbe for `CNULL`s).

use std::collections::{BTreeSet, HashMap};

use crowddb_common::{CrowdError, DataType, Result, Value};
use crowddb_sql::{
    is_aggregate_name, BinaryOp, Expr, JoinKind, Query, Relation, SelectItem, TableRef,
};
use crowddb_storage::Catalog;

use crate::bound_expr::{AggCall, AggFn, BExpr, ScalarFn};
use crate::logical::{scan_schema, JoinType, LogicalPlan, SortKey};
use crate::schema::{PlanColumn, PlanSchema};

/// Binds queries against a catalog snapshot.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    /// alias → base ordinals referenced anywhere in the query.
    used_columns: HashMap<String, BTreeSet<usize>>,
}

impl<'a> Binder<'a> {
    /// New binder over a catalog.
    pub fn new(catalog: &'a Catalog) -> Binder<'a> {
        Binder {
            catalog,
            used_columns: HashMap::new(),
        }
    }

    /// Bind a full `SELECT` query into a logical plan.
    pub fn bind_query(&mut self, query: &Query) -> Result<LogicalPlan> {
        if !query.set_ops.is_empty() {
            return self.bind_union(query);
        }
        // 1. FROM clause.
        let mut plan = self.bind_from(&query.from)?;
        let from_schema = plan.schema();

        // SELECT without FROM: literal row.
        let no_from = query.from.is_empty();

        // 2. WHERE.
        if let Some(filter) = &query.filter {
            if no_from {
                return Err(CrowdError::Analyze("WHERE requires a FROM clause".into()));
            }
            let pred = self.bind_expr(filter, &from_schema)?;
            if contains_crowd_order(&pred) {
                return Err(CrowdError::Analyze(
                    "CROWDORDER is only allowed in ORDER BY".into(),
                ));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }

        // 3. Aggregation?
        let has_aggs = query
            .projection
            .iter()
            .any(|it| matches!(it, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || query
                .having
                .as_ref()
                .map(|h| h.contains_aggregate())
                .unwrap_or(false)
            || !query.group_by.is_empty();

        let (mut plan, working_schema, agg_env) = if has_aggs {
            let (agg_plan, env) = self.bind_aggregate(plan, query)?;
            let schema = agg_plan.schema();
            (agg_plan, schema, Some(env))
        } else {
            let schema = plan.schema();
            (plan, schema, None)
        };

        // 4. HAVING (after aggregation).
        if let Some(having) = &query.having {
            let env = agg_env
                .as_ref()
                .ok_or_else(|| CrowdError::Analyze("HAVING requires aggregation".into()))?;
            let pred = self.bind_agg_output_expr(having, env, &working_schema)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }

        // 5. Projection expressions (bound against working schema).
        let mut out_exprs = Vec::new();
        let mut out_cols = Vec::new();
        for item in &query.projection {
            match item {
                SelectItem::Wildcard => {
                    if no_from {
                        return Err(CrowdError::Analyze(
                            "SELECT * requires a FROM clause".into(),
                        ));
                    }
                    if agg_env.is_some() {
                        return Err(CrowdError::Analyze(
                            "SELECT * cannot be combined with GROUP BY".into(),
                        ));
                    }
                    for (i, c) in working_schema.columns.iter().enumerate() {
                        self.mark_used(c);
                        out_exprs.push(BExpr::Column(i));
                        out_cols.push(c.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let ql = q.to_ascii_lowercase();
                    let mut any = false;
                    for (i, c) in working_schema.columns.iter().enumerate() {
                        if c.qualifier.as_deref() == Some(ql.as_str()) {
                            self.mark_used(c);
                            out_exprs.push(BExpr::Column(i));
                            out_cols.push(c.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(CrowdError::Analyze(format!(
                            "unknown table or alias '{q}' in '{q}.*'"
                        )));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = match &agg_env {
                        Some(env) => self.bind_agg_output_expr(expr, env, &working_schema)?,
                        None => self.bind_expr(expr, &working_schema)?,
                    };
                    if contains_crowd_order(&bound) {
                        return Err(CrowdError::Analyze(
                            "CROWDORDER is only allowed in ORDER BY".into(),
                        ));
                    }
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    let col = derive_column(&bound, &working_schema, name);
                    out_exprs.push(bound);
                    out_cols.push(col);
                }
            }
        }

        // 6. ORDER BY — bound against the working schema, with output
        //    aliases and 1-based positions also accepted.
        let mut sort_keys = Vec::new();
        for item in &query.order_by {
            let bound = self.bind_order_key(
                &item.expr,
                &working_schema,
                &query.projection,
                &out_exprs,
                agg_env.as_ref(),
            )?;
            sort_keys.push(SortKey {
                expr: bound,
                desc: item.desc,
            });
        }
        if !sort_keys.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: sort_keys,
            };
        }

        // 7. Project.
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: out_exprs,
            schema: PlanSchema::new(out_cols),
        };

        // 8. DISTINCT.
        if query.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        // 9. LIMIT / OFFSET.
        if query.limit.is_some() || query.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: query.limit,
                offset: query.offset.unwrap_or(0),
            };
        }

        // 10. Record per-scan needed columns.
        let used = std::mem::take(&mut self.used_columns);
        apply_needed_columns(&mut plan, &used);
        Ok(plan)
    }

    /// Bind a query with `UNION [ALL]` arms: each arm is bound as a full
    /// select (sans ORDER BY/LIMIT), arities must agree, and the trailing
    /// ORDER BY/LIMIT apply to the combined output (keys may reference
    /// output positions, aliases, or output column names).
    fn bind_union(&mut self, query: &Query) -> Result<LogicalPlan> {
        let body = Query {
            set_ops: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
            ..query.clone()
        };
        let mut plan = self.bind_query(&body)?;
        let arity = plan.schema().arity();
        for op in &query.set_ops {
            let arm = Binder::new(self.catalog).bind_query(&op.query)?;
            if arm.schema().arity() != arity {
                return Err(CrowdError::Analyze(format!(
                    "UNION arms have different arities ({arity} vs {})",
                    arm.schema().arity()
                )));
            }
            plan = LogicalPlan::Union {
                left: Box::new(plan),
                right: Box::new(arm),
                all: op.all,
            };
        }
        // ORDER BY over the union output.
        let out_schema = plan.schema();
        let mut keys = Vec::new();
        for item in &query.order_by {
            let bound = match &item.expr {
                Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= arity => {
                    BExpr::Column(*k as usize - 1)
                }
                Expr::Column(c) if c.table.is_none() => {
                    let name = c.column.to_ascii_lowercase();
                    let idx = out_schema
                        .columns
                        .iter()
                        .position(|col| col.name == name)
                        .ok_or_else(|| {
                            CrowdError::Analyze(format!(
                                "ORDER BY column '{name}' is not in the UNION output"
                            ))
                        })?;
                    BExpr::Column(idx)
                }
                other => {
                    return Err(CrowdError::Analyze(format!(
                        "ORDER BY over a UNION must reference an output column or \
                         position, got '{other}'"
                    )))
                }
            };
            keys.push(SortKey {
                expr: bound,
                desc: item.desc,
            });
        }
        if !keys.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if query.limit.is_some() || query.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: query.limit,
                offset: query.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// The row-selection plan of an UPDATE/DELETE: a scan of `table`
    /// under the statement's `WHERE`, ready for the same optimize → lower
    /// a query gets. The scan's `needed_columns` stays empty and it has no
    /// tuple quota, so selecting rows to change probes no CNULL and asks
    /// for no new tuples — only crowd *predicates* can need the crowd.
    pub fn bind_table_scan(&mut self, table: &str, filter: Option<&Expr>) -> Result<LogicalPlan> {
        let scan = self.bind_scan(table, None)?;
        Ok(match filter {
            Some(f) => LogicalPlan::Filter {
                predicate: self.bind_expr(f, &scan.schema())?,
                input: Box::new(scan),
            },
            None => scan,
        })
    }

    /// Bind one expression over a base table's columns — the right-hand
    /// side of an UPDATE assignment.
    pub fn bind_table_expr(&mut self, table: &str, expr: &Expr) -> Result<BExpr> {
        let schema = self.bind_scan(table, None)?.schema();
        self.bind_expr(expr, &schema)
    }

    /// Bind a column-free expression (INSERT values, `SELECT 1+1`).
    pub fn bind_value_expr(&mut self, expr: &Expr) -> Result<BExpr> {
        let empty = PlanSchema::default();
        self.bind_expr(expr, &empty)
    }

    // ------------------------------------------------------------------
    // FROM
    // ------------------------------------------------------------------

    fn bind_from(&mut self, from: &[TableRef]) -> Result<LogicalPlan> {
        if from.is_empty() {
            // SELECT without FROM: a single empty row feeds projections.
            return Ok(LogicalPlan::Values {
                rows: vec![vec![]],
                schema: PlanSchema::default(),
            });
        }
        let mut iter = from.iter();
        let mut plan = self.bind_table_ref(iter.next().expect("non-empty"))?;
        for tr in iter {
            let right = self.bind_table_ref(tr)?;
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                kind: JoinType::Cross,
                on: None,
            };
        }
        Ok(plan)
    }

    fn bind_table_ref(&mut self, tr: &TableRef) -> Result<LogicalPlan> {
        let mut plan = self.bind_relation(&tr.relation)?;
        for join in &tr.joins {
            let right = self.bind_relation(&join.relation)?;
            let kind = match join.kind {
                JoinKind::Inner => JoinType::Inner,
                JoinKind::Left => JoinType::Left,
                JoinKind::Cross => JoinType::Cross,
            };
            let combined = plan.schema().join(&right.schema());
            let on = match &join.on {
                Some(e) => Some(self.bind_expr(e, &combined)?),
                None => None,
            };
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(plan)
    }

    fn bind_relation(&mut self, rel: &Relation) -> Result<LogicalPlan> {
        match rel {
            Relation::Table { name, alias } => self.bind_scan(name, alias.as_deref()),
            Relation::Subquery { query, alias } => {
                let inner = Binder::new(self.catalog).bind_query(query)?;
                // Re-qualify the subquery's output under the alias.
                let schema = PlanSchema::new(
                    inner
                        .schema()
                        .columns
                        .into_iter()
                        .map(|mut c| {
                            c.qualifier = Some(alias.to_ascii_lowercase());
                            // Derived-table columns lose base provenance for
                            // write-back purposes (already projected).
                            c
                        })
                        .collect(),
                );
                let exprs = (0..schema.arity()).map(BExpr::Column).collect();
                Ok(LogicalPlan::Project {
                    input: Box::new(inner),
                    exprs,
                    schema,
                })
            }
        }
    }

    fn bind_scan(&mut self, table: &str, alias: Option<&str>) -> Result<LogicalPlan> {
        let schema = self
            .catalog
            .get(table)
            .ok_or_else(|| CrowdError::Analyze(format!("unknown table '{table}'")))?;
        let alias = alias
            .map(|a| a.to_ascii_lowercase())
            .unwrap_or_else(|| schema.name.clone());
        let cols: Vec<(String, DataType, bool)> = schema
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.data_type, c.crowd))
            .collect();
        Ok(LogicalPlan::Scan {
            table: schema.name.clone(),
            alias: alias.clone(),
            schema: scan_schema(&alias, &cols, &schema.name),
            crowd_table: schema.crowd_table,
            needed_columns: Vec::new(),
            expected_tuples: None,
        })
    }

    // ------------------------------------------------------------------
    // Aggregation
    // ------------------------------------------------------------------

    /// Build an Aggregate node and the environment used to rebind
    /// projection/HAVING/ORDER BY over its output.
    fn bind_aggregate(
        &mut self,
        input: LogicalPlan,
        query: &Query,
    ) -> Result<(LogicalPlan, AggEnv)> {
        let in_schema = input.schema();
        let mut group_by = Vec::new();
        let mut gb_asts = Vec::new();
        let mut out_cols = Vec::new();
        for g in &query.group_by {
            let bound = self.bind_expr(g, &in_schema)?;
            let name = default_name(g);
            out_cols.push(derive_column(&bound, &in_schema, name));
            group_by.push(bound);
            gb_asts.push(g.to_string());
        }

        // Collect aggregate calls from projection, having, order by.
        let mut agg_asts: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| {
            e.walk(&mut |n| {
                if let Expr::Function { name, .. } = n {
                    if is_aggregate_name(name) && !agg_asts.iter().any(|a| a == n) {
                        agg_asts.push(n.clone());
                    }
                }
            });
        };
        for item in &query.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &query.having {
            collect(h);
        }
        for o in &query.order_by {
            collect(&o.expr);
        }

        let mut aggs = Vec::new();
        for ast in &agg_asts {
            let Expr::Function {
                name,
                args,
                distinct,
            } = ast
            else {
                unreachable!("collected only functions");
            };
            let func = AggFn::from_name(name)
                .ok_or_else(|| CrowdError::Analyze(format!("unknown aggregate '{name}'")))?;
            let arg = match args.as_slice() {
                [Expr::Wildcard] => {
                    if func != AggFn::Count {
                        return Err(CrowdError::Analyze(format!(
                            "{}(*) is not valid; only COUNT(*)",
                            func.name()
                        )));
                    }
                    None
                }
                [e] => Some(self.bind_expr(e, &in_schema)?),
                _ => {
                    return Err(CrowdError::Analyze(format!(
                        "aggregate {} takes exactly one argument",
                        func.name()
                    )))
                }
            };
            out_cols.push(PlanColumn::computed(
                ast.to_string().to_ascii_lowercase(),
                match func {
                    AggFn::Count => Some(DataType::Int),
                    AggFn::Avg => Some(DataType::Float),
                    _ => None,
                },
            ));
            aggs.push(AggCall {
                func,
                arg,
                distinct: *distinct,
            });
        }

        let schema = PlanSchema::new(out_cols);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by,
            aggs,
            schema,
        };
        let env = AggEnv {
            group_by_renderings: gb_asts,
            agg_renderings: agg_asts.iter().map(|a| a.to_string()).collect(),
        };
        Ok((plan, env))
    }

    /// Bind an expression that sits *above* an Aggregate node: group-by
    /// expressions and aggregate calls become column references into the
    /// aggregate output; anything else must be built from those.
    fn bind_agg_output_expr(
        &mut self,
        expr: &Expr,
        env: &AggEnv,
        agg_schema: &PlanSchema,
    ) -> Result<BExpr> {
        let rendering = expr.to_string();
        if let Some(i) = env.group_by_renderings.iter().position(|g| *g == rendering) {
            return Ok(BExpr::Column(i));
        }
        if let Some(j) = env.agg_renderings.iter().position(|a| *a == rendering) {
            return Ok(BExpr::Column(env.group_by_renderings.len() + j));
        }
        // Also accept a bare column name that matches a group-by column's
        // name (e.g. GROUP BY t.dept ... SELECT dept).
        if let Expr::Column(c) = expr {
            if c.table.is_none() {
                let name = c.column.to_ascii_lowercase();
                let hits: Vec<usize> = agg_schema
                    .columns
                    .iter()
                    .enumerate()
                    .take(env.group_by_renderings.len())
                    .filter(|(_, col)| col.name == name)
                    .map(|(i, _)| i)
                    .collect();
                if hits.len() == 1 {
                    return Ok(BExpr::Column(hits[0]));
                }
            }
            return Err(CrowdError::Analyze(format!(
                "column '{c}' must appear in GROUP BY or inside an aggregate"
            )));
        }
        // Recurse structurally.
        match expr {
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::Unary { op, expr } => Ok(BExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_agg_output_expr(expr, env, agg_schema)?),
            }),
            Expr::Binary { left, op, right } => {
                let l = self.bind_agg_output_expr(left, env, agg_schema)?;
                let r = self.bind_agg_output_expr(right, env, agg_schema)?;
                Ok(make_binary(l, *op, r))
            }
            Expr::Is {
                expr,
                negated,
                cnull,
            } => Ok(BExpr::Is {
                expr: Box::new(self.bind_agg_output_expr(expr, env, agg_schema)?),
                negated: *negated,
                cnull: *cnull,
            }),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = match operand {
                    Some(o) => Some(Box::new(self.bind_agg_output_expr(o, env, agg_schema)?)),
                    None => None,
                };
                let mut bs = Vec::new();
                for (w, t) in branches {
                    bs.push((
                        self.bind_agg_output_expr(w, env, agg_schema)?,
                        self.bind_agg_output_expr(t, env, agg_schema)?,
                    ));
                }
                let else_expr = match else_expr {
                    Some(e) => Some(Box::new(self.bind_agg_output_expr(e, env, agg_schema)?)),
                    None => None,
                };
                Ok(BExpr::Case {
                    operand,
                    branches: bs,
                    else_expr,
                })
            }
            Expr::Cast { expr, data_type } => Ok(BExpr::Cast {
                expr: Box::new(self.bind_agg_output_expr(expr, env, agg_schema)?),
                data_type: *data_type,
            }),
            Expr::Function { name, args, .. } if ScalarFn::from_name(name).is_some() => {
                let func = ScalarFn::from_name(name).expect("checked");
                let mut bs = Vec::new();
                for a in args {
                    bs.push(self.bind_agg_output_expr(a, env, agg_schema)?);
                }
                Ok(BExpr::Scalar { func, args: bs })
            }
            other => Err(CrowdError::Analyze(format!(
                "expression '{other}' is not derivable from GROUP BY keys and aggregates"
            ))),
        }
    }

    fn bind_order_key(
        &mut self,
        expr: &Expr,
        working_schema: &PlanSchema,
        projection: &[SelectItem],
        out_exprs: &[BExpr],
        agg_env: Option<&AggEnv>,
    ) -> Result<BExpr> {
        // ORDER BY <position>.
        if let Expr::Literal(Value::Int(k)) = expr {
            let idx = *k;
            if idx >= 1 && (idx as usize) <= out_exprs.len() {
                return Ok(out_exprs[idx as usize - 1].clone());
            }
            return Err(CrowdError::Analyze(format!(
                "ORDER BY position {idx} is out of range"
            )));
        }
        // ORDER BY <output alias>.
        if let Expr::Column(c) = expr {
            if c.table.is_none() {
                let name = c.column.to_ascii_lowercase();
                for (i, item) in projection.iter().enumerate() {
                    if let SelectItem::Expr { alias: Some(a), .. } = item {
                        if a.to_ascii_lowercase() == name {
                            return Ok(out_exprs[i].clone());
                        }
                    }
                }
            }
        }
        match agg_env {
            Some(env) => self.bind_agg_output_expr(expr, env, working_schema),
            None => self.bind_expr(expr, working_schema),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn mark_used(&mut self, col: &PlanColumn) {
        if let (Some(q), Some((_, ord))) = (&col.qualifier, &col.base) {
            self.used_columns.entry(q.clone()).or_default().insert(*ord);
        }
    }

    /// Bind one expression against `schema`.
    pub fn bind_expr(&mut self, expr: &Expr, schema: &PlanSchema) -> Result<BExpr> {
        match expr {
            Expr::Literal(v) => Ok(BExpr::Literal(v.clone())),
            Expr::Wildcard => Err(CrowdError::Analyze(
                "'*' is only valid in COUNT(*) or as a projection".into(),
            )),
            Expr::Column(c) => {
                let idx = schema
                    .resolve(c.table.as_deref(), &c.column)
                    .map_err(CrowdError::Analyze)?;
                self.mark_used(&schema.columns[idx]);
                Ok(BExpr::Column(idx))
            }
            Expr::Unary { op, expr } => Ok(BExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_expr(expr, schema)?),
            }),
            Expr::Binary { left, op, right } => {
                let l = self.bind_expr(left, schema)?;
                let r = self.bind_expr(right, schema)?;
                Ok(make_binary(l, *op, r))
            }
            Expr::Is {
                expr,
                negated,
                cnull,
            } => Ok(BExpr::Is {
                expr: Box::new(self.bind_expr(expr, schema)?),
                negated: *negated,
                cnull: *cnull,
            }),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(BExpr::Like {
                expr: Box::new(self.bind_expr(expr, schema)?),
                pattern: Box::new(self.bind_expr(pattern, schema)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BExpr::Between {
                expr: Box::new(self.bind_expr(expr, schema)?),
                low: Box::new(self.bind_expr(low, schema)?),
                high: Box::new(self.bind_expr(high, schema)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let mut bs = Vec::with_capacity(list.len());
                for e in list {
                    bs.push(self.bind_expr(e, schema)?);
                }
                Ok(BExpr::InList {
                    expr: Box::new(self.bind_expr(expr, schema)?),
                    list: bs,
                    negated: *negated,
                })
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let plan = Binder::new(self.catalog).bind_query(query)?;
                if plan.schema().arity() != 1 {
                    return Err(CrowdError::Analyze(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
                Ok(BExpr::InPlan {
                    expr: Box::new(self.bind_expr(expr, schema)?),
                    plan: Box::new(plan),
                    negated: *negated,
                })
            }
            Expr::Exists { query, negated } => {
                let plan = Binder::new(self.catalog).bind_query(query)?;
                Ok(BExpr::ExistsPlan {
                    plan: Box::new(plan),
                    negated: *negated,
                })
            }
            Expr::ScalarSubquery(query) => {
                let plan = Binder::new(self.catalog).bind_query(query)?;
                if plan.schema().arity() != 1 {
                    return Err(CrowdError::Analyze(
                        "scalar subquery must return exactly one column".into(),
                    ));
                }
                Ok(BExpr::ScalarPlan(Box::new(plan)))
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = match operand {
                    Some(o) => Some(Box::new(self.bind_expr(o, schema)?)),
                    None => None,
                };
                let mut bs = Vec::new();
                for (w, t) in branches {
                    bs.push((self.bind_expr(w, schema)?, self.bind_expr(t, schema)?));
                }
                let else_expr = match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e, schema)?)),
                    None => None,
                };
                Ok(BExpr::Case {
                    operand,
                    branches: bs,
                    else_expr,
                })
            }
            Expr::Cast { expr, data_type } => Ok(BExpr::Cast {
                expr: Box::new(self.bind_expr(expr, schema)?),
                data_type: *data_type,
            }),
            Expr::Function {
                name,
                args,
                distinct,
            } => self.bind_function(name, args, *distinct, schema),
        }
    }

    fn bind_function(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        schema: &PlanSchema,
    ) -> Result<BExpr> {
        if name == "crowdequal" {
            if args.len() != 2 {
                return Err(CrowdError::Analyze(
                    "CROWDEQUAL takes exactly two arguments".into(),
                ));
            }
            return Ok(BExpr::CrowdEqual {
                left: Box::new(self.bind_expr(&args[0], schema)?),
                right: Box::new(self.bind_expr(&args[1], schema)?),
            });
        }
        if name == "crowdorder" {
            let instruction = match args.get(1) {
                Some(Expr::Literal(Value::Str(s))) => s.clone(),
                None => "Which item do you prefer?".to_string(),
                Some(other) => {
                    return Err(CrowdError::Analyze(format!(
                        "CROWDORDER instruction must be a string literal, got '{other}'"
                    )))
                }
            };
            let Some(first) = args.first() else {
                return Err(CrowdError::Analyze(
                    "CROWDORDER requires an expression argument".into(),
                ));
            };
            return Ok(BExpr::CrowdOrder {
                expr: Box::new(self.bind_expr(first, schema)?),
                instruction,
            });
        }
        if is_aggregate_name(name) {
            return Err(CrowdError::Analyze(format!(
                "aggregate {} is not allowed here",
                name.to_ascii_uppercase()
            )));
        }
        let func = ScalarFn::from_name(name)
            .ok_or_else(|| CrowdError::Analyze(format!("unknown function '{name}'")))?;
        if distinct {
            return Err(CrowdError::Analyze(
                "DISTINCT is only valid in aggregates".into(),
            ));
        }
        let mut bs = Vec::with_capacity(args.len());
        for a in args {
            bs.push(self.bind_expr(a, schema)?);
        }
        // Arity checks.
        let ok = match func {
            ScalarFn::Lower
            | ScalarFn::Upper
            | ScalarFn::Length
            | ScalarFn::Abs
            | ScalarFn::Round
            | ScalarFn::Trim => bs.len() == 1,
            ScalarFn::Substr => bs.len() == 2 || bs.len() == 3,
            ScalarFn::Coalesce | ScalarFn::ConcatFn => !bs.is_empty(),
        };
        if !ok {
            return Err(CrowdError::Analyze(format!(
                "wrong number of arguments for {}",
                func.name()
            )));
        }
        Ok(BExpr::Scalar { func, args: bs })
    }
}

/// Environment for binding expressions above an Aggregate node.
struct AggEnv {
    group_by_renderings: Vec<String>,
    agg_renderings: Vec<String>,
}

fn make_binary(l: BExpr, op: BinaryOp, r: BExpr) -> BExpr {
    if op == BinaryOp::CrowdEq {
        BExpr::CrowdEqual {
            left: Box::new(l),
            right: Box::new(r),
        }
    } else {
        BExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }
}

fn contains_crowd_order(e: &BExpr) -> bool {
    e.any(&|n| matches!(n, BExpr::CrowdOrder { .. }))
}

/// Derive an output column descriptor for a bound projection expression.
fn derive_column(bound: &BExpr, input: &PlanSchema, name: String) -> PlanColumn {
    match bound {
        BExpr::Column(i) => {
            let mut c = input.columns[*i].clone();
            // Keep qualifier so `SELECT t.a, u.a` stays unambiguous, but
            // rename if an alias was given.
            if c.name != name {
                c.name = name;
                c.qualifier = None;
            }
            c
        }
        _ => PlanColumn::computed(name, None),
    }
}

/// The default output name of a projection expression.
fn default_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(c) => c.column.to_ascii_lowercase(),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        other => other.to_string().to_ascii_lowercase(),
    }
}

fn apply_needed_columns(plan: &mut LogicalPlan, used: &HashMap<String, BTreeSet<usize>>) {
    if let LogicalPlan::Scan {
        alias,
        needed_columns,
        ..
    } = plan
    {
        if let Some(set) = used.get(alias) {
            *needed_columns = set.iter().copied().collect();
        }
    }
    plan.inputs_mut(|input| apply_needed_columns(input, used));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_sql::parse_statement;
    use crowddb_sql::Statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for ddl in [
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
             nb_attendees CROWD INTEGER)",
            "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF Talk(title))",
            "CREATE TABLE Dept (dept STRING PRIMARY KEY, building INTEGER)",
        ] {
            let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
                panic!()
            };
            let schema = c.schema_from_ast(&ct).unwrap();
            c.register(schema).unwrap();
        }
        c
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let cat = catalog();
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!("not select")
        };
        Binder::new(&cat).bind_query(&q)
    }

    #[test]
    fn paper_query_binds() {
        let plan = bind("SELECT abstract FROM Talk WHERE title = 'CrowdDB'").unwrap();
        let text = plan.explain();
        assert!(text.contains("Scan talk"), "{text}");
        assert!(text.contains("Filter (#0 = 'CrowdDB')"), "{text}");
        assert!(text.contains("probe: abstract"), "{text}");
        assert_eq!(plan.schema().arity(), 1);
        assert_eq!(plan.schema().columns[0].name, "abstract");
    }

    #[test]
    fn needed_columns_tracked_per_scan() {
        let plan = bind("SELECT abstract FROM Talk WHERE title = 'x'").unwrap();
        let scans = plan.scans();
        let LogicalPlan::Scan { needed_columns, .. } = scans[0] else {
            panic!()
        };
        assert_eq!(needed_columns, &vec![0, 1]); // title + abstract, not nb_attendees
    }

    #[test]
    fn wildcard_expansion() {
        let plan = bind("SELECT * FROM Talk").unwrap();
        assert_eq!(plan.schema().arity(), 3);
        let plan = bind("SELECT t.* FROM Talk t, Dept d").unwrap();
        assert_eq!(plan.schema().arity(), 3);
    }

    #[test]
    fn unknown_names_error() {
        assert!(bind("SELECT x FROM Talk").is_err());
        assert!(bind("SELECT * FROM Ghost").is_err());
        assert!(bind("SELECT g.* FROM Talk t").is_err());
    }

    #[test]
    fn ambiguity_detected() {
        let err = bind("SELECT title FROM Talk, NotableAttendee").unwrap_err();
        assert!(err.message().contains("ambiguous"), "{err}");
        assert!(bind("SELECT Talk.title FROM Talk, NotableAttendee").is_ok());
    }

    #[test]
    fn self_join_with_aliases() {
        let plan =
            bind("SELECT a.title, b.title FROM Talk a, Talk b WHERE a.title = b.title").unwrap();
        assert_eq!(plan.schema().arity(), 2);
    }

    #[test]
    fn crowdequal_becomes_special_node() {
        let plan = bind("SELECT name FROM NotableAttendee WHERE name ~= 'Mike'").unwrap();
        let mut found = false;
        plan.walk(&mut |n| {
            if let LogicalPlan::Filter { predicate, .. } = n {
                if matches!(predicate, BExpr::CrowdEqual { .. }) {
                    found = true;
                }
            }
        });
        assert!(found);
        // Function form too.
        assert!(bind("SELECT name FROM NotableAttendee WHERE CROWDEQUAL(name, 'Mike')").is_ok());
    }

    #[test]
    fn crowdorder_only_in_order_by() {
        let plan = bind(
            "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') \
             LIMIT 10",
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("CrowdSort"), "{text}");
        assert!(text.contains("Limit 10"), "{text}");

        let err = bind("SELECT CROWDORDER(title, 'x') FROM Talk").unwrap_err();
        assert!(err.message().contains("ORDER BY"), "{err}");
        let err = bind("SELECT title FROM Talk WHERE CROWDORDER(title, 'x') = 1").unwrap_err();
        assert!(err.message().contains("ORDER BY"), "{err}");
    }

    #[test]
    fn group_by_pipeline() {
        let plan = bind(
            "SELECT title, COUNT(*) FROM NotableAttendee GROUP BY title \
             HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC",
        )
        .unwrap();
        let text = plan.explain();
        assert!(
            text.contains("Aggregate group=[#1] aggs=[COUNT(*)]"),
            "{text}"
        );
        assert!(text.contains("Filter (#1 > 2)"), "{text}");
        assert_eq!(plan.schema().arity(), 2);
    }

    #[test]
    fn bare_column_resolves_to_group_key() {
        // SELECT dept vs GROUP BY d.dept
        let plan = bind("SELECT dept, COUNT(*) FROM Dept d GROUP BY d.dept").unwrap();
        assert_eq!(plan.schema().columns[0].name, "dept");
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind("SELECT building, COUNT(*) FROM Dept GROUP BY dept").unwrap_err();
        assert!(
            err.message().contains("GROUP BY"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn aggregate_without_group_by() {
        let plan = bind("SELECT COUNT(*), MAX(nb_attendees) FROM Talk").unwrap();
        let text = plan.explain();
        assert!(text.contains("aggs=[COUNT(*), MAX(#2)]"), "{text}");
    }

    #[test]
    fn order_by_alias_and_position() {
        let plan = bind("SELECT nb_attendees AS n FROM Talk ORDER BY n DESC").unwrap();
        assert!(
            plan.explain().contains("Sort #2 DESC"),
            "{}",
            plan.explain()
        );
        let plan = bind("SELECT title, nb_attendees FROM Talk ORDER BY 2").unwrap();
        assert!(plan.explain().contains("Sort #2"), "{}", plan.explain());
        assert!(bind("SELECT title FROM Talk ORDER BY 5").is_err());
    }

    #[test]
    fn subqueries_bind() {
        let plan =
            bind("SELECT title FROM Talk WHERE title IN (SELECT title FROM NotableAttendee)")
                .unwrap();
        let mut in_plans = 0;
        plan.walk(&mut |n| {
            if let LogicalPlan::Filter { predicate, .. } = n {
                predicate.walk(&mut |e| {
                    if matches!(e, BExpr::InPlan { .. }) {
                        in_plans += 1;
                    }
                });
            }
        });
        assert_eq!(in_plans, 1);
        // Multi-column IN subquery rejected.
        assert!(bind("SELECT title FROM Talk WHERE title IN (SELECT * FROM Talk)").is_err());
    }

    #[test]
    fn derived_table() {
        let plan = bind("SELECT d.t FROM (SELECT title AS t FROM Talk) AS d").unwrap();
        assert_eq!(plan.schema().arity(), 1);
        assert_eq!(plan.schema().columns[0].name, "t");
    }

    #[test]
    fn select_without_from() {
        let plan = bind("SELECT 1 + 1").unwrap();
        assert!(matches!(plan, LogicalPlan::Project { .. }));
        assert!(bind("SELECT * ").is_err());
        assert!(bind("SELECT 1 WHERE 1 = 1").is_err());
    }

    #[test]
    fn explicit_join_binds_on() {
        let plan =
            bind("SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title")
                .unwrap();
        let text = plan.explain();
        assert!(text.contains("INNER Join ON (#0 = #4)"), "{text}");
    }

    #[test]
    fn scalar_functions_bind() {
        let plan = bind("SELECT LOWER(title), LENGTH(title) FROM Talk").unwrap();
        assert_eq!(plan.schema().arity(), 2);
        assert!(bind("SELECT LOWER(title, title) FROM Talk").is_err());
        assert!(bind("SELECT NOSUCHFN(title) FROM Talk").is_err());
    }

    #[test]
    fn distinct_and_limit_nodes() {
        let plan = bind("SELECT DISTINCT title FROM Talk LIMIT 5 OFFSET 2").unwrap();
        let text = plan.explain();
        assert!(text.contains("Distinct"), "{text}");
        assert!(text.contains("Limit 5 OFFSET 2"), "{text}");
    }

    #[test]
    fn count_star_only() {
        assert!(bind("SELECT SUM(*) FROM Talk").is_err());
        assert!(bind("SELECT COUNT(*) FROM Talk").is_ok());
    }
}
