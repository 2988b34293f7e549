//! `eval_truth` is the one evaluator of every predicate form, and `eval`
//! meets a predicate through it. Its oracle is the evaluator it replaced,
//! kept below as `reference`: that one computed every predicate as a
//! `Value` — `Value::Bool` or `NULL` — and a filter read the value back
//! as a truth. Over generated expressions and rows the two must agree on
//! the truth, on the value, on the error (message included) and on the
//! crowd needs recorded along the way.

use crowddb_common::rng::Rng;
use crowddb_common::{CrowdError, Result, Row, Truth, Value};
use crowddb_exec::eval::{
    compare_truth, eval, eval_binary, eval_cast, eval_scalar_fn, eval_truth, eval_unary,
    like_match, truth_to_value, value_truth,
};
use crowddb_exec::{CompareCaches, ExecCtx};
use crowddb_plan::{BExpr, Binder, LogicalPlan, ScalarFn};
use crowddb_sql::{parse_statement, BinaryOp, Statement, UnaryOp};
use crowddb_storage::Database;

const INSTRUCTION: &str = "Do these two values refer to the same entity?";

/// The evaluator `eval_truth` replaced, as it was: every form computes
/// a value, a predicate included.
fn reference(ctx: &mut ExecCtx<'_>, e: &BExpr, row: &Row) -> Result<Value> {
    match e {
        BExpr::Literal(v) => Ok(v.clone()),
        BExpr::Column(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| CrowdError::Internal(format!("column #{i} out of range"))),
        BExpr::Unary { op, expr } => eval_unary(*op, reference(ctx, expr, row)?),
        BExpr::Binary { left, op, right } => {
            match op {
                BinaryOp::And => {
                    let l = value_truth(&reference(ctx, left, row)?)?;
                    if l == Truth::False {
                        return Ok(Value::Bool(false));
                    }
                    let r = value_truth(&reference(ctx, right, row)?)?;
                    return Ok(truth_to_value(l.and(r)));
                }
                BinaryOp::Or => {
                    let l = value_truth(&reference(ctx, left, row)?)?;
                    if l == Truth::True {
                        return Ok(Value::Bool(true));
                    }
                    let r = value_truth(&reference(ctx, right, row)?)?;
                    return Ok(truth_to_value(l.or(r)));
                }
                _ => {}
            }
            let l = reference(ctx, left, row)?;
            let r = reference(ctx, right, row)?;
            eval_binary(&l, *op, &r)
        }
        BExpr::Is {
            expr,
            negated,
            cnull,
        } => {
            let v = reference(ctx, expr, row)?;
            let hit = if *cnull {
                v.is_cnull()
            } else {
                matches!(v, Value::Null)
            };
            Ok(Value::Bool(hit != *negated))
        }
        BExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = reference(ctx, expr, row)?;
            let p = reference(ctx, pattern, row)?;
            if v.is_missing() || p.is_missing() {
                return Ok(Value::Null);
            }
            let (Some(s), Some(pat)) = (v.as_str(), p.as_str()) else {
                return Err(CrowdError::Type("LIKE expects strings".into()));
            };
            Ok(Value::Bool(like_match(s, pat) != *negated))
        }
        BExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = reference(ctx, expr, row)?;
            let lo = reference(ctx, low, row)?;
            let hi = reference(ctx, high, row)?;
            let t =
                compare_truth(&v, BinaryOp::GtEq, &lo).and(compare_truth(&v, BinaryOp::LtEq, &hi));
            Ok(truth_to_value(if *negated { t.not() } else { t }))
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = reference(ctx, expr, row)?;
            let mut any_unknown = v.is_missing();
            let mut found = false;
            for cand in list {
                let c = reference(ctx, cand, row)?;
                match compare_truth(&v, BinaryOp::Eq, &c) {
                    Truth::True => {
                        found = true;
                        break;
                    }
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
            Ok(truth_to_value(in_truth(found, any_unknown, *negated)))
        }
        BExpr::InPlan {
            expr,
            plan,
            negated,
        } => {
            let v = reference(ctx, expr, row)?;
            let rows = ctx.run_subplan(plan)?;
            let mut any_unknown = v.is_missing();
            let mut found = false;
            for r in &rows {
                match compare_truth(&v, BinaryOp::Eq, &r[0]) {
                    Truth::True => {
                        found = true;
                        break;
                    }
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
            Ok(truth_to_value(in_truth(found, any_unknown, *negated)))
        }
        BExpr::ExistsPlan { plan, negated } => {
            let rows = ctx.run_subplan(plan)?;
            Ok(Value::Bool(rows.is_empty() == *negated))
        }
        BExpr::ScalarPlan(plan) => {
            let rows = ctx.run_subplan(plan)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rows[0][0].clone()),
                n => Err(CrowdError::Exec(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
        BExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let op_val = match operand {
                Some(o) => Some(reference(ctx, o, row)?),
                None => None,
            };
            for (when, then) in branches {
                let w = reference(ctx, when, row)?;
                let hit = match &op_val {
                    Some(v) => compare_truth(v, BinaryOp::Eq, &w) == Truth::True,
                    None => value_truth(&w)? == Truth::True,
                };
                if hit {
                    return reference(ctx, then, row);
                }
            }
            match else_expr {
                Some(e) => reference(ctx, e, row),
                None => Ok(Value::Null),
            }
        }
        BExpr::Cast { expr, data_type } => eval_cast(&reference(ctx, expr, row)?, *data_type),
        BExpr::Scalar { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(reference(ctx, a, row)?);
            }
            eval_scalar_fn(*func, &vals)
        }
        BExpr::CrowdEqual { left, right } => {
            let l = reference(ctx, left, row)?;
            let r = reference(ctx, right, row)?;
            if l.is_missing() || r.is_missing() {
                return Ok(Value::Null);
            }
            if compare_truth(&l, BinaryOp::Eq, &r) == Truth::True {
                return Ok(Value::Bool(true));
            }
            let verdict = ctx.crowd_compare(
                crowddb_exec::context::Compare::Equal,
                &l.to_string(),
                &r.to_string(),
                INSTRUCTION,
            );
            Ok(verdict.map_or(Value::Null, Value::Bool))
        }
        BExpr::CrowdOrder { .. } => Err(CrowdError::Internal(
            "CROWDORDER evaluated outside a sort".into(),
        )),
    }
}

fn in_truth(found: bool, any_unknown: bool, negated: bool) -> Truth {
    let t = if found {
        Truth::True
    } else if any_unknown {
        Truth::Unknown
    } else {
        Truth::False
    };
    if negated {
        t.not()
    } else {
        t
    }
}

/// What the rows hold: both missing markers, integers on either side of
/// 2^53 (where an `f64` stops telling them apart), floats with both
/// zeros, and strings a `LIKE` pattern can match or not.
fn values() -> Vec<Value> {
    let two53 = 1i64 << 53;
    vec![
        Value::Null,
        Value::CNull,
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(2),
        Value::Int(two53),
        Value::Int(two53 + 1),
        Value::Int(i64::MAX),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Float(2.0),
        Value::Float(two53 as f64),
        Value::Float(-2.5),
        Value::str(""),
        Value::str("a"),
        Value::str("ab"),
        Value::str("a%"),
        Value::str("b_c"),
        Value::str("abc"),
        Value::str("2"),
    ]
}

const ARITY: usize = 4;

/// A database for the subquery forms: an INTEGER column with a CROWD
/// `CNULL` (so running the subquery records a probe need), a FLOAT and a
/// STRING column.
fn world() -> (Database, Vec<LogicalPlan>) {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE nums (k INTEGER PRIMARY KEY, v CROWD INTEGER, f FLOAT)",
        "CREATE TABLE words (k INTEGER PRIMARY KEY, w STRING)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!("{ddl}")
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    let two53 = 1i64 << 53;
    for (k, v, f) in [
        (1, Value::Int(1), Value::Float(-0.0)),
        (2, Value::CNull, Value::Float(1.5)),
        (3, Value::Int(two53 + 1), Value::Null),
        (4, Value::Null, Value::Float(two53 as f64)),
    ] {
        db.insert("nums", Row::new(vec![Value::Int(k), v, f]))
            .unwrap();
    }
    for (k, w) in [
        (1, Value::str("a")),
        (2, Value::Null),
        (3, Value::str("abc")),
    ] {
        db.insert("words", Row::new(vec![Value::Int(k), w]))
            .unwrap();
    }
    let plans = [
        "SELECT v FROM nums",
        "SELECT f FROM nums",
        "SELECT w FROM words",
        "SELECT v FROM nums WHERE k > 100",
        "SELECT f FROM nums WHERE k = 1",
    ]
    .iter()
    .map(|sql| {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!("{sql}")
        };
        db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap()
    })
    .collect();
    (db, plans)
}

/// Draws expressions over a row of [`ARITY`] columns.
struct Gen<'a> {
    rng: Rng,
    values: Vec<Value>,
    plans: &'a [LogicalPlan],
}

impl Gen<'_> {
    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.rng.gen_range(0..items.len())].clone()
    }

    fn row(&mut self) -> Row {
        let values = self.values.clone();
        Row::new((0..ARITY).map(|_| self.pick(&values)).collect())
    }

    fn literal(&mut self) -> BExpr {
        let values = self.values.clone();
        BExpr::Literal(self.pick(&values))
    }

    /// A value-producing operand: mostly a column or a literal, sometimes
    /// arithmetic, a negation, a scalar function or a `CASE` over a
    /// predicate.
    fn operand(&mut self, depth: u32) -> BExpr {
        let roll = if depth == 0 {
            self.rng.gen_range(0..2)
        } else {
            self.rng.gen_range(0..9)
        };
        match roll {
            0 => BExpr::Column(self.rng.gen_range(0..ARITY)),
            1 => self.literal(),
            2 | 3 => {
                use BinaryOp::*;
                let op = self.pick(&[Add, Sub, Mul, Div, Mod, Concat]);
                BExpr::Binary {
                    left: Box::new(self.operand(depth - 1)),
                    op,
                    right: Box::new(self.operand(depth - 1)),
                }
            }
            4 => BExpr::Unary {
                op: self.pick(&[UnaryOp::Neg, UnaryOp::Pos]),
                expr: Box::new(self.operand(depth - 1)),
            },
            5 => BExpr::Scalar {
                func: self.pick(&[ScalarFn::Abs, ScalarFn::Lower, ScalarFn::Coalesce]),
                args: vec![self.operand(depth - 1)],
            },
            6 => BExpr::Case {
                operand: None,
                branches: vec![(self.predicate(depth - 1), self.operand(depth - 1))],
                else_expr: Some(Box::new(self.operand(depth - 1))),
            },
            7 => {
                // The subqueries of at most one row.
                let plans = self.plans;
                BExpr::ScalarPlan(Box::new(self.pick(&plans[3..])))
            }
            _ => BExpr::Column(self.rng.gen_range(0..ARITY)),
        }
    }

    /// A predicate of any form — or, now and then, something that is not
    /// one (a column, a literal, arithmetic, the binary `CrowdEq`), which
    /// a filter still reads as a truth.
    fn predicate(&mut self, depth: u32) -> BExpr {
        use BinaryOp::*;
        let d = depth.saturating_sub(1);
        let negated = self.rng.gen_bool(0.5);
        let roll = if depth == 0 {
            self.rng.gen_range(0..8)
        } else {
            self.rng.gen_range(0..15)
        };
        match roll {
            0..=2 => BExpr::Binary {
                left: Box::new(self.operand(d)),
                op: self.pick(&[Eq, NotEq, Lt, LtEq, Gt, GtEq]),
                right: Box::new(self.operand(d)),
            },
            3 => BExpr::Between {
                expr: Box::new(self.operand(d)),
                low: Box::new(self.operand(d)),
                high: Box::new(self.operand(d)),
                negated,
            },
            4 => {
                let n = self.rng.gen_range(0..4);
                BExpr::InList {
                    expr: Box::new(self.operand(d)),
                    list: (0..n).map(|_| self.operand(d)).collect(),
                    negated,
                }
            }
            5 => BExpr::Is {
                expr: Box::new(self.operand(d)),
                negated,
                cnull: self.rng.gen_bool(0.5),
            },
            6 => {
                let pattern = match self.rng.gen_range(0..3) {
                    0 => self.operand(d),
                    _ => BExpr::Literal(self.pick(&[
                        Value::str("a%"),
                        Value::str("%b%"),
                        Value::str("_"),
                        Value::str("a_c"),
                        Value::str("%"),
                        Value::Null,
                    ])),
                };
                BExpr::Like {
                    expr: Box::new(self.operand(d)),
                    pattern: Box::new(pattern),
                    negated,
                }
            }
            7 => match self.rng.gen_range(0..4) {
                0 => BExpr::Literal(Value::Bool(self.rng.gen_bool(0.5))),
                1 => BExpr::Column(self.rng.gen_range(0..ARITY)),
                2 => self.operand(d),
                _ => BExpr::Binary {
                    left: Box::new(self.operand(d)),
                    op: CrowdEq,
                    right: Box::new(self.operand(d)),
                },
            },
            8 | 9 => BExpr::Binary {
                left: Box::new(self.predicate(d)),
                op: self.pick(&[And, Or]),
                right: Box::new(self.predicate(d)),
            },
            10 => BExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.predicate(d)),
            },
            11 => BExpr::InPlan {
                expr: Box::new(self.operand(d)),
                plan: Box::new(self.pick(self.plans)),
                negated,
            },
            12 => BExpr::ExistsPlan {
                plan: Box::new(self.pick(self.plans)),
                negated,
            },
            _ => BExpr::CrowdEqual {
                left: Box::new(self.operand(d)),
                right: Box::new(self.operand(d)),
            },
        }
    }
}

/// Some verdicts known, the rest asked: `CROWDEQUAL` is True, False and
/// Unknown (with a need) across the generated pairs.
fn caches() -> CompareCaches {
    let mut caches = CompareCaches::default();
    caches.put_equal("a", "ab", INSTRUCTION, true);
    caches.put_equal("abc", "a%", INSTRUCTION, false);
    caches.put_equal("1", "2", INSTRUCTION, false);
    caches.put_equal("b_c", "abc", INSTRUCTION, true);
    caches
}

type Outcome<T> = (std::result::Result<T, String>, Vec<String>);

/// Evaluate with a fresh context: the result (an error by its message)
/// and the needs recorded.
fn run<T>(
    db: &Database,
    caches: &CompareCaches,
    f: impl FnOnce(&mut ExecCtx<'_>) -> Result<T>,
) -> Outcome<T> {
    let mut ctx = ExecCtx::new(db, caches);
    let out = f(&mut ctx).map_err(|e| e.to_string());
    let needs = ctx.finish().0.iter().map(|n| n.dedup_key()).collect();
    (out, needs)
}

/// `Value`'s `==` holds `3 == 3.0` and `0.0 == -0.0`: compare the debug
/// text, which tells the variants and the zeros apart.
fn exact(v: &Outcome<Value>) -> Outcome<String> {
    (
        v.0.as_ref().map(|v| format!("{v:?}")).map_err(Clone::clone),
        v.1.clone(),
    )
}

#[test]
fn eval_truth_agrees_with_the_value_evaluator_it_replaced() {
    let (db, plans) = world();
    let caches = caches();
    let mut gen = Gen {
        rng: Rng::seed_from_u64(0x7407_4040),
        values: values(),
        plans: &plans,
    };
    let (mut by_truth, mut errors, mut needs) = ([0usize; 3], 0usize, 0usize);
    for _ in 0..4_000 {
        let e = gen.predicate(3);
        for _ in 0..6 {
            let row = gen.row();
            let old = run(&db, &caches, |ctx| reference(ctx, &e, &row));
            let old_truth: Outcome<Truth> = (
                old.0
                    .clone()
                    .and_then(|v| value_truth(&v).map_err(|e| e.to_string())),
                old.1.clone(),
            );
            let new_truth = run(&db, &caches, |ctx| eval_truth(ctx, &e, &row));
            assert_eq!(new_truth, old_truth, "eval_truth of {e} over {row:?}");
            let new_value = run(&db, &caches, |ctx| eval(ctx, &e, &row));
            assert_eq!(exact(&new_value), exact(&old), "eval of {e} over {row:?}");
            match &new_truth.0 {
                Ok(Truth::True) => by_truth[0] += 1,
                Ok(Truth::False) => by_truth[1] += 1,
                Ok(Truth::Unknown) => by_truth[2] += 1,
                Err(_) => errors += 1,
            }
            needs += usize::from(!new_truth.1.is_empty());
        }
    }
    // The generator reaches every outcome, often.
    assert!(by_truth.iter().all(|&n| n > 1_000), "{by_truth:?}");
    assert!(errors > 1_000, "{errors} errors");
    assert!(needs > 300, "{needs} evaluations recorded a need");
}

/// Every predicate form, spelled out once, over every value the rows
/// hold in its first operand — so no form is left to the generator's luck.
#[test]
fn every_predicate_form_agrees_on_every_value() {
    use BinaryOp::*;
    let (db, plans) = world();
    let caches = caches();
    let col = |i: usize| Box::new(BExpr::Column(i));
    let lit = |v: Value| Box::new(BExpr::Literal(v));
    let mut forms: Vec<BExpr> = [Eq, NotEq, Lt, LtEq, Gt, GtEq]
        .into_iter()
        .map(|op| BExpr::Binary {
            left: col(0),
            op,
            right: col(1),
        })
        .collect();
    for negated in [false, true] {
        forms.push(BExpr::Between {
            expr: col(0),
            low: col(1),
            high: lit(Value::Int(2)),
            negated,
        });
        forms.push(BExpr::InList {
            expr: col(0),
            list: vec![*col(1), *lit(Value::Float(-0.0)), *lit(Value::Int(1 << 53))],
            negated,
        });
        forms.push(BExpr::Like {
            expr: col(0),
            pattern: lit(Value::str("a%")),
            negated,
        });
        for cnull in [false, true] {
            forms.push(BExpr::Is {
                expr: col(0),
                negated,
                cnull,
            });
        }
        for plan in &plans {
            forms.push(BExpr::InPlan {
                expr: col(0),
                plan: Box::new(plan.clone()),
                negated,
            });
            forms.push(BExpr::ExistsPlan {
                plan: Box::new(plan.clone()),
                negated,
            });
        }
    }
    for op in [And, Or] {
        forms.push(BExpr::Binary {
            left: col(0),
            op,
            right: col(1),
        });
    }
    forms.push(BExpr::Unary {
        op: UnaryOp::Not,
        expr: col(0),
    });
    forms.push(BExpr::CrowdEqual {
        left: col(0),
        right: col(1),
    });
    let all = values()
        .into_iter()
        .chain([Value::Bool(true), Value::Bool(false)]);
    let all: Vec<Value> = all.collect();
    for e in &forms {
        for a in &all {
            for b in &all {
                let row = Row::new(vec![a.clone(), b.clone()]);
                let old = run(&db, &caches, |ctx| reference(ctx, e, &row));
                let old_truth = (
                    old.0
                        .clone()
                        .and_then(|v| value_truth(&v).map_err(|e| e.to_string())),
                    old.1.clone(),
                );
                let new_truth = run(&db, &caches, |ctx| eval_truth(ctx, e, &row));
                assert_eq!(new_truth, old_truth, "eval_truth of {e} over {row:?}");
                let new_value = run(&db, &caches, |ctx| eval(ctx, e, &row));
                assert_eq!(exact(&new_value), exact(&old), "eval of {e} over {row:?}");
            }
        }
    }
}
