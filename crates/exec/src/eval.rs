//! Expression evaluation — the single home for it.
//!
//! [`eval`] is the full evaluator (literals through subqueries and
//! `CROWDEQUAL`), threaded through an [`ExecCtx`] so crowd comparisons
//! hit the session caches and record needs. Every predicate form — the
//! comparisons, `BETWEEN`, `IN`, `IS [NOT] NULL/CNULL`, `LIKE`, `AND`/`OR`/
//! `NOT`, the subquery predicates and `CROWDEQUAL` — is written once, in
//! [`eval_truth`], which yields a [`Truth`] without building a value to
//! test; [`eval`] meets a predicate by converting that truth. The
//! value-level helpers (LIKE, scalar functions, casts) below are pure; the
//! binary operators (arithmetic, comparison, 3VL) live in
//! [`crowddb_plan::value_ops`], where the optimizer's constant folder
//! shares them, and are re-exported here. Every operator and the DML
//! paths call these same entry points; there are no per-caller copies.

use std::borrow::Cow;

use crowddb_common::{CrowdError, DataType, Result, Row, Truth, Value};
pub use crowddb_plan::value_ops::{
    compare_truth, eval_binary, eval_unary, truth_to_value, value_truth,
};
use crowddb_plan::{BExpr, ScalarFn};
use crowddb_sql::{BinaryOp, UnaryOp};

use crate::context::{Compare, ExecCtx};

/// Evaluate an expression to a value.
///
/// A predicate is [`eval_truth`]'s, as `TRUE`/`FALSE`/`NULL`; what is
/// left are the arithmetic and `||` operators (the binary `CrowdEq` too,
/// which binding turns into `CROWDEQUAL` and [`eval_binary`] rejects),
/// negation, `CASE`, casts, scalar functions and scalar subqueries, which
/// run through [`ExecCtx::run_subplan`].
pub fn eval(ctx: &mut ExecCtx<'_>, e: &BExpr, row: &Row) -> Result<Value> {
    match e {
        BExpr::Literal(_) | BExpr::Column(_) => operand(ctx, e, row).map(Cow::into_owned),
        BExpr::Binary {
            op:
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::And
                | BinaryOp::Or,
            ..
        }
        | BExpr::Unary {
            op: UnaryOp::Not, ..
        }
        | BExpr::Is { .. }
        | BExpr::Like { .. }
        | BExpr::Between { .. }
        | BExpr::InList { .. }
        | BExpr::InPlan { .. }
        | BExpr::ExistsPlan { .. }
        | BExpr::CrowdEqual { .. } => eval_truth(ctx, e, row).map(truth_to_value),
        BExpr::Unary { op, expr } => eval_unary(*op, eval(ctx, expr, row)?),
        BExpr::Binary { left, op, right } => {
            let l = operand(ctx, left, row)?;
            let r = operand(ctx, right, row)?;
            eval_binary(&l, *op, &r)
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
            operand: case_operand,
            branches,
            else_expr,
        } => {
            let op_val = match case_operand {
                Some(o) => Some(eval(ctx, o, row)?),
                None => None,
            };
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(v) => compare_truth(v, BinaryOp::Eq, &*operand(ctx, when, row)?),
                    None => eval_truth(ctx, when, row)?,
                };
                if hit == Truth::True {
                    return eval(ctx, then, row);
                }
            }
            match else_expr {
                Some(e) => eval(ctx, e, row),
                None => Ok(Value::Null),
            }
        }
        BExpr::Cast { expr, data_type } => {
            let v = eval(ctx, expr, row)?;
            eval_cast(&v, *data_type)
        }
        BExpr::Scalar { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(ctx, a, row)?);
            }
            eval_scalar_fn(*func, &vals)
        }
        BExpr::CrowdOrder { .. } => Err(CrowdError::Internal(
            "CROWDORDER evaluated outside a sort".into(),
        )),
    }
}

/// Evaluate a predicate to a truth value, the one evaluator of every
/// predicate form. Anything else is evaluated by [`eval`] and read as a
/// boolean ([`value_truth`]).
///
/// `AND`/`OR` short-circuit — crucial for crowd predicates: a FALSE
/// machine conjunct suppresses the crowd call. `CROWDEQUAL` asks
/// [`ExecCtx::crowd_compare`], which records a need on a miss; the
/// comparison is Unknown until the crowd answers.
pub fn eval_truth(ctx: &mut ExecCtx<'_>, e: &BExpr, row: &Row) -> Result<Truth> {
    let t = match e {
        BExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let l = eval_truth(ctx, left, row)?;
            if l == Truth::False {
                return Ok(Truth::False);
            }
            l.and(eval_truth(ctx, right, row)?)
        }
        BExpr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let l = eval_truth(ctx, left, row)?;
            if l == Truth::True {
                return Ok(Truth::True);
            }
            l.or(eval_truth(ctx, right, row)?)
        }
        BExpr::Binary {
            left,
            op:
                op @ (BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq),
            right,
        } => {
            let l = operand(ctx, left, row)?;
            let r = operand(ctx, right, row)?;
            compare_truth(&l, *op, &r)
        }
        BExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => eval_truth(ctx, expr, row)?.not(),
        BExpr::Is {
            expr,
            negated,
            cnull,
        } => {
            let v = operand(ctx, expr, row)?;
            let hit = if *cnull {
                v.is_cnull()
            } else {
                matches!(*v, Value::Null)
            };
            Truth::from_bool(hit != *negated)
        }
        BExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let p = operand(ctx, pattern, row)?;
            if v.is_missing() || p.is_missing() {
                return Ok(Truth::Unknown);
            }
            let (Some(s), Some(pat)) = (v.as_str(), p.as_str()) else {
                return Err(CrowdError::Type("LIKE expects strings".into()));
            };
            Truth::from_bool(like_match(s, pat) != *negated)
        }
        BExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let lo = operand(ctx, low, row)?;
            let hi = operand(ctx, high, row)?;
            let t =
                compare_truth(&v, BinaryOp::GtEq, &lo).and(compare_truth(&v, BinaryOp::LtEq, &hi));
            negate(t, *negated)
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let candidates = list.iter().map(|c| operand(ctx, c, row));
            negate(membership(&v, candidates)?, *negated)
        }
        BExpr::InPlan {
            expr,
            plan,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let rows = ctx.run_subplan(plan)?;
            let candidates = rows.iter().map(|r| Ok(Cow::Borrowed(&r[0])));
            negate(membership(&v, candidates)?, *negated)
        }
        BExpr::ExistsPlan { plan, negated } => {
            Truth::from_bool(ctx.run_subplan(plan)?.is_empty() == *negated)
        }
        BExpr::CrowdEqual { left, right } => {
            let l = operand(ctx, left, row)?;
            let r = operand(ctx, right, row)?;
            if l.is_missing() || r.is_missing() {
                return Ok(Truth::Unknown);
            }
            // Fast path: machine-equal values need no crowd.
            if compare_truth(&l, BinaryOp::Eq, &r) == Truth::True {
                return Ok(Truth::True);
            }
            let instruction = "Do these two values refer to the same entity?";
            let verdict =
                ctx.crowd_compare(Compare::Equal, &l.to_string(), &r.to_string(), instruction);
            verdict.map_or(Truth::Unknown, Truth::from_bool)
        }
        other => value_truth(&*operand(ctx, other, row)?)?,
    };
    Ok(t)
}

/// `t`, or `NOT t` for a `NOT BETWEEN` / `NOT IN`.
fn negate(t: Truth, negated: bool) -> Truth {
    if negated {
        t.not()
    } else {
        t
    }
}

/// `v IN (candidates)`: True at the first candidate equal to `v` (the
/// rest are not evaluated), else Unknown if `v` is missing or any
/// comparison was Unknown, else False.
fn membership<'c>(
    v: &Value,
    candidates: impl IntoIterator<Item = Result<Cow<'c, Value>>>,
) -> Result<Truth> {
    let mut t = match v.is_missing() {
        true => Truth::Unknown,
        false => Truth::False,
    };
    for c in candidates {
        match compare_truth(v, BinaryOp::Eq, &*c?) {
            Truth::True => return Ok(Truth::True),
            Truth::Unknown => t = Truth::Unknown,
            Truth::False => {}
        }
    }
    Ok(t)
}

/// [`eval`] of an expression the caller is done with: a literal is moved
/// out rather than copied, so a bound `VALUES` literal is copied once, by
/// the binder, on its way into a row.
pub(crate) fn eval_owned(ctx: &mut ExecCtx<'_>, e: BExpr, row: &Row) -> Result<Value> {
    match e {
        BExpr::Literal(v) => Ok(v),
        e => eval(ctx, &e, row),
    }
}

/// [`eval`] for a caller that only looks at the value: a column of
/// `row` or a literal is lent, not cloned, so comparing a string column
/// costs no copy of it.
pub(crate) fn operand<'a>(
    ctx: &mut ExecCtx<'_>,
    e: &'a BExpr,
    row: &'a Row,
) -> Result<Cow<'a, Value>> {
    match e {
        BExpr::Literal(v) => Ok(Cow::Borrowed(v)),
        BExpr::Column(i) => row
            .get(*i)
            .map(Cow::Borrowed)
            .ok_or_else(|| CrowdError::Internal(format!("column #{i} out of range"))),
        other => eval(ctx, other, row).map(Cow::Owned),
    }
}

/// SQL `LIKE` with `%` (any run) and `_` (any one char); case-sensitive.
///
/// The two-pointer wildcard match: walk both strings, and on a mismatch
/// go back to just after the last `%` with that `%` swallowing one more
/// char of the text. Only the last `%` matters — whatever an earlier one
/// could swallow, the later one can too — so this is O(|text|·|pattern|)
/// and allocates nothing. Positions are byte offsets at char boundaries.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let next = |s: &str, at: usize| s[at..].chars().next();
    let (mut t, mut p) = (0, 0);
    // The pattern position after the last `%`, and the text position it
    // has swallowed up to.
    let mut star: Option<(usize, usize)> = None;
    loop {
        match (next(pattern, p), next(text, t)) {
            (None, None) => return true,
            (Some('%'), _) => {
                p += 1;
                star = Some((p, t));
                continue;
            }
            (Some(pc), Some(tc)) if pc == '_' || pc == tc => {
                p += pc.len_utf8();
                t += tc.len_utf8();
                continue;
            }
            _ => {}
        }
        let Some((after, swallowed)) = star else {
            return false;
        };
        let Some(c) = next(text, swallowed) else {
            return false;
        };
        star = Some((after, swallowed + c.len_utf8()));
        (p, t) = (after, swallowed + c.len_utf8());
    }
}

/// Evaluate a scalar function over concrete arguments.
pub fn eval_scalar_fn(func: ScalarFn, args: &[Value]) -> Result<Value> {
    match func {
        ScalarFn::Coalesce => {
            for a in args {
                if !a.is_missing() {
                    return Ok(a.clone());
                }
            }
            Ok(Value::Null)
        }
        ScalarFn::ConcatFn => {
            let mut s = String::new();
            for a in args {
                if a.is_missing() {
                    return Ok(Value::Null);
                }
                s.push_str(&a.to_string());
            }
            Ok(Value::Str(s))
        }
        _ => {
            // Unary-ish functions: missing in → missing out.
            if args.iter().any(Value::is_missing) {
                return Ok(Value::Null);
            }
            match func {
                ScalarFn::Lower => str_arg(func, &args[0]).map(|s| Value::Str(s.to_lowercase())),
                ScalarFn::Upper => str_arg(func, &args[0]).map(|s| Value::Str(s.to_uppercase())),
                ScalarFn::Trim => str_arg(func, &args[0]).map(|s| Value::Str(s.trim().to_string())),
                ScalarFn::Length => {
                    str_arg(func, &args[0]).map(|s| Value::Int(s.chars().count() as i64))
                }
                ScalarFn::Abs => match &args[0] {
                    Value::Int(i) => {
                        Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                            CrowdError::Exec("integer overflow in ABS".into())
                        })?))
                    }
                    Value::Float(f) => Ok(Value::Float(f.abs())),
                    other => Err(CrowdError::Type(format!(
                        "ABS expects a number, got {}",
                        other.sql_literal()
                    ))),
                },
                ScalarFn::Round => match &args[0] {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Float(f) => Ok(Value::Float(f.round())),
                    other => Err(CrowdError::Type(format!(
                        "ROUND expects a number, got {}",
                        other.sql_literal()
                    ))),
                },
                ScalarFn::Substr => {
                    let s = str_arg(func, &args[0])?;
                    let start = args[1].as_i64().ok_or_else(|| {
                        CrowdError::Type("SUBSTR start must be an integer".into())
                    })?;
                    let chars: Vec<char> = s.chars().collect();
                    // SQL is 1-based; clamp out-of-range gracefully.
                    let begin = (start.max(1) as usize - 1).min(chars.len());
                    let len = match args.get(2) {
                        Some(v) => v.as_i64().ok_or_else(|| {
                            CrowdError::Type("SUBSTR length must be an integer".into())
                        })?,
                        None => chars.len() as i64,
                    };
                    let end = (begin as i64 + len.max(0)).min(chars.len() as i64) as usize;
                    Ok(Value::Str(chars[begin..end].iter().collect()))
                }
                ScalarFn::Coalesce | ScalarFn::ConcatFn => Err(CrowdError::Internal(
                    "variadic scalar function fell through its dispatch".into(),
                )),
            }
        }
    }
}

fn str_arg(func: ScalarFn, v: &Value) -> Result<&str> {
    v.as_str().ok_or_else(|| {
        CrowdError::Type(format!(
            "{} expects a string, got {}",
            func.name(),
            v.sql_literal()
        ))
    })
}

/// Apply an explicit `CAST`.
pub fn eval_cast(v: &Value, ty: DataType) -> Result<Value> {
    if v.is_missing() {
        return Ok(v.clone());
    }
    let out = match (v, ty) {
        (Value::Int(_), DataType::Int)
        | (Value::Float(_), DataType::Float)
        | (Value::Bool(_), DataType::Bool)
        | (Value::Str(_), DataType::Str) => Some(v.clone()),
        (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
        (Value::Float(f), DataType::Int) => Some(Value::Int(*f as i64)),
        (Value::Int(i), DataType::Str) => Some(Value::Str(i.to_string())),
        (Value::Float(f), DataType::Str) => Some(Value::Str(f.to_string())),
        (Value::Bool(b), DataType::Str) => Some(Value::Str(b.to_string())),
        (Value::Str(s), _) => Value::parse_answer(s, ty),
        (Value::Bool(b), DataType::Int) => Some(Value::Int(*b as i64)),
        _ => None,
    };
    out.ok_or_else(|| {
        CrowdError::Exec(format!(
            "cannot cast {} to {}",
            v.sql_literal(),
            ty.sql_name()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `assert_eq!` that also compares the variants: `Value`'s `==` holds
    /// `3 == 3.0`, so on its own it cannot pin a result's type.
    #[track_caller]
    fn assert_typed(got: Value, want: Value) {
        assert_eq!((got.data_type(), &got), (want.data_type(), &want));
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_typed(
            eval_binary(&Value::Int(7), BinaryOp::Add, &Value::Int(5)).unwrap(),
            Value::Int(12),
        );
        assert_typed(
            eval_binary(&Value::Int(7), BinaryOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(3),
        );
        assert_typed(
            eval_binary(&Value::Float(1.5), BinaryOp::Mul, &Value::Int(2)).unwrap(),
            Value::Float(3.0),
        );
        assert!(eval_binary(&Value::Int(1), BinaryOp::Div, &Value::Int(0)).is_err());
        assert!(eval_binary(&Value::Int(i64::MAX), BinaryOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn arithmetic_with_missing_yields_null() {
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_binary(&Value::Int(1), BinaryOp::Mul, &Value::CNull).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn comparisons_three_valued() {
        assert_eq!(
            eval_binary(&Value::Int(1), BinaryOp::Lt, &Value::Int(2)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binary(&Value::Null, BinaryOp::Eq, &Value::Null).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_binary(&Value::str("a"), BinaryOp::GtEq, &Value::str("a")).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn and_or_kleene() {
        assert_eq!(
            eval_binary(&Value::Bool(false), BinaryOp::And, &Value::Null).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_binary(&Value::Bool(true), BinaryOp::Or, &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binary(&Value::Bool(true), BinaryOp::And, &Value::Null).unwrap(),
            Value::Null
        );
        assert!(eval_binary(&Value::Int(1), BinaryOp::And, &Value::Bool(true)).is_err());
    }

    #[test]
    fn concat_operator() {
        assert_eq!(
            eval_binary(&Value::str("a"), BinaryOp::Concat, &Value::Int(1)).unwrap(),
            Value::str("a1")
        );
        assert_eq!(
            eval_binary(&Value::str("a"), BinaryOp::Concat, &Value::Null).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("CrowdDB", "Crowd%"));
        assert!(like_match("CrowdDB", "%DB"));
        assert!(like_match("CrowdDB", "C%B"));
        assert!(like_match("CrowdDB", "Cr_wdDB"));
        assert!(!like_match("CrowdDB", "crowd%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // literal middle matched by %
        assert!(like_match("anything", "%%"));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(
            eval_scalar_fn(ScalarFn::Lower, &[Value::str("AbC")]).unwrap(),
            Value::str("abc")
        );
        assert_typed(
            eval_scalar_fn(ScalarFn::Length, &[Value::str("héllo")]).unwrap(),
            Value::Int(5),
        );
        assert_typed(
            eval_scalar_fn(ScalarFn::Abs, &[Value::Int(-4)]).unwrap(),
            Value::Int(4),
        );
        assert_typed(
            eval_scalar_fn(ScalarFn::Round, &[Value::Float(2.6)]).unwrap(),
            Value::Float(3.0),
        );
        assert_eq!(
            eval_scalar_fn(ScalarFn::Trim, &[Value::str("  x ")]).unwrap(),
            Value::str("x")
        );
        assert_typed(
            eval_scalar_fn(
                ScalarFn::Coalesce,
                &[Value::Null, Value::CNull, Value::Int(3)],
            )
            .unwrap(),
            Value::Int(3),
        );
        assert_eq!(
            eval_scalar_fn(ScalarFn::Coalesce, &[Value::Null]).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_scalar_fn(
                ScalarFn::Substr,
                &[Value::str("CrowdDB"), Value::Int(6), Value::Int(2)]
            )
            .unwrap(),
            Value::str("DB")
        );
        assert_eq!(
            eval_scalar_fn(ScalarFn::Substr, &[Value::str("abc"), Value::Int(99)]).unwrap(),
            Value::str("")
        );
        assert_eq!(
            eval_scalar_fn(ScalarFn::Lower, &[Value::Null]).unwrap(),
            Value::Null
        );
        assert!(eval_scalar_fn(ScalarFn::Lower, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn casts() {
        assert_typed(
            eval_cast(&Value::str("42"), DataType::Int).unwrap(),
            Value::Int(42),
        );
        assert_typed(
            eval_cast(&Value::Float(2.9), DataType::Int).unwrap(),
            Value::Int(2),
        );
        assert_eq!(
            eval_cast(&Value::Int(1), DataType::Str).unwrap(),
            Value::str("1")
        );
        assert_typed(
            eval_cast(&Value::Bool(true), DataType::Int).unwrap(),
            Value::Int(1),
        );
        assert_eq!(
            eval_cast(&Value::CNull, DataType::Int).unwrap(),
            Value::CNull
        );
        assert!(eval_cast(&Value::str("xyz"), DataType::Int).is_err());
    }
}
