//! Expression evaluation — the single home for it.
//!
//! [`eval`] is the full evaluator (literals through subqueries and
//! `CROWDEQUAL`), threaded through an [`ExecCtx`] so crowd comparisons
//! hit the session caches and record needs. The value-level helpers
//! (LIKE, scalar functions, casts) below it are pure; the binary
//! operators (arithmetic, comparison, 3VL) live in
//! [`crowddb_plan::value_ops`], where the optimizer's constant folder
//! shares them, and are re-exported here. Every operator and the DML
//! paths call these same entry points; there are no per-caller copies.

use std::borrow::Cow;

use crowddb_common::{CrowdError, DataType, Result, Row, Truth, Value};
pub use crowddb_plan::value_ops::{
    compare_truth, eval_binary, eval_unary, truth_to_value, value_truth,
};
use crowddb_plan::{BExpr, ScalarFn};
use crowddb_sql::BinaryOp;

use crate::context::{Compare, ExecCtx};

/// Evaluate an expression to a value.
///
/// Handles the crowd cases inline: `CROWDEQUAL` asks
/// [`ExecCtx::crowd_compare`] (which records a need on a miss, and the
/// value is `NULL` until the crowd answers), and subquery forms run
/// through [`ExecCtx::run_subplan`].
pub fn eval(ctx: &mut ExecCtx<'_>, e: &BExpr, row: &Row) -> Result<Value> {
    match e {
        BExpr::Literal(_) | BExpr::Column(_) => operand(ctx, e, row).map(Cow::into_owned),
        BExpr::Unary { op, expr } => eval_unary(*op, eval(ctx, expr, row)?),
        BExpr::Binary { left, op, right } => {
            // Short-circuit AND/OR — crucial for crowd predicates: a
            // FALSE machine conjunct suppresses the crowd call.
            match op {
                BinaryOp::And => {
                    let l = eval_truth(ctx, left, row)?;
                    if l == Truth::False {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_truth(ctx, right, row)?;
                    return Ok(truth_to_value(l.and(r)));
                }
                BinaryOp::Or => {
                    let l = eval_truth(ctx, left, row)?;
                    if l == Truth::True {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_truth(ctx, right, row)?;
                    return Ok(truth_to_value(l.or(r)));
                }
                _ => {}
            }
            let l = operand(ctx, left, row)?;
            let r = operand(ctx, right, row)?;
            eval_binary(&l, *op, &r)
        }
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
            Ok(Value::Bool(hit != *negated))
        }
        BExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let p = operand(ctx, pattern, row)?;
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
            let v = operand(ctx, expr, row)?;
            let lo = operand(ctx, low, row)?;
            let hi = operand(ctx, high, row)?;
            let t =
                compare_truth(&v, BinaryOp::GtEq, &lo).and(compare_truth(&v, BinaryOp::LtEq, &hi));
            Ok(truth_to_value(if *negated { t.not() } else { t }))
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = operand(ctx, expr, row)?;
            let mut any_unknown = v.is_missing();
            let mut found = false;
            for cand in list {
                let c = operand(ctx, cand, row)?;
                match compare_truth(&v, BinaryOp::Eq, &c) {
                    Truth::True => {
                        found = true;
                        break;
                    }
                    Truth::Unknown => any_unknown = true,
                    Truth::False => {}
                }
            }
            let t = if found {
                Truth::True
            } else if any_unknown {
                Truth::Unknown
            } else {
                Truth::False
            };
            Ok(truth_to_value(if *negated { t.not() } else { t }))
        }
        BExpr::InPlan {
            expr,
            plan,
            negated,
        } => {
            let v = eval(ctx, expr, row)?;
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
            let t = if found {
                Truth::True
            } else if any_unknown {
                Truth::Unknown
            } else {
                Truth::False
            };
            Ok(truth_to_value(if *negated { t.not() } else { t }))
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
                Some(o) => Some(eval(ctx, o, row)?),
                None => None,
            };
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(v) => {
                        let w = eval(ctx, when, row)?;
                        compare_truth(v, BinaryOp::Eq, &w) == Truth::True
                    }
                    None => {
                        let w = eval(ctx, when, row)?;
                        value_truth(&w)? == Truth::True
                    }
                };
                if hit {
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
        BExpr::CrowdEqual { left, right } => {
            let l = eval(ctx, left, row)?;
            let r = eval(ctx, right, row)?;
            if l.is_missing() || r.is_missing() {
                return Ok(Value::Null);
            }
            // Fast path: machine-equal values need no crowd.
            if compare_truth(&l, BinaryOp::Eq, &r) == Truth::True {
                return Ok(Value::Bool(true));
            }
            let instruction = "Do these two values refer to the same entity?";
            let verdict =
                ctx.crowd_compare(Compare::Equal, &l.to_string(), &r.to_string(), instruction);
            // Unknown until the crowd answers.
            Ok(verdict.map_or(Value::Null, Value::Bool))
        }
        BExpr::CrowdOrder { .. } => Err(CrowdError::Internal(
            "CROWDORDER evaluated outside a sort".into(),
        )),
    }
}

/// Evaluate a predicate to a truth value.
pub fn eval_truth(ctx: &mut ExecCtx<'_>, e: &BExpr, row: &Row) -> Result<Truth> {
    value_truth(&*operand(ctx, e, row)?)
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
