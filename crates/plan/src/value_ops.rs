//! SQL operators over concrete values: arithmetic, negation,
//! comparison and three-valued logic.
//!
//! The one copy. The executor evaluates rows through these
//! (`crowddb_exec::eval` re-exports them) and the optimizer folds
//! literal subexpressions through [`eval_binary`] and [`eval_unary`], so
//! a folded plan computes exactly what the unfolded one would have at
//! run time.

use crowddb_common::{CrowdError, Result, Truth, Value};
use crowddb_sql::{BinaryOp, UnaryOp};

/// Evaluate a unary operator over a concrete value: `NOT` in 3VL,
/// overflow-checked `-`, and `+` as the identity.
pub fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Not => Ok(truth_to_value(value_truth(&v)?.not())),
        UnaryOp::Neg => match v {
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| CrowdError::Exec("integer overflow in -".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null | Value::CNull => Ok(Value::Null),
            other => Err(CrowdError::Type(format!(
                "cannot negate {}",
                other.sql_literal()
            ))),
        },
        UnaryOp::Pos => Ok(v),
    }
}

/// Evaluate a binary operator over two concrete values (3VL for
/// comparisons, missing-propagation for arithmetic).
pub fn eval_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => eval_arith(l, op, r),
        Concat => {
            if l.is_missing() || r.is_missing() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(format!("{l}{r}")))
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => Ok(truth_to_value(compare_truth(l, op, r))),
        And | Or => {
            let a = value_truth(l)?;
            let b = value_truth(r)?;
            Ok(truth_to_value(if op == And { a.and(b) } else { a.or(b) }))
        }
        CrowdEq => Err(CrowdError::Internal(
            "CrowdEq must be handled by the crowd evaluator".into(),
        )),
    }
}

/// Comparison in three-valued logic.
pub fn compare_truth(l: &Value, op: BinaryOp, r: &Value) -> Truth {
    use std::cmp::Ordering::*;
    let Some(ord) = l.compare(r) else {
        return Truth::Unknown;
    };
    let b = match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => return Truth::Unknown,
    };
    Truth::from_bool(b)
}

fn eval_arith(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    if l.is_missing() || r.is_missing() {
        return Ok(Value::Null);
    }
    // Integer fast path.
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return match op {
            BinaryOp::Add => a
                .checked_add(b)
                .map(Value::Int)
                .ok_or_else(|| CrowdError::Exec("integer overflow in +".into())),
            BinaryOp::Sub => a
                .checked_sub(b)
                .map(Value::Int)
                .ok_or_else(|| CrowdError::Exec("integer overflow in -".into())),
            BinaryOp::Mul => a
                .checked_mul(b)
                .map(Value::Int)
                .ok_or_else(|| CrowdError::Exec("integer overflow in *".into())),
            BinaryOp::Div => {
                if b == 0 {
                    Err(CrowdError::Exec("division by zero".into()))
                } else {
                    Ok(Value::Int(a / b))
                }
            }
            BinaryOp::Mod => {
                if b == 0 {
                    Err(CrowdError::Exec("modulo by zero".into()))
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            op => Err(CrowdError::Internal(format!(
                "non-arithmetic operator {op:?} reached integer arithmetic"
            ))),
        };
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(CrowdError::Type(format!(
            "arithmetic on non-numeric values {} and {}",
            l.sql_literal(),
            r.sql_literal()
        )));
    };
    let v = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(CrowdError::Exec("division by zero".into()));
            }
            a / b
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(CrowdError::Exec("modulo by zero".into()));
            }
            a % b
        }
        op => {
            return Err(CrowdError::Internal(format!(
                "non-arithmetic operator {op:?} reached float arithmetic"
            )))
        }
    };
    if v.is_nan() {
        return Err(CrowdError::Exec("NaN produced by arithmetic".into()));
    }
    Ok(Value::Float(v))
}

/// SQL boolean interpretation of a value.
pub fn value_truth(v: &Value) -> Result<Truth> {
    match v {
        Value::Bool(b) => Ok(Truth::from_bool(*b)),
        Value::Null | Value::CNull => Ok(Truth::Unknown),
        other => Err(CrowdError::Type(format!(
            "expected a boolean, got {}",
            other.sql_literal()
        ))),
    }
}

/// Truth → SQL value (`Unknown` → `NULL`).
pub fn truth_to_value(t: Truth) -> Value {
    match t.to_bool() {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}
