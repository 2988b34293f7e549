//! The CrowdDB value model, including `CNULL`.
//!
//! CrowdSQL "introduces a new value to each SQL type, referred to as
//! CNULL. [...] CNULL indicates that a value should be crowdsourced when
//! it is first used." (paper, §2.1). A `CNULL` therefore carries different
//! *intent* than `NULL`: `NULL` is a final answer ("unknown/inapplicable"),
//! while `CNULL` is a promise ("ask the crowd").

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::DataType;

/// A single SQL value.
///
/// `Float` is stored as `f64`; CrowdDB forbids NaN floats at ingestion time
/// (see [`Value::validate`]) so that `Value` can provide a total sort
/// order and be hashed for grouping.
#[derive(Debug, Clone)]
pub enum Value {
    /// Standard SQL NULL: the value is unknown or inapplicable, final.
    Null,
    /// CrowdSQL CNULL: the value has not yet been crowdsourced.
    CNull,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (never NaN).
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Whether this is `NULL` or `CNULL` (i.e. missing for the purposes of
    /// standard SQL evaluation).
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Null | Value::CNull)
    }

    /// Whether this is specifically `CNULL` (crowdsourcing pending).
    pub fn is_cnull(&self) -> bool {
        matches!(self, Value::CNull)
    }

    /// The concrete type of this value, or `None` for `NULL`/`CNULL`
    /// (which inhabit every type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null | Value::CNull => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// Check that this value may be stored in a column of type `ty`,
    /// applying the implicit `Int -> Float` widening.
    ///
    /// Returns the (possibly widened) value to store.
    pub fn coerce_to(self, ty: DataType) -> Option<Value> {
        match (&self, ty) {
            (Value::Null, _) | (Value::CNull, _) => Some(self),
            (Value::Bool(_), DataType::Bool) => Some(self),
            (Value::Int(_), DataType::Int) => Some(self),
            (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
            (Value::Float(_), DataType::Float) => Some(self),
            (Value::Str(_), DataType::Str) => Some(self),
            _ => None,
        }
    }

    /// Reject values that would break engine invariants (currently: NaN).
    pub fn validate(&self) -> Result<(), String> {
        if let Value::Float(f) = self {
            if f.is_nan() {
                return Err("NaN floats are not storable in CrowdDB".to_string());
            }
        }
        Ok(())
    }

    /// SQL comparison: `None` when either side is missing or the types are
    /// incomparable; otherwise the ordering of the values. An `Int` and a
    /// `Float` compare exactly, without rounding the integer to `f64`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) | (Value::CNull, _) | (_, Value::CNull) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => cmp_int_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => cmp_int_float(*b, *a).map(Ordering::reverse),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by `ORDER BY`, grouping, and index keys.
    ///
    /// Missing values sort *first* (`NULL`, then `CNULL`), matching the H2
    /// default of `NULLS FIRST`; concrete values follow their SQL order,
    /// with a fixed cross-type order (bool < numeric < string) so that the
    /// ordering is total even for heterogeneous inputs.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::CNull => 1,
                Value::Bool(_) => 2,
                Value::Int(_) | Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) | (Value::CNull, Value::CNull) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Both numeric: compare as f64, which is total given no NaN.
            (a, b) => {
                let fa = a.as_f64().expect("numeric rank implies numeric value");
                let fb = b.as_f64().expect("numeric rank implies numeric value");
                fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parse a human-provided answer string into a value of type `ty`.
    ///
    /// Used when ingesting crowd answers: workers type free text into HTML
    /// forms, so integers arrive as `" 42 "`, booleans as `yes`/`no`, etc.
    /// Returns `None` if the text cannot be interpreted as `ty`.
    pub fn parse_answer(text: &str, ty: DataType) -> Option<Value> {
        let t = text.trim();
        if t.is_empty() {
            return None;
        }
        match ty {
            DataType::Str => Some(Value::Str(t.to_string())),
            DataType::Int => {
                // Tolerate thousands separators that workers often include.
                let cleaned: String = t.chars().filter(|c| *c != ',' && *c != '_').collect();
                cleaned.parse::<i64>().ok().map(Value::Int)
            }
            DataType::Float => {
                let cleaned: String = t.chars().filter(|c| *c != ',').collect();
                cleaned
                    .parse::<f64>()
                    .ok()
                    .filter(|f| !f.is_nan())
                    .map(Value::Float)
            }
            DataType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "yes" | "y" | "1" | "t" => Some(Value::Bool(true)),
                "false" | "no" | "n" | "0" | "f" => Some(Value::Bool(false)),
                _ => None,
            },
        }
    }

    /// Render as a SQL literal (for `EXPLAIN`, logging, and plan dumps).
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::CNull => "CNULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            // No finite literal reads back as an infinity; an overflowing
            // one does. (NaN has no literal and is never stored.)
            Value::Float(f) if f.is_infinite() => {
                if *f > 0.0 { "1e999" } else { "-1e999" }.to_string()
            }
            Value::Float(f) => format!("{f:?}"),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

/// `2^63`: the first float past `i64::MAX`, and exactly `-i64::MIN`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `f` as the integer it is exactly, if it is one.
fn exact_int(f: f64) -> Option<i64> {
    (f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&f)).then_some(f as i64)
}

/// Order an integer against a float exactly (`None` only for NaN).
fn cmp_int_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    if !(-TWO_POW_63..TWO_POW_63).contains(&f) {
        // Past every i64, so `i` lies on the same side of `f` as 0.
        return Some(0f64.total_cmp(&f));
    }
    // Both parts are exact: `whole` fits an i64, `f - whole` is `f`'s
    // fraction.
    let whole = f.trunc();
    Some(i.cmp(&(whole as i64)).then(0f64.total_cmp(&(f - whole))))
}

/// Equality used for grouping, joining, caching, and test assertions.
///
/// Unlike SQL's `=` ([`Value::compare`]), this treats `NULL == NULL` and
/// `CNULL == CNULL` as true (but `NULL != CNULL`). Numbers are equal by
/// value, as `=` has them: `3 == 3.0` and `0.0 == -0.0`; `Hash` agrees.
/// So `==` alone does not pin a type: a test that means INTEGER rather
/// than FLOAT also compares [`Value::data_type`] or matches the variant.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) | (Value::CNull, Value::CNull) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
                exact_int(*f) == Some(*i)
            }
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::CNull => state.write_u8(1),
            Value::Bool(b) => {
                state.write_u8(2);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(3);
                i.hash(state);
            }
            // `eq` holds `3.0 == 3`, `-0.0 == 0` and `NaN == NaN`: a
            // whole float hashes as its integer, every NaN as one.
            Value::Float(f) => match exact_int(*f) {
                Some(i) => Value::Int(i).hash(state),
                None => {
                    state.write_u8(4);
                    let canonical = if f.is_nan() { f64::NAN } else { *f };
                    canonical.to_bits().hash(state);
                }
            },
            Value::Str(s) => {
                state.write_u8(5);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::CNull => f.write_str("CNULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_markers() {
        assert!(Value::Null.is_missing());
        assert!(Value::CNull.is_missing());
        assert!(Value::CNull.is_cnull());
        assert!(!Value::Null.is_cnull());
        assert!(!Value::Int(1).is_missing());
    }

    #[test]
    fn equal_floats_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let quiet = f64::NAN;
        let other_nan = f64::from_bits(quiet.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        for (a, b) in [(0.0, -0.0), (quiet, -quiet), (quiet, other_nan)] {
            let (a, b) = (Value::Float(a), Value::Float(b));
            assert_eq!(a, b);
            assert_eq!(hash(&a), hash(&b), "{a:?} and {b:?}");
        }
        assert_ne!(hash(&Value::Float(1.0)), hash(&Value::Float(-1.0)));
    }

    #[test]
    fn null_and_cnull_are_structurally_distinct() {
        assert_ne!(Value::Null, Value::CNull);
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::CNull, Value::CNull);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).compare(&Value::Int(3)),
            Some(Ordering::Less)
        );
        // Exact, where `as f64` would round the integer to the float.
        let big = 1i64 << 53;
        let cases = [
            (big + 1, big as f64, Ordering::Greater),
            (i64::MAX, TWO_POW_63, Ordering::Less),
            (i64::MIN, -TWO_POW_63, Ordering::Equal),
            (i64::MIN, -1e300, Ordering::Greater),
            (-2, -2.5, Ordering::Greater),
            (-3, -2.5, Ordering::Less),
            (0, -0.0, Ordering::Equal),
        ];
        for (i, f, ord) in cases {
            assert_eq!(
                Value::Int(i).compare(&Value::Float(f)),
                Some(ord),
                "{i} vs {f}"
            );
            let back = Value::Float(f).compare(&Value::Int(i));
            assert_eq!(back, Some(ord.reverse()), "{f} vs {i}");
            assert_eq!(Value::Int(i) == Value::Float(f), ord == Ordering::Equal);
        }
        assert_eq!(Value::Int(1).compare(&Value::Float(f64::NAN)), None);
    }

    #[test]
    fn whole_floats_equal_and_hash_as_integers() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for (i, f) in [(3, 3.0), (0, -0.0), (-7, -7.0), (i64::MIN, -TWO_POW_63)] {
            let (i, f) = (Value::Int(i), Value::Float(f));
            assert_eq!(i, f);
            assert_eq!(hash(&i), hash(&f), "{i:?} and {f:?}");
        }
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert_ne!(Value::Int(i64::MAX), Value::Float(TWO_POW_63));
    }

    #[test]
    fn incomparable_types() {
        assert_eq!(Value::Int(1).compare(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
    }

    #[test]
    fn sort_order_nulls_first() {
        let mut vals = vec![
            Value::str("b"),
            Value::Int(2),
            Value::CNull,
            Value::Null,
            Value::Int(1),
        ];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::CNull,
                Value::Int(1),
                Value::Int(2),
                Value::str("b"),
            ]
        );
    }

    #[test]
    fn coercion() {
        // `==` holds `3 == 3.0`: match the variant.
        let widened = Value::Int(3).coerce_to(DataType::Float);
        assert!(
            matches!(widened, Some(Value::Float(f)) if f == 3.0),
            "{widened:?}"
        );
        assert_eq!(Value::str("x").coerce_to(DataType::Int), None);
        assert_eq!(Value::CNull.coerce_to(DataType::Int), Some(Value::CNull));
    }

    #[test]
    fn parse_answers() {
        assert_eq!(
            Value::parse_answer(" 1,234 ", DataType::Int),
            Some(Value::Int(1234))
        );
        assert_eq!(
            Value::parse_answer("yes", DataType::Bool),
            Some(Value::Bool(true))
        );
        assert_eq!(
            Value::parse_answer("NO", DataType::Bool),
            Some(Value::Bool(false))
        );
        assert_eq!(Value::parse_answer("abc", DataType::Int), None);
        assert_eq!(Value::parse_answer("  ", DataType::Str), None);
        assert_eq!(
            Value::parse_answer(" some text ", DataType::Str),
            Some(Value::str("some text"))
        );
        assert_eq!(
            Value::parse_answer("3.5", DataType::Float),
            Some(Value::Float(3.5))
        );
    }

    #[test]
    fn sql_literals_escape() {
        assert_eq!(Value::str("it's").sql_literal(), "'it''s'");
        assert_eq!(Value::CNull.sql_literal(), "CNULL");
        assert_eq!(Value::Float(1.0).sql_literal(), "1.0");
        assert_eq!(Value::Float(f64::NEG_INFINITY).sql_literal(), "-1e999");
        assert_eq!("1e999".parse::<f64>(), Ok(f64::INFINITY));
    }

    #[test]
    fn nan_is_rejected() {
        assert!(Value::Float(f64::NAN).validate().is_err());
        assert!(Value::Float(1.0).validate().is_ok());
    }
}
