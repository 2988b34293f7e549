//! Rows (tuples) flowing through the engine.

use std::borrow::Cow;
use std::fmt;
use std::ops::Index;

use crate::value::Value;

/// A tuple of values.
///
/// Rows are the unit of data flow between operators and the unit of storage
/// in heap tables. A row does not know its schema; operators carry schema
/// information separately (see `crowddb-plan`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the value at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Replace the value at `idx`. Panics if out of bounds.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume the row, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The values, for a decoder refilling a row it reuses.
    pub(crate) fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Overwrite the row with `values`, slot by slot, and drop any
    /// columns past the last one: a lent value is copied into the slot,
    /// and a string slot that receives a string keeps its allocation, so
    /// an operator refilling one output row per input row stops
    /// allocating once the row has seen a few.
    pub fn refill<'v>(&mut self, values: impl IntoIterator<Item = Cow<'v, Value>>) {
        let mut n = 0;
        for v in values {
            match (self.values.get_mut(n), v) {
                (Some(Value::Str(slot)), Cow::Borrowed(Value::Str(s))) => {
                    slot.clear();
                    slot.push_str(s);
                }
                (Some(slot), v) => *slot = v.into_owned(),
                (None, v) => self.values.push(v.into_owned()),
            }
            n += 1;
        }
        self.values.truncate(n);
    }

    /// Indexes of columns whose value is `CNULL`.
    pub fn cnull_columns(&self) -> Vec<usize> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_cnull())
            .map(|(i, _)| i)
            .collect()
    }
}

impl Index<usize> for Row {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Construct a [`Row`] from a list of expressions convertible to
/// [`Value`].
///
/// ```
/// use crowddb_common::{row, Value};
/// let r = row![1i64, "title", Value::CNull];
/// assert_eq!(r.arity(), 3);
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let r = Row::new(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), Some(&Value::Int(1)));
        assert_eq!(r.get(2), None);
        assert_eq!(r[1], Value::str("x"));
    }

    #[test]
    fn refill_keeps_string_allocations_and_sets_the_arity() {
        let long = "x".repeat(64);
        let mut r = Row::new(vec![Value::str(&long), Value::Int(1), Value::CNull]);
        let at = match &r[0] {
            Value::Str(s) => s.as_ptr(),
            _ => unreachable!(),
        };
        let src = [Value::str("ab"), Value::Null];
        r.refill(src.iter().map(Cow::Borrowed));
        assert_eq!(r, Row::new(vec![Value::str("ab"), Value::Null]));
        assert!(matches!(&r[0], Value::Str(s) if s.as_ptr() == at));
        // Longer again, owned and lent values mixed.
        r.refill([
            Cow::Owned(Value::Int(7)),
            Cow::Borrowed(&src[0]),
            Cow::Owned(Value::CNull),
        ]);
        assert_eq!(
            r,
            Row::new(vec![Value::Int(7), Value::str("ab"), Value::CNull])
        );
        r.refill([]);
        assert!(r.is_empty());
    }

    #[test]
    fn cnull_tracking() {
        let r = Row::new(vec![Value::Int(1), Value::CNull, Value::Null, Value::CNull]);
        assert_eq!(r.cnull_columns(), vec![1, 3]);
        let clean = Row::new(vec![Value::Int(1), Value::Null]);
        assert!(clean.cnull_columns().is_empty());
    }

    #[test]
    fn row_macro() {
        let r = row![42i64, "hello", true, Value::CNull];
        assert_eq!(r[0], Value::Int(42));
        assert_eq!(r[1], Value::str("hello"));
        assert_eq!(r[2], Value::Bool(true));
        assert!(r[3].is_cnull());
    }

    #[test]
    fn display() {
        let r = row![1i64, "a"];
        assert_eq!(r.to_string(), "(1, a)");
    }

    #[test]
    fn set_replaces() {
        let mut r = row![Value::CNull];
        r.set(0, Value::Int(9));
        assert_eq!(r[0], Value::Int(9));
    }
}
