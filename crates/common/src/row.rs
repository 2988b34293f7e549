//! Rows (tuples) flowing through the engine.

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

    /// Concatenate two rows (used by joins).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
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

    /// Whether any column is `CNULL`.
    pub fn has_cnull(&self) -> bool {
        self.values.iter().any(Value::is_cnull)
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
    fn concat() {
        let a = Row::new(vec![Value::Int(1), Value::Int(2)]);
        let b = Row::new(vec![Value::str("z")]);
        let c = a.concat(&b);
        assert_eq!(
            c,
            Row::new(vec![Value::Int(1), Value::Int(2), Value::str("z")])
        );
        assert_eq!(c.concat(&Row::default()), c);
    }

    #[test]
    fn cnull_tracking() {
        let r = Row::new(vec![Value::Int(1), Value::CNull, Value::Null, Value::CNull]);
        assert!(r.has_cnull());
        assert_eq!(r.cnull_columns(), vec![1, 3]);
        let clean = Row::new(vec![Value::Int(1), Value::Null]);
        assert!(!clean.has_cnull());
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
