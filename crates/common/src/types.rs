//! The CrowdSQL type system.

use std::fmt;

/// Data types supported by CrowdDB.
///
/// The paper's examples use `STRING` and `INTEGER`; we additionally support
/// booleans and double-precision floats, which the H2 substrate the paper
/// built on provides as well. Every type implicitly contains the two
/// missing-value markers `NULL` and `CNULL` (see
/// [`Value`](crate::value::Value)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean truth values.
    Bool,
    /// 64-bit signed integer (`INTEGER` / `INT`).
    Int,
    /// 64-bit IEEE-754 float (`FLOAT` / `DOUBLE`).
    Float,
    /// Variable-length UTF-8 string (`STRING` / `VARCHAR` / `TEXT`).
    Str,
}

impl DataType {
    /// Whether a value of type `from` can be implicitly coerced to `self`.
    ///
    /// CrowdDB implements a small, predictable lattice: `Int -> Float` is
    /// the only implicit widening. Everything else requires an explicit
    /// `CAST` or fails type checking.
    pub fn coercible_from(self, from: DataType) -> bool {
        self == from || (self == DataType::Float && from == DataType::Int)
    }

    /// The common supertype of two types for comparison/arithmetic, if any.
    pub fn unify(a: DataType, b: DataType) -> Option<DataType> {
        if a == b {
            Some(a)
        } else if matches!(
            (a, b),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int)
        ) {
            Some(DataType::Float)
        } else {
            None
        }
    }

    /// Whether this type supports arithmetic (`+ - * / %`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// SQL spelling of the type, as printed by `EXPLAIN` and DDL dumps.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "INTEGER",
            DataType::Float => "FLOAT",
            DataType::Str => "STRING",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercion_lattice() {
        assert!(DataType::Float.coercible_from(DataType::Int));
        assert!(!DataType::Int.coercible_from(DataType::Float));
        assert!(DataType::Str.coercible_from(DataType::Str));
        assert!(!DataType::Str.coercible_from(DataType::Int));
    }

    #[test]
    fn unify_numeric() {
        assert_eq!(
            DataType::unify(DataType::Int, DataType::Float),
            Some(DataType::Float)
        );
        assert_eq!(
            DataType::unify(DataType::Float, DataType::Int),
            Some(DataType::Float)
        );
        assert_eq!(
            DataType::unify(DataType::Int, DataType::Int),
            Some(DataType::Int)
        );
        assert_eq!(DataType::unify(DataType::Str, DataType::Int), None);
    }

    #[test]
    fn numeric_predicate() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn sql_names() {
        assert_eq!(DataType::Str.to_string(), "STRING");
        assert_eq!(DataType::Int.to_string(), "INTEGER");
    }
}
