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
    fn sql_names() {
        assert_eq!(DataType::Str.to_string(), "STRING");
        assert_eq!(DataType::Int.to_string(), "INTEGER");
    }
}
