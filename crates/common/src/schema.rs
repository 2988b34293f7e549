//! Schema model: tables, columns, keys, and CROWD annotations.
//!
//! CrowdSQL extends the DDL in two ways (paper §2.1):
//!
//! * a column may be marked `CROWD` — its missing values (`CNULL`) are
//!   crowdsourced on first use;
//! * a whole table may be declared `CREATE CROWD TABLE` — it is treated
//!   under the open-world assumption and new tuples may be crowdsourced.
//!
//! Both tables and columns can additionally carry free-text annotations
//! that the UI generator embeds as worker instructions (paper §3.1).

use crate::error::{CrowdError, Result};
use crate::types::DataType;

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (stored lower-cased; SQL identifiers are
    /// case-insensitive in CrowdDB).
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
    /// `CROWD` modifier: missing values are sourced from the crowd.
    pub crowd: bool,
    /// `NOT NULL` constraint (primary-key columns are implicitly NOT NULL).
    pub not_null: bool,
    /// Optional free-text annotation used as instructions in generated
    /// task user interfaces.
    pub annotation: Option<String>,
}

impl ColumnDef {
    /// Create a plain (non-crowd, nullable) column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            data_type,
            crowd: false,
            not_null: false,
            annotation: None,
        }
    }

    /// Builder: mark the column as `CROWD`.
    pub fn crowd(mut self) -> ColumnDef {
        self.crowd = true;
        self
    }

    /// Builder: mark the column as `NOT NULL`.
    pub fn not_null(mut self) -> ColumnDef {
        self.not_null = true;
        self
    }

    /// Builder: attach a free-text annotation.
    pub fn with_annotation(mut self, text: impl Into<String>) -> ColumnDef {
        self.annotation = Some(text.into());
        self
    }
}

/// A foreign-key constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column ordinals in this table.
    pub columns: Vec<usize>,
    /// Referenced table name (lower-cased).
    pub ref_table: String,
    /// Referenced column names in the referenced table (lower-cased).
    pub ref_columns: Vec<String>,
}

/// Definition of a table, electronic or crowdsourced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lower-cased).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Ordinals of the primary-key columns (empty = no declared key).
    pub primary_key: Vec<usize>,
    /// Foreign-key constraints.
    pub foreign_keys: Vec<ForeignKey>,
    /// `CREATE CROWD TABLE`: open-world table whose tuples may be
    /// crowdsourced.
    pub crowd_table: bool,
    /// Optional free-text annotation used as task instructions.
    pub annotation: Option<String>,
}

impl TableSchema {
    /// Create a schema. Column and table names are lower-cased; duplicate
    /// column names are rejected.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<TableSchema> {
        let name = name.into().to_ascii_lowercase();
        if name.is_empty() {
            return Err(CrowdError::Catalog("empty table name".into()));
        }
        if columns.is_empty() {
            return Err(CrowdError::Catalog(format!(
                "table '{name}' must have at least one column"
            )));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(CrowdError::Catalog(format!(
                    "duplicate column '{}' in table '{name}'",
                    c.name
                )));
            }
        }
        Ok(TableSchema {
            name,
            columns,
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
            crowd_table: false,
            annotation: None,
        })
    }

    /// Builder: declare the primary key by column names.
    pub fn with_primary_key(mut self, names: &[&str]) -> Result<TableSchema> {
        let mut pk = Vec::with_capacity(names.len());
        for n in names {
            pk.push(self.column_index(n).ok_or_else(|| {
                CrowdError::Catalog(format!(
                    "primary key column '{n}' not found in table '{}'",
                    self.name
                ))
            })?);
        }
        for &i in &pk {
            self.columns[i].not_null = true;
        }
        self.primary_key = pk;
        Ok(self)
    }

    /// Builder: mark the table as a CROWD table.
    pub fn crowd(mut self) -> TableSchema {
        self.crowd_table = true;
        self
    }

    /// Builder: attach a free-text annotation.
    pub fn with_annotation(mut self, text: impl Into<String>) -> TableSchema {
        self.annotation = Some(text.into());
        self
    }

    /// Builder: add a foreign key by column names.
    pub fn with_foreign_key(
        mut self,
        columns: &[&str],
        ref_table: &str,
        ref_columns: &[&str],
    ) -> Result<TableSchema> {
        if columns.len() != ref_columns.len() {
            return Err(CrowdError::Catalog(format!(
                "foreign key arity mismatch in table '{}'",
                self.name
            )));
        }
        let mut ords = Vec::with_capacity(columns.len());
        for n in columns {
            ords.push(self.column_index(n).ok_or_else(|| {
                CrowdError::Catalog(format!(
                    "foreign key column '{n}' not found in table '{}'",
                    self.name
                ))
            })?);
        }
        self.foreign_keys.push(ForeignKey {
            columns: ords,
            ref_table: ref_table.to_ascii_lowercase(),
            ref_columns: ref_columns.iter().map(|s| s.to_ascii_lowercase()).collect(),
        });
        Ok(self)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ordinal of the column with the given (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lname)
    }

    /// The column definition with the given (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Ordinals of all `CROWD` columns.
    pub fn crowd_columns(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.crowd)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether this table involves the crowd at all (crowd table, or any
    /// crowd column). Such tables get task UI templates generated at
    /// compile time (paper §3.1).
    pub fn is_crowd_related(&self) -> bool {
        self.crowd_table || self.columns.iter().any(|c| c.crowd)
    }

    /// Render the schema back to CrowdSQL DDL.
    pub fn to_ddl(&self) -> String {
        let mut out = String::new();
        out.push_str("CREATE ");
        if self.crowd_table {
            out.push_str("CROWD ");
        }
        out.push_str("TABLE ");
        out.push_str(&self.name);
        out.push_str(" (\n");
        let mut parts: Vec<String> = Vec::new();
        for (i, c) in self.columns.iter().enumerate() {
            let mut p = format!("  {}", c.name);
            if c.crowd {
                p.push_str(" CROWD");
            }
            p.push(' ');
            p.push_str(c.data_type.sql_name());
            if self.primary_key == vec![i] {
                p.push_str(" PRIMARY KEY");
            } else if c.not_null && !self.primary_key.contains(&i) {
                p.push_str(" NOT NULL");
            }
            parts.push(p);
        }
        if self.primary_key.len() > 1 {
            let names: Vec<&str> = self
                .primary_key
                .iter()
                .map(|&i| self.columns[i].name.as_str())
                .collect();
            parts.push(format!("  PRIMARY KEY ({})", names.join(", ")));
        }
        for fk in &self.foreign_keys {
            let cols: Vec<&str> = fk
                .columns
                .iter()
                .map(|&i| self.columns[i].name.as_str())
                .collect();
            parts.push(format!(
                "  FOREIGN KEY ({}) REF {}({})",
                cols.join(", "),
                fk.ref_table,
                fk.ref_columns.join(", ")
            ));
        }
        out.push_str(&parts.join(",\n"));
        out.push_str("\n)");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn talk_schema() -> TableSchema {
        TableSchema::new(
            "Talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
                ColumnDef::new("nb_attendees", DataType::Int).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap()
    }

    #[test]
    fn names_are_case_insensitive() {
        let s = talk_schema();
        assert_eq!(s.name, "talk");
        assert_eq!(s.column_index("TITLE"), Some(0));
        assert_eq!(s.column_index("Nb_Attendees"), Some(2));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn crowd_columns_detected() {
        let s = talk_schema();
        assert_eq!(s.crowd_columns(), vec![1, 2]);
        assert!(s.is_crowd_related());
        assert!(!s.crowd_table);
    }

    #[test]
    fn primary_key_implies_not_null() {
        let s = talk_schema();
        assert!(s.columns[0].not_null);
        assert_eq!(s.primary_key, vec![0]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("A", DataType::Str),
            ],
        )
        .unwrap_err();
        assert_eq!(err.category(), "catalog");
    }

    #[test]
    fn empty_table_rejected() {
        assert!(TableSchema::new("t", vec![]).is_err());
        assert!(TableSchema::new("", vec![ColumnDef::new("a", DataType::Int)]).is_err());
    }

    #[test]
    fn crowd_table_with_foreign_key() {
        let s = TableSchema::new(
            "NotableAttendee",
            vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("title", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["name"])
        .unwrap()
        .with_foreign_key(&["title"], "Talk", &["title"])
        .unwrap()
        .crowd();
        assert!(s.crowd_table);
        assert!(s.is_crowd_related());
        assert_eq!(s.foreign_keys[0].ref_table, "talk");
    }

    #[test]
    fn ddl_round_trips_paper_example_1() {
        let ddl = talk_schema().to_ddl();
        assert!(ddl.contains("CREATE TABLE talk"));
        assert!(ddl.contains("abstract CROWD STRING"));
        assert!(ddl.contains("nb_attendees CROWD INTEGER"));
        assert!(ddl.contains("title STRING PRIMARY KEY"));
    }

    #[test]
    fn ddl_for_crowd_table() {
        let s = TableSchema::new("x", vec![ColumnDef::new("a", DataType::Int)])
            .unwrap()
            .crowd();
        assert!(s.to_ddl().starts_with("CREATE CROWD TABLE x"));
    }

    #[test]
    fn unknown_pk_column_rejected() {
        let err = TableSchema::new("t", vec![ColumnDef::new("a", DataType::Int)])
            .unwrap()
            .with_primary_key(&["b"])
            .unwrap_err();
        assert_eq!(err.category(), "catalog");
    }

    #[test]
    fn fk_arity_mismatch_rejected() {
        let err = TableSchema::new("t", vec![ColumnDef::new("a", DataType::Int)])
            .unwrap()
            .with_foreign_key(&["a"], "u", &["x", "y"])
            .unwrap_err();
        assert_eq!(err.category(), "catalog");
    }
}
