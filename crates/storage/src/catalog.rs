//! The catalog: name → schema mapping and DDL translation.

use std::collections::BTreeMap;

use crowddb_common::{ColumnDef, CrowdError, Result, TableId, TableSchema};
use crowddb_sql::{CreateTable, TableConstraint};

/// Catalog of table schemas.
///
/// The catalog is the compile-time view of the database: the binder and
/// optimizer consult it for name resolution, CROWD annotations, and key
/// information. Tables are kept in a `BTreeMap` so enumeration order is
/// deterministic.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, (TableId, TableSchema)>,
    next_id: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a schema, assigning a fresh table id.
    pub fn register(&mut self, schema: TableSchema) -> Result<TableId> {
        if self.tables.contains_key(&schema.name) {
            return Err(CrowdError::Catalog(format!(
                "table '{}' already exists",
                schema.name
            )));
        }
        let id = TableId(self.next_id);
        self.next_id += 1;
        self.tables.insert(schema.name.clone(), (id, schema));
        Ok(id)
    }

    /// Remove a table. Returns its schema if it existed.
    pub fn remove(&mut self, name: &str) -> Option<TableSchema> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|(_, s)| s)
    }

    /// Look up a schema by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(&name.to_ascii_lowercase()).map(|(_, s)| s)
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Iterate over all schemas in name order.
    pub fn schemas(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values().map(|(_, s)| s)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Translate a parsed `CREATE [CROWD] TABLE` statement into a
    /// [`TableSchema`], validating constraints against the catalog
    /// (foreign keys must reference existing tables and columns).
    pub fn schema_from_ast(&self, ct: &CreateTable) -> Result<TableSchema> {
        let mut columns = Vec::with_capacity(ct.columns.len());
        let mut inline_pk: Option<String> = None;
        for c in &ct.columns {
            let mut def = ColumnDef::new(&c.name, c.data_type);
            if c.crowd {
                def = def.crowd();
            }
            if c.not_null {
                def = def.not_null();
            }
            if c.primary_key {
                if inline_pk.is_some() {
                    return Err(CrowdError::Catalog(format!(
                        "table '{}' declares multiple inline primary keys",
                        ct.name
                    )));
                }
                inline_pk = Some(c.name.clone());
            }
            columns.push(def);
        }
        let mut schema = TableSchema::new(&ct.name, columns)?;
        if ct.crowd {
            schema = schema.crowd();
        }
        let mut pk_names: Vec<String> = inline_pk.into_iter().collect();
        for cons in &ct.constraints {
            match cons {
                TableConstraint::PrimaryKey(cols) => {
                    if !pk_names.is_empty() {
                        return Err(CrowdError::Catalog(format!(
                            "table '{}' declares multiple primary keys",
                            ct.name
                        )));
                    }
                    pk_names = cols.clone();
                }
                TableConstraint::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } => {
                    let referenced = self.get(ref_table).ok_or_else(|| {
                        CrowdError::Catalog(format!(
                            "foreign key in '{}' references unknown table '{ref_table}'",
                            ct.name
                        ))
                    })?;
                    for rc in ref_columns {
                        if referenced.column_index(rc).is_none() {
                            return Err(CrowdError::Catalog(format!(
                                "foreign key in '{}' references unknown column '{ref_table}.{rc}'",
                                ct.name
                            )));
                        }
                    }
                    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let ref_refs: Vec<&str> = ref_columns.iter().map(String::as_str).collect();
                    schema = schema.with_foreign_key(&col_refs, ref_table, &ref_refs)?;
                }
            }
        }
        if !pk_names.is_empty() {
            let refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
            schema = schema.with_primary_key(&refs)?;
        }
        // A CROWD table must have a primary key: the paper's quality
        // control dedupes crowdsourced tuples by key, and without one the
        // open-world semantics cannot detect duplicate answers.
        if schema.crowd_table && schema.primary_key.is_empty() {
            return Err(CrowdError::Catalog(format!(
                "CROWD table '{}' must declare a PRIMARY KEY (used to deduplicate \
                 crowdsourced tuples)",
                schema.name
            )));
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::DataType;
    use crowddb_sql::parse_statement;

    fn create(catalog: &mut Catalog, sql: &str) -> Result<TableId> {
        let stmt = parse_statement(sql).unwrap();
        let crowddb_sql::Statement::CreateTable(ct) = stmt else {
            panic!("not a create table")
        };
        let schema = catalog.schema_from_ast(&ct)?;
        catalog.register(schema)
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        create(
            &mut c,
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)",
        )
        .unwrap();
        assert!(c.contains("TALK"));
        let s = c.get("talk").unwrap();
        assert_eq!(s.crowd_columns(), vec![1]);
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        create(&mut c, "CREATE TABLE t (a INTEGER)").unwrap();
        let err = create(&mut c, "CREATE TABLE T (b STRING)").unwrap_err();
        assert_eq!(err.category(), "catalog");
    }

    #[test]
    fn fk_requires_existing_table_and_column() {
        let mut c = Catalog::new();
        let err = create(
            &mut c,
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF talk(title))",
        )
        .unwrap_err();
        assert!(err.message().contains("unknown table"), "{err}");

        create(&mut c, "CREATE TABLE talk (title STRING PRIMARY KEY)").unwrap();
        let err = create(
            &mut c,
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF talk(nope))",
        )
        .unwrap_err();
        assert!(err.message().contains("unknown column"), "{err}");

        create(
            &mut c,
            "CREATE CROWD TABLE n (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF talk(title))",
        )
        .unwrap();
        let fks = &c.get("n").unwrap().foreign_keys;
        assert_eq!((fks.len(), fks[0].ref_table.as_str()), (1, "talk"));
        assert!(c.get("talk").unwrap().foreign_keys.is_empty());
    }

    #[test]
    fn crowd_table_requires_pk() {
        let mut c = Catalog::new();
        let err = create(&mut c, "CREATE CROWD TABLE n (name STRING)").unwrap_err();
        assert!(err.message().contains("PRIMARY KEY"), "{err}");
    }

    #[test]
    fn table_level_pk() {
        let mut c = Catalog::new();
        create(
            &mut c,
            "CREATE TABLE t (a INTEGER, b STRING, PRIMARY KEY (a, b))",
        )
        .unwrap();
        assert_eq!(c.get("t").unwrap().primary_key, vec![0, 1]);
    }

    #[test]
    fn double_pk_rejected() {
        let mut c = Catalog::new();
        let err = create(
            &mut c,
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b STRING, PRIMARY KEY (b))",
        )
        .unwrap_err();
        assert!(err.message().contains("multiple primary keys"), "{err}");
    }

    #[test]
    fn remove_table() {
        let mut c = Catalog::new();
        create(&mut c, "CREATE TABLE t (a INTEGER)").unwrap();
        assert!(c.remove("T").is_some());
        assert!(c.remove("t").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn schemas_enumerated_in_name_order() {
        let mut c = Catalog::new();
        create(&mut c, "CREATE TABLE zeta (a INTEGER)").unwrap();
        create(&mut c, "CREATE TABLE alpha (a INTEGER)").unwrap();
        let names: Vec<&str> = c.schemas().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn data_types_translated() {
        let mut c = Catalog::new();
        create(
            &mut c,
            "CREATE TABLE t (a INTEGER, b STRING, c FLOAT, d BOOLEAN)",
        )
        .unwrap();
        let s = c.get("t").unwrap();
        assert_eq!(s.columns[0].data_type, DataType::Int);
        assert_eq!(s.columns[1].data_type, DataType::Str);
        assert_eq!(s.columns[2].data_type, DataType::Float);
        assert_eq!(s.columns[3].data_type, DataType::Bool);
    }
}
