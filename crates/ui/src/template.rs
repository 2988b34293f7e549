//! Task user-interface templates.
//!
//! A template is created once per (table, task shape) at schema-definition
//! time. It carries editable instructions (the Form Editor's hook) and the
//! table's field list, which names the columns a new-tuples task asks for;
//! the page a worker sees is rendered from the task itself
//! ([`crate::render`]).

use crowddb_common::DataType;

/// One form field of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Column name.
    pub name: String,
    /// Column type (drives answer parsing).
    pub data_type: DataType,
}

/// The shape of task a template serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateKind {
    /// Fill missing CROWD-column values of an existing tuple.
    Probe,
    /// Contribute new tuples of a CROWD table.
    NewTuples,
}

/// A reusable task UI template.
#[derive(Debug, Clone, PartialEq)]
pub struct UiTemplate {
    /// Unique template name, `<table>:<kind>`.
    pub name: String,
    /// Table this template crowdsources.
    pub table: String,
    /// Template shape.
    pub kind: TemplateKind,
    /// Instructions paragraph (editable by the Form Editor).
    pub instructions: String,
    /// All fields, in schema order.
    pub fields: Vec<FieldSpec>,
}
