//! The UI Creation component: schema → templates, at compile time.

use crowddb_common::TableSchema;

use crate::template::{FieldSpec, TemplateKind, UiTemplate};

/// Generates task UI templates from schema information.
///
/// "These user interfaces are HTML templates that are generated based on
/// the CROWD annotations in the schema and optional free-text annotations
/// of columns and tables that can also be found in the schema." (§3.1)
pub struct UiCreation;

impl UiCreation {
    /// All templates implied by a schema:
    ///
    /// * a **probe** template if the table has CROWD columns (fill missing
    ///   fields of an existing tuple);
    /// * a **new-tuples** template if the table is a CROWD table
    ///   (contribute whole tuples).
    pub fn templates_for(schema: &TableSchema) -> Vec<UiTemplate> {
        let mut out = Vec::new();
        // CROWD tables get a probe template too: their existing tuples may
        // carry CNULLs in any column (every column of a CROWD table is
        // crowdsourceable).
        if !schema.crowd_columns().is_empty() || schema.crowd_table {
            out.push(Self::probe_template(schema));
        }
        if schema.crowd_table {
            out.push(Self::new_tuples_template(schema));
        }
        out
    }

    /// Canonical name for a table's template of a given kind.
    pub fn template_name(table: &str, kind: TemplateKind) -> String {
        match kind {
            TemplateKind::Probe => format!("{table}:probe"),
            TemplateKind::NewTuples => format!("{table}:new"),
        }
    }

    fn fields_of(schema: &TableSchema) -> Vec<FieldSpec> {
        schema
            .columns
            .iter()
            .map(|c| FieldSpec {
                name: c.name.clone(),
                data_type: c.data_type,
            })
            .collect()
    }

    fn probe_template(schema: &TableSchema) -> UiTemplate {
        let instructions = schema.annotation.clone().unwrap_or_else(|| {
            format!(
                "Please fill out the missing fields of the following {} record. \
                 Use web search or reference sources if needed.",
                schema.name
            )
        });
        UiTemplate {
            name: Self::template_name(&schema.name, TemplateKind::Probe),
            table: schema.name.clone(),
            kind: TemplateKind::Probe,
            instructions,
            fields: Self::fields_of(schema),
        }
    }

    fn new_tuples_template(schema: &TableSchema) -> UiTemplate {
        let instructions = schema.annotation.clone().unwrap_or_else(|| {
            format!(
                "Please contribute new {} records you know of. \
                 Fill one record per form; duplicates are merged.",
                schema.name
            )
        });
        UiTemplate {
            name: Self::template_name(&schema.name, TemplateKind::NewTuples),
            table: schema.name.clone(),
            kind: TemplateKind::NewTuples,
            instructions,
            fields: Self::fields_of(schema),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::{ColumnDef, DataType};

    fn talk_schema() -> TableSchema {
        TableSchema::new(
            "talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
                ColumnDef::new("nb_attendees", DataType::Int)
                    .crowd()
                    .with_annotation("how many people attended the talk"),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap()
    }

    #[test]
    fn table_with_crowd_columns_gets_probe_template() {
        let templates = UiCreation::templates_for(&talk_schema());
        assert_eq!(templates.len(), 1);
        let t = &templates[0];
        assert_eq!(t.kind, TemplateKind::Probe);
        assert_eq!(t.name, "talk:probe");
        assert_eq!(t.fields.len(), 3);
    }

    #[test]
    fn crowd_table_gets_both_probe_and_new() {
        let schema = TableSchema::new(
            "notableattendee",
            vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("title", DataType::Str).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["name"])
        .unwrap()
        .crowd();
        let templates = UiCreation::templates_for(&schema);
        assert_eq!(templates.len(), 2);
        assert!(templates.iter().any(|t| t.kind == TemplateKind::Probe));
        assert!(templates.iter().any(|t| t.kind == TemplateKind::NewTuples));
    }

    #[test]
    fn electronic_table_gets_no_templates() {
        let schema = TableSchema::new("plain", vec![ColumnDef::new("a", DataType::Int)]).unwrap();
        assert!(UiCreation::templates_for(&schema).is_empty());
    }

    #[test]
    fn table_annotation_becomes_instructions() {
        let schema = TableSchema::new(
            "restaurant",
            vec![ColumnDef::new("name", DataType::Str).crowd()],
        )
        .unwrap()
        .with_annotation("Only consider restaurants within walking distance of the venue.");
        let templates = UiCreation::templates_for(&schema);
        assert_eq!(
            templates[0].instructions,
            "Only consider restaurants within walking distance of the venue."
        );
    }
}
