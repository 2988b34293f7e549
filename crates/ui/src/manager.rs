//! The UI Template Manager and Form Editor.

use std::collections::BTreeMap;

use crowddb_common::{CrowdError, Result, TableSchema};

use crate::creation::UiCreation;
use crate::template::{TemplateKind, UiTemplate};

/// Central store of task UI templates.
///
/// "All generated templates are centrally managed by the UI Template
/// Manager. Furthermore, these templates can be edited by application
/// developers in order to provide additional custom instructions." (§3.1)
#[derive(Debug, Default)]
pub struct UiTemplateManager {
    templates: BTreeMap<String, UiTemplate>,
}

impl UiTemplateManager {
    /// Empty manager.
    pub fn new() -> UiTemplateManager {
        UiTemplateManager::default()
    }

    /// Generate and register all templates for a schema (called when a
    /// table is created). Re-registering a schema replaces its templates,
    /// preserving nothing — edits are lost on DDL changes, matching the
    /// compile-time nature of generation.
    pub fn register_schema(&mut self, schema: &TableSchema) {
        for t in UiCreation::templates_for(schema) {
            self.templates.insert(t.name.clone(), t);
        }
    }

    /// Drop all templates of a table (called on `DROP TABLE`).
    pub fn drop_table(&mut self, table: &str) {
        let prefix = format!("{}:", table.to_ascii_lowercase());
        self.templates.retain(|name, _| !name.starts_with(&prefix));
    }

    /// Fetch a template by table and kind.
    pub fn get(&self, table: &str, kind: TemplateKind) -> Option<&UiTemplate> {
        self.templates.get(&UiCreation::template_name(
            &table.to_ascii_lowercase(),
            kind,
        ))
    }

    /// The Form Editor hook: apply `edit` to the named template.
    ///
    /// Application developers use this to customize worker instructions
    /// without regenerating the template.
    pub fn edit(
        &mut self,
        table: &str,
        kind: TemplateKind,
        edit: impl FnOnce(&mut UiTemplate),
    ) -> Result<()> {
        let name = UiCreation::template_name(&table.to_ascii_lowercase(), kind);
        let t = self.templates.get_mut(&name).ok_or_else(|| {
            CrowdError::Ui(format!(
                "no template '{name}' — is the table crowd-related?"
            ))
        })?;
        edit(t);
        Ok(())
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
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
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap()
    }

    fn attendee_schema() -> TableSchema {
        TableSchema::new(
            "notableattendee",
            vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("title", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["name"])
        .unwrap()
        .crowd()
    }

    #[test]
    fn register_and_get() {
        let mut m = UiTemplateManager::new();
        m.register_schema(&talk_schema());
        m.register_schema(&attendee_schema());
        assert_eq!(m.len(), 3); // talk:probe, attendee:probe+new
        assert!(m.get("talk", TemplateKind::Probe).is_some());
        assert!(m.get("TALK", TemplateKind::Probe).is_some());
        assert!(m.get("talk", TemplateKind::NewTuples).is_none());
        assert!(m.get("notableattendee", TemplateKind::NewTuples).is_some());
    }

    #[test]
    fn form_editor_edits_instructions() {
        let mut m = UiTemplateManager::new();
        m.register_schema(&talk_schema());
        m.edit("talk", TemplateKind::Probe, |t| {
            t.instructions = "Find the abstract on the conference website.".into();
        })
        .unwrap();
        assert_eq!(
            m.get("talk", TemplateKind::Probe).unwrap().instructions,
            "Find the abstract on the conference website."
        );
    }

    #[test]
    fn edit_unknown_template_errors() {
        let mut m = UiTemplateManager::new();
        let err = m.edit("ghost", TemplateKind::Probe, |_| {}).unwrap_err();
        assert_eq!(err.category(), "ui");
    }

    #[test]
    fn drop_table_removes_its_templates() {
        let mut m = UiTemplateManager::new();
        m.register_schema(&talk_schema());
        m.register_schema(&attendee_schema());
        m.drop_table("notableattendee");
        assert_eq!(m.len(), 1);
        assert!(m.get("talk", TemplateKind::Probe).is_some());
    }

    #[test]
    fn reregister_replaces_and_discards_edits() {
        let mut m = UiTemplateManager::new();
        m.register_schema(&talk_schema());
        m.edit("talk", TemplateKind::Probe, |t| {
            t.instructions = "custom".into();
        })
        .unwrap();
        m.register_schema(&talk_schema());
        assert_ne!(
            m.get("talk", TemplateKind::Probe).unwrap().instructions,
            "custom"
        );
    }
}
