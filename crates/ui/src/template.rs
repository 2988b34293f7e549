//! Task user-interface templates.
//!
//! A template is created once per (table, task shape) at schema-definition
//! time and instantiated with concrete tuple values at run time. Templates
//! carry editable instructions (the Form Editor's hook) and a field list
//! that drives both HTML generation and answer parsing.

use std::collections::HashMap;

use crowddb_common::DataType;

use crate::html;

/// One form field of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Column name.
    pub name: String,
    /// Column type (drives answer parsing).
    pub data_type: DataType,
    /// Whether the field is shown read-only (known value) or asked.
    pub asked: bool,
    /// Placeholder/hint text for asked fields.
    pub hint: String,
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
    /// Page title shown to workers.
    pub title: String,
    /// Instructions paragraph (editable by the Form Editor).
    pub instructions: String,
    /// All fields, in schema order.
    pub fields: Vec<FieldSpec>,
}

impl UiTemplate {
    /// Instantiate the template for a concrete tuple.
    ///
    /// `known` maps column names to rendered values; fields present in
    /// `known` are shown read-only, fields in `asked` become inputs.
    /// Fields neither known nor asked are omitted — the paper's example
    /// shows only the fields relevant to the query.
    pub fn instantiate(
        &self,
        known: &HashMap<String, String>,
        asked: &[String],
        mobile: bool,
    ) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "<p class=\"table-name\">Table: <b>{}</b></p>",
            html::escape(&self.table)
        ));
        for f in &self.fields {
            if let Some(v) = known.get(&f.name) {
                body.push_str(&html::readonly_field(&f.name, v));
            } else if asked.iter().any(|a| a == &f.name) {
                body.push_str(&html::input_field(&f.name, &f.hint));
            }
        }
        html::page(&self.title, &self.instructions, &body, mobile)
    }

    /// Parse a submitted form (field → raw text) according to the field
    /// specs, discarding unknown fields. Returns `(field, text)` pairs in
    /// schema order.
    pub fn parse_submission(&self, form: &HashMap<String, String>) -> Vec<(String, String)> {
        self.fields
            .iter()
            .filter_map(|f| form.get(&f.name).map(|v| (f.name.clone(), v.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn talk_template() -> UiTemplate {
        UiTemplate {
            name: "talk:probe".into(),
            table: "talk".into(),
            kind: TemplateKind::Probe,
            title: "Please fill out missing fields of the following Table".into(),
            instructions: "Enter the missing information for the Talk.".into(),
            fields: vec![
                FieldSpec {
                    name: "title".into(),
                    data_type: DataType::Str,
                    asked: false,
                    hint: String::new(),
                },
                FieldSpec {
                    name: "abstract".into(),
                    data_type: DataType::Str,
                    asked: true,
                    hint: "the talk's abstract".into(),
                },
                FieldSpec {
                    name: "nb_attendees".into(),
                    data_type: DataType::Int,
                    asked: true,
                    hint: "number of attendees".into(),
                },
            ],
        }
    }

    #[test]
    fn instantiation_mirrors_paper_figure_2() {
        // The paper's example: crowdsourcing the missing abstract of the
        // "CrowdDB" talk — title is copied in read-only, abstract becomes
        // an input.
        let t = talk_template();
        let known = HashMap::from([("title".to_string(), "CrowdDB".to_string())]);
        let page = t.instantiate(&known, &["abstract".to_string()], false);
        assert!(page.contains("value=\"CrowdDB\""), "{page}");
        assert!(page.contains("readonly"));
        assert!(page.contains("name=\"abstract\""));
        // nb_attendees is neither known nor asked by this query: omitted.
        assert!(!page.contains("nb_attendees"));
        assert!(page.contains("Table: <b>talk</b>"));
    }

    #[test]
    fn mobile_instantiation_differs() {
        let t = talk_template();
        let known = HashMap::from([("title".to_string(), "CrowdDB".to_string())]);
        let desktop = t.instantiate(&known, &["abstract".to_string()], false);
        let mobile = t.instantiate(&known, &["abstract".to_string()], true);
        assert!(mobile.contains("viewport"));
        assert!(!desktop.contains("viewport"));
        assert!(mobile.contains("class=\"crowddb mobile\""));
    }

    #[test]
    fn values_are_escaped() {
        let t = talk_template();
        let known = HashMap::from([("title".to_string(), "<script>x</script>".to_string())]);
        let page = t.instantiate(&known, &[], false);
        assert!(!page.contains("<script>x</script>"));
        assert!(page.contains("&lt;script&gt;"));
    }

    #[test]
    fn parse_submission_orders_and_filters() {
        let t = talk_template();
        let form = HashMap::from([
            ("nb_attendees".to_string(), "120".to_string()),
            ("abstract".to_string(), "An abstract".to_string()),
            ("bogus".to_string(), "ignored".to_string()),
        ]);
        let parsed = t.parse_submission(&form);
        assert_eq!(
            parsed,
            vec![
                ("abstract".to_string(), "An abstract".to_string()),
                ("nb_attendees".to_string(), "120".to_string()),
            ]
        );
    }
}
