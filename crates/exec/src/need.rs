//! Task needs: what a query run wants from the crowd.
//!
//! Needs are produced during execution and deduplicated by a canonical
//! key (the same missing value referenced twice in one round yields one
//! task). The driver converts needs into platform `TaskSpec`s.

use crowddb_common::{DataType, TupleId, Value};

use crate::context::{push_key_part, push_pair};

/// One unit of crowd work a query run discovered it needs.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskNeed {
    /// CrowdProbe, missing-value flavor: fill `columns` of the tuple
    /// `tid` of `table`; `context` carries known fields for the form.
    ProbeValues {
        /// Base table.
        table: String,
        /// Tuple to fill (write-back target).
        tid: TupleId,
        /// `(column name, rendered value)` context shown to workers.
        context: Vec<(String, String)>,
        /// `(ordinal, name, type)` of each missing CROWD column to ask.
        columns: Vec<(usize, String, DataType)>,
    },
    /// CrowdProbe/CrowdJoin, new-tuple flavor: contribute up to `want`
    /// new tuples of CROWD table `table`, with `preset` columns fixed
    /// (e.g. the join key).
    NewTuples {
        /// Target CROWD table.
        table: String,
        /// `(column name, value)` pairs fixed by the query.
        preset: Vec<(String, Value)>,
        /// How many tuples the plan still wants.
        want: u64,
    },
    /// CrowdCompare, equality flavor (`CROWDEQUAL`).
    Equal {
        /// Left value (rendered for the worker; also the cache key).
        left: String,
        /// Right value.
        right: String,
        /// Question text.
        instruction: String,
    },
    /// CrowdCompare, ordering flavor (`CROWDORDER`).
    Order {
        /// Left item.
        left: String,
        /// Right item.
        right: String,
        /// Question text.
        instruction: String,
    },
}

impl TaskNeed {
    /// Canonical deduplication key. Two needs with the same key are the
    /// same unit of crowd work; a comparison's instruction ends at the
    /// first `:` not escaped by U+0002, and its operands are escaped as
    /// in `CompareCaches::pair_key`, so two comparisons never share one.
    pub fn dedup_key(&self) -> String {
        match self {
            TaskNeed::ProbeValues {
                table,
                tid,
                columns,
                ..
            } => {
                let cols: Vec<&str> = columns.iter().map(|(_, n, _)| n.as_str()).collect();
                format!("probe:{table}:{tid}:{}", cols.join(","))
            }
            TaskNeed::NewTuples { table, preset, .. } => {
                let kv: Vec<String> = preset
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.sql_literal()))
                    .collect();
                format!("new:{table}:{}", kv.join(","))
            }
            TaskNeed::Equal {
                left,
                right,
                instruction,
            }
            | TaskNeed::Order {
                left,
                right,
                instruction,
            } => {
                // One task decides both (a, b) and (b, a): canonicalize
                // the operand order.
                let tag = if matches!(self, TaskNeed::Equal { .. }) {
                    "eq"
                } else {
                    "ord"
                };
                let mut key = format!("{tag}:");
                push_key_part(&mut key, instruction, ':');
                key.push(':');
                push_pair(&mut key, left, right);
                key
            }
        }
    }

    /// Short description for logs.
    pub fn describe(&self) -> String {
        match self {
            TaskNeed::ProbeValues {
                table,
                tid,
                columns,
                ..
            } => {
                format!("probe {table}/{tid} ({} cols)", columns.len())
            }
            TaskNeed::NewTuples { table, want, .. } => {
                format!("new tuples for {table} (want {want})")
            }
            TaskNeed::Equal { left, right, .. } => format!("equal? '{left}' ~ '{right}'"),
            TaskNeed::Order { left, right, .. } => format!("order? '{left}' vs '{right}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_dedup_is_symmetric() {
        let a = TaskNeed::Equal {
            left: "IBM".into(),
            right: "I.B.M.".into(),
            instruction: "same?".into(),
        };
        let b = TaskNeed::Equal {
            left: "I.B.M.".into(),
            right: "IBM".into(),
            instruction: "same?".into(),
        };
        assert_eq!(a.dedup_key(), b.dedup_key());
        let c = TaskNeed::Equal {
            left: "IBM".into(),
            right: "I.B.M.".into(),
            instruction: "different question".into(),
        };
        assert_ne!(a.dedup_key(), c.dedup_key());
    }

    #[test]
    fn an_instruction_with_a_colon_keeps_its_own_key() {
        let eq = |instruction: &str, left: &str, right: &str| TaskNeed::Equal {
            left: left.into(),
            right: right.into(),
            instruction: instruction.into(),
        };
        // Unescaped, both would read "eq:x:y:a\u{1}z".
        assert_ne!(
            eq("x:y", "a", "z").dedup_key(),
            eq("x", "y:a", "z").dedup_key()
        );
        assert_ne!(
            eq("x\u{2}", "a", "z").dedup_key(),
            eq("x", "\u{2}:a", "z").dedup_key()
        );
        // An instruction holding neither character keeps the plain key.
        assert_eq!(eq("same?", "b", "a").dedup_key(), "eq:same?:a\u{1}b");
        let order = TaskNeed::Order {
            left: "a".into(),
            right: "b".into(),
            instruction: "x:y".into(),
        };
        assert_eq!(order.dedup_key(), "ord:x\u{2}:y:a\u{1}b");
    }

    #[test]
    fn probe_dedup_by_tuple_and_columns() {
        let mk = |tid: u64, cols: Vec<&str>| TaskNeed::ProbeValues {
            table: "talk".into(),
            tid: TupleId(tid),
            context: vec![],
            columns: cols
                .into_iter()
                .enumerate()
                .map(|(i, c)| (i, c.to_string(), DataType::Str))
                .collect(),
        };
        assert_eq!(mk(1, vec!["a"]).dedup_key(), mk(1, vec!["a"]).dedup_key());
        assert_ne!(mk(1, vec!["a"]).dedup_key(), mk(2, vec!["a"]).dedup_key());
        assert_ne!(
            mk(1, vec!["a"]).dedup_key(),
            mk(1, vec!["a", "b"]).dedup_key()
        );
    }

    #[test]
    fn new_tuples_dedup_by_preset() {
        let mk = |title: &str| TaskNeed::NewTuples {
            table: "notableattendee".into(),
            preset: vec![("title".into(), Value::str(title))],
            want: 5,
        };
        assert_eq!(mk("CrowdDB").dedup_key(), mk("CrowdDB").dedup_key());
        assert_ne!(mk("CrowdDB").dedup_key(), mk("Qurk").dedup_key());
    }

    #[test]
    fn describe_is_informative() {
        let n = TaskNeed::Order {
            left: "A".into(),
            right: "B".into(),
            instruction: "pick".into(),
        };
        assert!(n.describe().contains("'A' vs 'B'"));
    }
}
