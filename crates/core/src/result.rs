//! Query results returned to the application.

use crowddb_common::{Row, Value};

/// Crowd-side accounting for one statement: its one ledger. The driver
/// adds every fulfillment wave into it as the wave settles — what the
/// platform counted around the wave (HITs, assignments, cents, virtual
/// time) and what only the task manager saw (the rest) — and the same
/// addition feeds the `crowddb_crowd_*` counters; the result, the
/// `statement_end` event, the statement histograms and the slow log all
/// read it, whether the statement returned `Ok` or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CrowdSummary {
    /// Execution rounds used (1 = answered from local data alone).
    pub rounds: usize,
    /// HITs posted across all rounds, reposts included.
    pub tasks_posted: u64,
    /// Assignments completed on the platform.
    pub answers_collected: u64,
    /// Rewards paid, cents.
    pub cents_spent: u64,
    /// Virtual platform time consumed, seconds.
    pub virtual_secs: f64,
    /// Post attempts retried after transient platform failures.
    pub retries: u64,
    /// Abandoned HITs reposted after missing their deadline.
    pub reposts: u64,
    /// Duplicate `(worker, HIT)` deliveries dropped by the task manager —
    /// AMT promises at most one assignment per worker per HIT, so a
    /// second delivery is noise and must not count as a vote.
    pub duplicates_dropped: u64,
    /// Failed platform `post()` calls absorbed (before and after retries).
    pub post_failures: u64,
    /// Failed platform `extend()` calls absorbed (each one downgraded an
    /// escalation to a plurality decision).
    pub extend_failures: u64,
    /// Task needs that settled without a strict majority (plurality
    /// fallback, default, repost exhaustion, or abandonment).
    pub gave_up: u64,
    /// The platform was marked degraded (circuit breaker) at least once
    /// while answering this statement.
    pub degraded: bool,
}

/// Add one wave into a ledger, field by field.
impl std::ops::AddAssign for CrowdSummary {
    fn add_assign(&mut self, wave: CrowdSummary) {
        self.rounds += wave.rounds;
        self.tasks_posted += wave.tasks_posted;
        self.answers_collected += wave.answers_collected;
        self.cents_spent += wave.cents_spent;
        self.virtual_secs += wave.virtual_secs;
        self.retries += wave.retries;
        self.reposts += wave.reposts;
        self.duplicates_dropped += wave.duplicates_dropped;
        self.post_failures += wave.post_failures;
        self.extend_failures += wave.extend_failures;
        self.gave_up += wave.gave_up;
        self.degraded |= wave.degraded;
    }
}

/// The result of one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub affected: usize,
    /// Crowd accounting.
    pub crowd: CrowdSummary,
    /// Non-fatal notes: partial results, unresolved votes, boundedness
    /// notes, etc.
    pub warnings: Vec<String>,
    /// Whether the result is final (no crowd work outstanding).
    pub complete: bool,
}

impl QueryResult {
    /// A completed DDL acknowledgement.
    pub fn ddl() -> QueryResult {
        QueryResult {
            complete: true,
            ..Default::default()
        }
    }

    /// Everything a front end prints for this result: the table (or the
    /// DML acknowledgement), the crowd-accounting line when HITs were
    /// posted — marked `[partial]` while crowd work is outstanding — and
    /// one `note:` line per warning. The shell (embedded and
    /// `\connect`ed) and `crowddb-client` all print through this, so a
    /// statement reads the same wherever it ran.
    pub fn render(&self) -> String {
        let mut out = self.to_table();
        if self.crowd.tasks_posted > 0 {
            out.push_str(&format!(
                "\ncrowd: {} task(s), {} answer(s), {}¢, {:.1} virtual min, {} round(s){}",
                self.crowd.tasks_posted,
                self.crowd.answers_collected,
                self.crowd.cents_spent,
                self.crowd.virtual_secs / 60.0,
                self.crowd.rounds,
                if self.complete { "" } else { " [partial]" },
            ));
        }
        for w in &self.warnings {
            out.push_str(&format!("\nnote: {w}"));
        }
        out
    }

    /// Format the rows as an aligned text table (for examples and the
    /// demo).
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() && self.rows.is_empty() {
            return format!("OK ({} row(s) affected)", self.affected);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| match v {
                        Value::Null => "NULL".to_string(),
                        Value::CNull => "CNULL".to_string(),
                        other => other.to_string(),
                    })
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let sep = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep(&widths));
        out.push('\n');
        if !self.columns.is_empty() {
            out.push('|');
            for (i, c) in self.columns.iter().enumerate() {
                out.push_str(&format!(" {:<width$} |", c, width = widths[i]));
            }
            out.push('\n');
            out.push_str(&sep(&widths));
            out.push('\n');
        }
        for row in &rendered {
            out.push('|');
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::row;

    #[test]
    fn ddl_result() {
        let r = QueryResult::ddl();
        assert!(r.complete);
        assert!(r.rows.is_empty());
    }

    #[test]
    fn table_formatting() {
        let r = QueryResult {
            columns: vec!["title".into(), "n".into()],
            rows: vec![row!["CrowdDB", Value::CNull], row!["Qurk", 80i64]],
            affected: 0,
            crowd: CrowdSummary::default(),
            warnings: vec![],
            complete: true,
        };
        let t = r.to_table();
        assert!(t.contains("| title   | n     |"), "{t}");
        assert!(t.contains("| CrowdDB | CNULL |"), "{t}");
        assert!(t.contains("| Qurk    | 80    |"), "{t}");
    }

    #[test]
    fn render_adds_crowd_line_and_notes() {
        let mut r = QueryResult {
            affected: 1,
            complete: true,
            ..Default::default()
        };
        assert_eq!(r.render(), r.to_table(), "no crowd work, no warnings");
        r.crowd = CrowdSummary {
            rounds: 2,
            tasks_posted: 3,
            answers_collected: 9,
            cents_spent: 9,
            virtual_secs: 90.0,
            ..Default::default()
        };
        r.warnings = vec!["accepted plurality answer".into()];
        r.complete = false;
        assert_eq!(
            r.render(),
            "OK (1 row(s) affected)\n\
             crowd: 3 task(s), 9 answer(s), 9¢, 1.5 virtual min, 2 round(s) [partial]\n\
             note: accepted plurality answer"
        );
    }

    #[test]
    fn dml_formatting() {
        let r = QueryResult {
            affected: 3,
            complete: true,
            ..Default::default()
        };
        assert_eq!(r.to_table(), "OK (3 row(s) affected)");
    }
}
