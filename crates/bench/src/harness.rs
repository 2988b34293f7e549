//! Shared experiment-harness utilities: platform pumping, time series,
//! and table/JSON output.

use crowddb_platform::{HitId, Platform, TaskResponse};

/// A named series of `(x, y)` points — one line of a paper figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. `"$0.01"`).
    pub label: String,
    /// Points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }
}

/// A complete experiment output: metadata + table rows + optional series.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id from DESIGN.md (e.g. `"E1"`).
    pub id: String,
    /// What the paper artifact is.
    pub paper_artifact: String,
    /// Column headers of the printed table.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Figure series, if the artifact is a plot.
    pub series: Vec<Series>,
    /// Free-form notes (expected shape vs observed).
    pub notes: Vec<String>,
    /// Analyzed physical-operator tree lines (one entry per operator,
    /// from `crowddb_exec::render_analyzed`), when the experiment
    /// executes plans and wants per-operator accounting in the record.
    pub op_stats: Vec<String>,
}

impl ExperimentOutput {
    /// New output skeleton.
    pub fn new(id: &str, paper_artifact: &str) -> ExperimentOutput {
        ExperimentOutput {
            id: id.to_string(),
            paper_artifact: paper_artifact.to_string(),
            headers: Vec::new(),
            rows: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
            op_stats: Vec::new(),
        }
    }

    /// Print the experiment as a human-readable report plus a trailing
    /// JSON line (machine-readable).
    pub fn print(&self) {
        println!("==== {} — {} ====", self.id, self.paper_artifact);
        if !self.headers.is_empty() {
            let widths: Vec<usize> = self
                .headers
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    self.rows
                        .iter()
                        .map(|r| r.get(i).map(String::len).unwrap_or(0))
                        .chain(std::iter::once(h.len()))
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            let line = |cells: &[String]| {
                let mut s = String::from("|");
                for (i, c) in cells.iter().enumerate() {
                    s.push_str(&format!(
                        " {:<w$} |",
                        c,
                        w = widths.get(i).copied().unwrap_or(c.len())
                    ));
                }
                s
            };
            println!("{}", line(&self.headers));
            println!(
                "|{}|",
                widths
                    .iter()
                    .map(|w| "-".repeat(w + 2))
                    .collect::<Vec<_>>()
                    .join("|")
            );
            for r in &self.rows {
                println!("{}", line(r));
            }
        }
        for s in &self.series {
            println!("series '{}':", s.label);
            for (x, y) in &s.points {
                println!("  {x:>10.2}  {y:>10.4}");
            }
        }
        if !self.op_stats.is_empty() {
            println!("per-operator stats:");
            for l in &self.op_stats {
                println!("  {l}");
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        println!("JSON: {}", self.to_json());
    }

    /// The record as JSON: the bytes `BENCH_4.json` is checked in as
    /// (two-space indent, one table row per line), so they depend on
    /// nothing but this function. `series` is written only when there
    /// is one.
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut q = String::with_capacity(s.len() + 2);
            q.push('"');
            for c in s.chars() {
                match c {
                    '"' => q.push_str("\\\""),
                    '\\' => q.push_str("\\\\"),
                    c if c < ' ' => q.push_str(&format!("\\u{:04x}", c as u32)),
                    c => q.push(c),
                }
            }
            q.push('"');
            q
        }
        fn arr(items: &[String]) -> String {
            let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("[{}]", quoted.join(", "))
        }
        fn lines(items: Vec<String>) -> String {
            format!("[\n{}\n  ]", items.join(",\n"))
        }
        let rows = lines(
            self.rows
                .iter()
                .map(|r| format!("    {}", arr(r)))
                .collect(),
        );
        let series = if self.series.is_empty() {
            String::new()
        } else {
            let each = self.series.iter().map(|s| {
                let points: Vec<String> = s
                    .points
                    .iter()
                    .map(|(x, y)| format!("[{x}, {y}]"))
                    .collect();
                format!(
                    "    {{\"label\": {}, \"points\": [{}]}}",
                    quote(&s.label),
                    points.join(", ")
                )
            });
            format!("  \"series\": {},\n", lines(each.collect()))
        };
        format!(
            "{{\n  \"id\": {},\n  \"paper_artifact\": {},\n  \"headers\": {},\n  \
             \"rows\": {},\n{}  \"notes\": {},\n  \"op_stats\": {}\n}}\n",
            quote(&self.id),
            quote(&self.paper_artifact),
            arr(&self.headers),
            rows,
            series,
            arr(&self.notes),
            arr(&self.op_stats),
        )
    }
}

/// Pump a platform until all `hits` are complete (or `max_secs` virtual
/// seconds elapse), sampling completion fraction every `sample_secs`.
/// Returns `(responses, completion_series)`.
pub fn pump_until_complete(
    platform: &mut dyn Platform,
    hits: &[HitId],
    step_secs: f64,
    max_secs: f64,
    sample_secs: f64,
) -> (Vec<TaskResponse>, Vec<(f64, f64)>) {
    let mut responses = Vec::new();
    let mut series = Vec::new();
    let mut next_sample = 0.0;
    let start = platform.now();
    loop {
        let elapsed = platform.now() - start;
        if elapsed >= next_sample {
            let done = hits.iter().filter(|h| platform.is_complete(**h)).count();
            series.push((elapsed, done as f64 / hits.len().max(1) as f64));
            next_sample += sample_secs;
        }
        if hits.iter().all(|h| platform.is_complete(*h)) || elapsed >= max_secs {
            responses.extend(platform.collect());
            let done = hits.iter().filter(|h| platform.is_complete(**h)).count();
            series.push((elapsed, done as f64 / hits.len().max(1) as f64));
            return (responses, series);
        }
        platform.advance(step_secs);
        responses.extend(platform.collect());
    }
}

/// Time (virtual seconds) at which the completion series first reaches
/// `fraction`, if it does.
pub fn time_to_fraction(series: &[(f64, f64)], fraction: f64) -> Option<f64> {
    series.iter().find(|(_, f)| *f >= fraction).map(|(t, _)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_platform::{Answer, MockPlatform, TaskKind, TaskSpec};

    #[test]
    fn pump_completes_mock_instantly() {
        let mut p = MockPlatform::unanimous(|_| Answer::Yes);
        let hits = p
            .post(vec![TaskSpec::new(TaskKind::Equal {
                left: "a".into(),
                right: "b".into(),
                instruction: "?".into(),
            })])
            .unwrap();
        let (responses, series) = pump_until_complete(&mut p, &hits, 1.0, 100.0, 1.0);
        assert_eq!(responses.len(), 3);
        assert_eq!(series.last().unwrap().1, 1.0);
    }

    #[test]
    fn time_to_fraction_finds_crossing() {
        let series = vec![(0.0, 0.0), (10.0, 0.4), (20.0, 0.9), (30.0, 1.0)];
        assert_eq!(time_to_fraction(&series, 0.5), Some(20.0));
        assert_eq!(time_to_fraction(&series, 1.0), Some(30.0));
        assert_eq!(time_to_fraction(&series, 1.1), None);
    }

    #[test]
    fn experiment_output_prints_without_panic() {
        let mut out = ExperimentOutput::new("E0", "smoke test");
        out.headers = vec!["a".into(), "b".into()];
        out.rows = vec![vec!["1".into(), "2".into()]];
        out.series.push(Series {
            label: "s".into(),
            points: vec![(0.0, 0.0), (1.0, 1.0)],
        });
        out.notes.push("shape holds".into());
        out.print();
    }

    #[test]
    fn to_json_is_the_checked_in_record_shape() {
        let mut out = ExperimentOutput::new("E0", "a \"quoted\" back\\slash");
        out.headers = vec!["a".into(), "b".into()];
        out.rows = vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]];
        out.notes
            .push("line one\nline two\ttabbed \u{1} — dash".into());
        let without_series = "{\n  \"id\": \"E0\",\n  \
             \"paper_artifact\": \"a \\\"quoted\\\" back\\\\slash\",\n  \
             \"headers\": [\"a\", \"b\"],\n  \
             \"rows\": [\n    [\"1\", \"2\"],\n    [\"3\", \"4\"]\n  ],\n  \
             \"notes\": [\"line one\\u000aline two\\u0009tabbed \\u0001 — dash\"],\n  \
             \"op_stats\": []\n}\n";
        assert_eq!(out.to_json(), without_series);

        out.series.push(Series {
            label: "$0.01".into(),
            points: vec![(0.0, 0.25), (60.0, 1.0)],
        });
        out.series.push(Series::new("empty"));
        let with_series = without_series.replace(
            "  \"notes\"",
            "  \"series\": [\n    \
             {\"label\": \"$0.01\", \"points\": [[0, 0.25], [60, 1]]},\n    \
             {\"label\": \"empty\", \"points\": []}\n  ],\n  \"notes\"",
        );
        assert_eq!(out.to_json(), with_series);
    }
}
