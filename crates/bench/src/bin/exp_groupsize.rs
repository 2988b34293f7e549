//! E2 — Responsiveness vs HIT-group size (SIGMOD 2011: "the number of
//! HITs of a HIT group matters").
//!
//! AMT lists identical HITs as one *group*; workers gravitate to large
//! groups (more work without re-qualification, higher list placement).
//! The paper observed that per-HIT completion is *faster* in larger
//! groups. The simulator reproduces the effect through its
//! `group_size^α` attention term; this harness measures it.

#![forbid(unsafe_code)]

use crowddb_bench::harness::{pump_until_complete, time_to_fraction, ExperimentOutput, Series};
use crowddb_common::DataType;
use crowddb_platform::{PerfectModel, Platform, SimPlatform, TaskKind, TaskSpec};

fn probe_spec(i: usize) -> TaskSpec {
    TaskSpec::new(TaskKind::Probe {
        table: "talk".into(),
        known: vec![("title".into(), format!("talk-{i:04}"))],
        asked: vec![("abstract".into(), DataType::Str)],
        instructions: String::new(),
    })
    .reward(2)
    .replicate(1)
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E2",
        "per-HIT completion time vs HIT-group size (paper: larger groups complete \
         faster per HIT)",
    );
    out.headers = vec![
        "group size".into(),
        "t 50% (min)".into(),
        "t 100% (min)".into(),
        "min/HIT".into(),
    ];

    const MAX_SECS: f64 = 14.0 * 24.0 * 3600.0;
    for group in [1usize, 5, 25, 100] {
        let mut platform = SimPlatform::amt(777, Box::new(PerfectModel));
        // Background competition: another requester's large HIT group is
        // always on the platform (as on real AMT), so worker attention to
        // our group depends on its size.
        let distractors: Vec<TaskSpec> = (0..200)
            .map(|i| {
                TaskSpec::new(TaskKind::Equal {
                    left: format!("x{i}"),
                    right: format!("y{i}"),
                    instruction: "background noise task".into(),
                })
                .reward(2)
                .replicate(1)
            })
            .collect();
        platform.post(distractors).expect("post background");
        let specs: Vec<TaskSpec> = (0..group).map(probe_spec).collect();
        let hits = platform.post(specs).expect("post");
        let (_r, series) = pump_until_complete(&mut platform, &hits, 120.0, MAX_SECS, 600.0);
        let t_all = time_to_fraction(&series, 1.0);
        let minutes = |t: Option<f64>| {
            t.map(|s| format!("{:.0}", s / 60.0))
                .unwrap_or_else(|| ">budget".into())
        };
        out.rows.push(vec![
            group.to_string(),
            minutes(time_to_fraction(&series, 0.5)),
            minutes(t_all),
            t_all
                .map(|s| format!("{:.1}", s / 60.0 / group as f64))
                .unwrap_or_else(|| "-".into()),
        ]);
        out.series.push(Series {
            label: format!("{group} HITs"),
            points: series
                .into_iter()
                .map(|(t, f)| (t / 60.0, f * 100.0))
                .collect(),
        });
    }
    out.notes.push(
        "expected shape: minutes-per-HIT drops sharply as group size grows; a \
         single lonely HIT waits longest for worker attention"
            .into(),
    );
    out.print();
}
