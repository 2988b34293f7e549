//! E1 — Responsiveness vs reward (SIGMOD 2011 Fig. "micro benchmarks:
//! varying reward").
//!
//! The paper posted groups of identical HITs at rewards from $0.01 to
//! $0.04 and plotted the percentage of HITs completed over time: higher
//! rewards complete faster, with diminishing returns. This harness posts
//! 100 single-assignment probe HITs per reward level on a fresh simulated
//! marketplace and reports the same curves.

#![forbid(unsafe_code)]

use crowddb_bench::harness::{pump_until_complete, time_to_fraction, ExperimentOutput, Series};
use crowddb_common::DataType;
use crowddb_platform::{PerfectModel, Platform, SimPlatform, TaskKind, TaskSpec};

fn probe_spec(i: usize, reward: u32) -> TaskSpec {
    TaskSpec::new(TaskKind::Probe {
        table: "talk".into(),
        known: vec![("title".into(), format!("talk-{i:03}"))],
        asked: vec![("nb_attendees".into(), DataType::Int)],
        instructions: "How many people attended this talk?".into(),
    })
    .reward(reward)
    .replicate(1)
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E1",
        "completion vs reward (paper: higher pay completes faster, diminishing returns)",
    );
    out.headers = vec![
        "reward (cents)".into(),
        "t 50% (min)".into(),
        "t 95% (min)".into(),
        "t 100% (min)".into(),
        "assignments".into(),
        "cost (cents)".into(),
    ];

    const HITS: usize = 100;
    const MAX_SECS: f64 = 72.0 * 3600.0;
    for reward in [1u32, 2, 3, 4, 8] {
        // Fresh marketplace per reward level (same seed: identical worker
        // population, so the reward is the only variable).
        let mut platform = SimPlatform::amt(1234, Box::new(PerfectModel));
        let specs: Vec<TaskSpec> = (0..HITS).map(|i| probe_spec(i, reward)).collect();
        let hits = platform.post(specs).expect("post");
        let (_responses, series) =
            pump_until_complete(&mut platform, &hits, 120.0, MAX_SECS, 600.0);
        let minutes = |t: Option<f64>| {
            t.map(|s| format!("{:.0}", s / 60.0))
                .unwrap_or_else(|| ">budget".into())
        };
        let stats = platform.stats();
        out.rows.push(vec![
            reward.to_string(),
            minutes(time_to_fraction(&series, 0.5)),
            minutes(time_to_fraction(&series, 0.95)),
            minutes(time_to_fraction(&series, 1.0)),
            stats.assignments_completed.to_string(),
            stats.cents_spent.to_string(),
        ]);
        out.series.push(Series {
            label: format!("{reward}c"),
            points: series
                .into_iter()
                .map(|(t, f)| (t / 60.0, f * 100.0))
                .collect(),
        });
    }
    out.notes.push(
        "expected shape: time-to-completion decreases monotonically with reward; \
         1c HITs are accepted reluctantly (reservation wages), ≥4c saturates"
            .into(),
    );
    out.print();
}
