//! E3 — The worker community (SIGMOD 2011: "a small number of workers
//! did most of the work").
//!
//! The paper analyzed who actually answered its HITs and found a heavily
//! skewed community: the top handful of workers completed a large share
//! of all assignments, and the same workers kept coming back across
//! experiments. This harness posts a large batch of tasks, routes every
//! completed assignment through the Worker Relationship Manager, and
//! reports the share-of-work distribution.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crowddb_bench::harness::{pump_until_complete, ExperimentOutput, Series};
use crowddb_common::DataType;
use crowddb_platform::{
    PerfectModel, Platform, SimPlatform, TaskKind, TaskSpec, WorkerId, WorkerRelationshipManager,
};

fn main() {
    let mut out = ExperimentOutput::new(
        "E3",
        "worker community skew (paper: top workers carry most assignments; \
         community persists across experiments)",
    );

    const HITS: usize = 400;
    let mut platform = SimPlatform::amt(2025, Box::new(PerfectModel));
    let specs: Vec<TaskSpec> = (0..HITS)
        .map(|i| {
            TaskSpec::new(TaskKind::Probe {
                table: "talk".into(),
                known: vec![("title".into(), format!("t{i}"))],
                asked: vec![("nb_attendees".into(), DataType::Int)],
                instructions: String::new(),
            })
            .reward(2)
            .replicate(1)
        })
        .collect();
    let hits = platform.post(specs).expect("post");
    let (responses, _series) =
        pump_until_complete(&mut platform, &hits, 300.0, 60.0 * 24.0 * 3600.0, 3600.0);

    // Feed the WRM exactly as the task manager would.
    let mut wrm = WorkerRelationshipManager::new();
    let mut per_worker: HashMap<WorkerId, usize> = HashMap::new();
    for r in &responses {
        wrm.record_assignment(r.worker, 2, true);
        *per_worker.entry(r.worker).or_default() += 1;
    }

    out.headers = vec!["top-k workers".into(), "share of assignments".into()];
    for k in [1usize, 3, 5, 10, 25, 50] {
        out.rows.push(vec![
            k.to_string(),
            format!("{:.1}%", wrm.top_k_share(k) * 100.0),
        ]);
    }
    out.rows.push(vec![
        "community size".into(),
        wrm.community_size().to_string(),
    ]);

    // Rank-share curve (the paper's long-tail plot).
    let mut counts: Vec<usize> = per_worker.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = counts.iter().sum();
    let mut cum = 0.0;
    let mut curve = Series::new("cumulative share by worker rank");
    for (rank, c) in counts.iter().enumerate() {
        cum += *c as f64 / total.max(1) as f64;
        curve.points.push(((rank + 1) as f64, cum * 100.0));
        if rank >= 49 {
            break;
        }
    }
    out.series.push(curve);

    out.notes.push(format!(
        "{} assignments completed by {} distinct workers",
        responses.len(),
        wrm.community_size()
    ));
    out.notes.push(
        "expected shape: strongly concave cumulative curve (Zipf-like); the top-10 \
         workers carry a disproportionate share"
            .into(),
    );
    out.print();
}
