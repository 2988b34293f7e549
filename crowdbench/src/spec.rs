//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same tables; `tests::benchmark_json_matches` keeps the
//! two from drifting.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// end-to-end metrics to their bounds. The driver's time limit covers
    /// every run of every listed workload, and on this host a run has to
    /// last about half a minute to be steady, so four are listed; the other
    /// two run from the command line and in the all-workloads record, and
    /// their layers show in the traced pass of the listed workload they
    /// share a stream with.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "point_read",
        why: "tiny embedded SELECTs: parse, plan and per-statement engine overhead are a large fixed share, storage does one index probe; a plan cache must move this",
        gated: true,
    },
    WorkloadSpec {
        name: "scan_join",
        why: "scans, join, GROUP BY and top-10 over 20000 rows behind a 64-page pool smaller than the data: exec and storage do the work, front-end changes must not move it",
        gated: true,
    },
    WorkloadSpec {
        name: "write_durable",
        why: "single-row DML on a durable engine across two checkpoints, then crash and reopen: the write side of storage and the WAL, and the no-subscriber twin of standing_delta",
        gated: false,
    },
    WorkloadSpec {
        name: "standing_delta",
        why: "the write_durable DML stream with three standing queries, each DML timed until its delta batches are in hand: isolates recompute-and-diff in core::subscribe",
        gated: true,
    },
    WorkloadSpec {
        name: "crowd_cold",
        why: "40 crowd statements (probe, join, CROWDEQUAL, CROWDORDER) against the seeded AMT simulator, then again memorized: taskman, platform, quality and the crowd bill",
        gated: true,
    },
    WorkloadSpec {
        name: "server_closed",
        why: "the point_read stream over CDBP from two closed-loop client connections: frames, sessions, tenants and admission on top of an identical engine workload",
        gated: false,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "stmts_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts that must repeat exactly for a seed; `--compare` demands
    /// equality, not a bound.
    pub exact: bool,
    /// The end-to-end metric (and workload) this should move.
    pub moves: &'static str,
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        moves,
    }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = Better::Higher;
    m
}

pub const PER_LAYER: [PerLayer; 65] = [
    timing(
        "sql.parse_us",
        "us",
        "latency_p50_us on point_read, server_closed",
    ),
    timing(
        "sql.share",
        "share",
        "latency_p50_us on point_read; none on scan_join",
    ),
    timing("plan.bind_us", "us", "latency_p50_us on point_read"),
    timing("plan.optimize_us", "us", "latency_p50_us on point_read"),
    timing("plan.bounded_us", "us", "latency_p50_us on point_read"),
    timing("plan.lower_us", "us", "latency_p50_us on point_read"),
    timing(
        "plan.share",
        "share",
        "latency_p50_us on point_read; none on scan_join",
    ),
    timing("exec.execute_us", "us", "stmts_per_s on scan_join"),
    timing("exec.share", "share", "stmts_per_s on scan_join"),
    count(
        "exec.rows_examined_per_row_out",
        "ratio",
        "stmts_per_s on scan_join",
    ),
    count(
        "exec.rounds_per_stmt",
        "count",
        "platform.virtual_s_per_stmt on crowd_cold",
    ),
    higher(count(
        "exec.cache_hits_per_stmt",
        "count",
        "platform.hits_per_stmt on crowd_cold",
    )),
    count(
        "exec.index_probes_per_stmt",
        "count",
        "latency_p50_us on point_read, scan_join",
    ),
    higher(count(
        "storage.pool_hit_rate",
        "share",
        "latency_p50_us on scan_join",
    )),
    count(
        "storage.pages_read_per_stmt",
        "count",
        "latency_p50_us on scan_join",
    ),
    count(
        "storage.evictions_per_stmt",
        "count",
        "latency_p50_us on scan_join",
    ),
    timing(
        "storage.checkpoint_ms",
        "ms",
        "latency_p95_us, stmts_per_s on write_durable",
    ),
    count(
        "storage.pages_written_per_checkpoint",
        "count",
        "latency_p95_us, stmts_per_s on write_durable",
    ),
    count(
        "storage.disk_bytes_per_user_byte",
        "ratio",
        "space, beside read and write cost",
    ),
    count(
        "wal.appends_per_stmt",
        "count",
        "stmts_per_s on write_durable",
    ),
    count("wal.bytes_per_append", "B", "stmts_per_s on write_durable"),
    count(
        "wal.bytes_per_stmt",
        "B",
        "stmts_per_s on write_durable, standing_delta",
    ),
    count(
        "wal.fsyncs_per_stmt",
        "count",
        "latency_p95_us, stmts_per_s on write_durable",
    ),
    timing(
        "wal.fsync_us",
        "us",
        "latency_p95_us, stmts_per_s on write_durable",
    ),
    timing("wal.append_us", "us", "stmts_per_s on write_durable"),
    higher(timing(
        "wal.replay_records_per_s",
        "1/s",
        "wal.reopen_ms on write_durable",
    )),
    timing(
        "wal.reopen_ms",
        "ms",
        "restart time after a crash on write_durable",
    ),
    count(
        "platform.post_calls_per_stmt",
        "count",
        "latency_p50_us on crowd_cold",
    ),
    count(
        "platform.advance_calls_per_stmt",
        "count",
        "latency_p50_us on crowd_cold",
    ),
    count(
        "platform.collect_calls_per_stmt",
        "count",
        "latency_p50_us on crowd_cold",
    ),
    count(
        "platform.extend_calls_per_stmt",
        "count",
        "platform.cents_per_stmt on crowd_cold",
    ),
    timing(
        "platform.busy_us_per_stmt",
        "us",
        "latency_p50_us on crowd_cold",
    ),
    count(
        "platform.assignments_per_hit",
        "count",
        "platform.cents_per_stmt on crowd_cold",
    ),
    count(
        "platform.cents_per_stmt",
        "cents",
        "the crowd bill on crowd_cold (cold pass)",
    ),
    count(
        "platform.hits_per_stmt",
        "count",
        "the crowd bill on crowd_cold (cold pass)",
    ),
    count(
        "platform.virtual_s_per_stmt",
        "s",
        "human latency on crowd_cold (cold pass)",
    ),
    higher(count(
        "quality.accuracy",
        "share",
        "answers equal to ground truth on crowd_cold",
    )),
    count(
        "quality.votes_per_verdict",
        "count",
        "platform.cents_per_stmt on crowd_cold",
    ),
    count(
        "quality.unresolved_share",
        "share",
        "quality.accuracy on crowd_cold",
    ),
    count(
        "quality.em_iters_per_round",
        "count",
        "quality.accuracy on crowd_cold",
    ),
    timing("ui.render_us", "us", "latency_p50_us on crowd_cold"),
    timing("core.overhead_us", "us", "latency_p50_us on point_read"),
    timing(
        "core.front_end_share",
        "share",
        "latency_p50_us on point_read; < 0.05 on scan_join",
    ),
    timing("core.fulfill_self_us", "us", "latency_p50_us on crowd_cold"),
    count(
        "core.sub_evals_per_dml",
        "count",
        "latency_p50_us on standing_delta",
    ),
    count(
        "core.sub_delta_rows_per_eval",
        "count",
        "latency_p50_us on standing_delta",
    ),
    timing(
        "core.dml_p50_us",
        "us",
        "write_durable's latency_p50_us: the DML of standing_delta with no standing query",
    ),
    timing(
        "core.sub_eval_us",
        "us",
        "latency_p50_us on standing_delta; none on write_durable",
    ),
    higher(count(
        "core.memo_hit_share",
        "share",
        "must be 1 on crowd_cold: the warm pass posts nothing",
    )),
    timing(
        "core.warm_stmt_us",
        "us",
        "memorized crowd statements on crowd_cold",
    ),
    count(
        "obs.events_per_stmt",
        "count",
        "latency_p50_us on point_read",
    ),
    timing(
        "obs.metrics_snapshot_us",
        "us",
        "latency_p50_us on point_read",
    ),
    timing("obs.counter_inc_ns", "ns", "latency_p50_us on point_read"),
    timing(
        "server.roundtrip_p50_us",
        "us",
        "server_closed's latency_p50_us, in point_read's traced pass too",
    ),
    higher(timing(
        "server.stmts_per_s",
        "1/s",
        "server_closed's stmts_per_s, in point_read's traced pass too",
    )),
    timing(
        "server.wire_overhead_us",
        "us",
        "stmts_per_s on server_closed",
    ),
    timing(
        "server.encode_response_us",
        "us",
        "stmts_per_s on server_closed",
    ),
    timing(
        "server.decode_request_us",
        "us",
        "stmts_per_s on server_closed",
    ),
    count(
        "server.frame_bytes_per_response",
        "B",
        "stmts_per_s on server_closed",
    ),
    count(
        "server.overloaded_share",
        "share",
        "failed statements on server_closed",
    ),
    timing(
        "stmt.traced_p50_us",
        "us",
        "the statement wall time the shares divide",
    ),
    timing(
        "stmt.untraced_p50_us",
        "us",
        "latency_p50_us, measured in the traced process",
    ),
    timing(
        "stmt.untraced_p95_us",
        "us",
        "the tail of one pass; latency_p95_us could not hold a bound and is not gated",
    ),
    count("stmt.count", "count", "statements in one repetition"),
    timing(
        "trace_overhead",
        "ratio",
        "traced / untraced wall time; spans must stay cheap",
    ),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |item: &Json, key: &str| item.get(key).cloned().unwrap_or(Json::Null);

        let workloads = list("workloads");
        let gated: Vec<&WorkloadSpec> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(workloads.len(), gated.len());
        for (item, w) in workloads.iter().zip(gated) {
            assert_eq!(field(item, "name"), Json::str(w.name));
            assert_eq!(field(item, "why"), Json::str(w.why));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), Json::str(m.name));
            assert_eq!(field(item, "unit"), Json::str(m.unit));
            assert_eq!(field(item, "better"), Json::str(m.better.as_str()));
            assert_eq!(field(item, "bound"), Json::Num(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), Json::str(m.name));
            assert_eq!(field(item, "unit"), Json::str(m.unit));
            assert_eq!(field(item, "better"), Json::str(m.better.as_str()));
            assert_eq!(item.fields().len(), 3, "{}", m.name);
        }
    }
}
