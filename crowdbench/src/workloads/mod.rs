//! The six workloads and the helpers they share.

pub mod crowd;
pub mod durable;
pub mod point_read;
pub mod scan_join;
pub mod server;

use std::time::Instant;

use crowddb_common::Row;
use crowddb_core::{CrowdDB, QueryResult};
use crowddb_platform::{Answer, MockPlatform};

use crate::harness::{micros, Laps, Layers, Workload};
use crate::stats;
use crate::trace::{staged_select, Tracer};

/// The workload called `name`, with inputs generated from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "point_read" => Box::new(point_read::PointRead::new(seed)),
        "scan_join" => Box::new(scan_join::ScanJoin::new(seed)),
        "write_durable" => Box::new(durable::Durable::new(seed, false)),
        "standing_delta" => Box::new(durable::Durable::new(seed, true)),
        "crowd_cold" => Box::new(crowd::CrowdCold::new(seed)),
        "server_closed" => Box::new(server::ServerClosed::new(seed)),
        _ => return None,
    })
}

/// Runs set-up statements that must all succeed; each is one step of `laps`.
pub fn run_setup(
    db: &CrowdDB,
    statements: impl IntoIterator<Item = impl AsRef<str>>,
    laps: &mut Laps,
) -> Result<(), String> {
    for sql in statements {
        let sql = sql.as_ref();
        db.execute_local(sql)
            .map_err(|e| format!("set-up statement failed: {e}: {}", head(sql)))?;
        laps.lap();
    }
    Ok(())
}

/// A platform for statements that must never reach the crowd.
pub fn silent_platform() -> MockPlatform {
    MockPlatform::unanimous(|_| Answer::Blank)
}

pub fn head(sql: &str) -> &str {
    let end = sql.char_indices().nth(120).map_or(sql.len(), |(i, _)| i);
    &sql[..end]
}

/// Cells of `rows` as the engine renders them.
pub fn render_rows(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| r.values().iter().map(|v| v.to_string()).collect())
        .collect()
}

/// `Err` unless a local statement completed without touching the crowd.
pub fn require_local(r: &QueryResult, sql: &str) -> Result<(), String> {
    if r.complete && r.crowd.tasks_posted == 0 && r.crowd.cents_spent == 0 {
        Ok(())
    } else {
        Err(format!("statement was not answered locally: {}", head(sql)))
    }
}

pub fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// The p95 of one pass (0 with fewer than ten samples beyond it).
pub fn p95(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 95.0).unwrap_or(0.0)
}

/// Registry counter deltas and pager deltas around a block of statements.
pub struct Counters {
    metrics: crowddb_core::MetricsSnapshot,
    pager: crowddb_storage::PagerStats,
    events: u64,
}

impl Counters {
    pub fn read(db: &CrowdDB) -> Counters {
        let events = db.obs().events();
        Counters {
            metrics: db.metrics(),
            pager: db.storage().pager_stats(),
            events: events.len() as u64 + events.dropped(),
        }
    }

    pub fn counter_since(&self, earlier: &Counters, name: &str) -> f64 {
        (self.metrics.counter(name) - earlier.metrics.counter(name)) as f64
    }

    pub fn pager_since(&self, earlier: &Counters) -> crowddb_storage::PagerStats {
        self.pager.diff(&earlier.pager)
    }

    pub fn events_since(&self, earlier: &Counters) -> f64 {
        (self.events - earlier.events) as f64
    }
}

/// Cost of the observability primitives every statement pays.
pub fn obs_layers(db: &CrowdDB, layers: &mut Layers) {
    let snapshots: Vec<f64> = (0..21)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(db.metrics());
            micros(t0.elapsed())
        })
        .collect();
    layers.insert("obs.metrics_snapshot_us", p50(&snapshots));
    // A registry of its own: the engine's counters stay untouched.
    let obs = crowddb_obs::Obs::new();
    const INCS: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..INCS {
        obs.registry().counter_inc("crowdbench_probe_total");
    }
    layers.insert(
        "obs.counter_inc_ns",
        t0.elapsed().as_nanos() as f64 / f64::from(INCS),
    );
    assert_eq!(
        obs.snapshot().counter("crowdbench_probe_total"),
        u64::from(INCS)
    );
}

/// Approves the rows statement `i` of a stream returned, or says why not.
pub type RowCheck<'a> = &'a dyn Fn(usize, &[Row]) -> Result<(), String>;

/// The traced pass over a stream of local SELECTs: the stream once through
/// `CrowdDB::execute` (untraced, the end-to-end path), once stage by stage
/// with spans, and once more through `execute` — the staged pass sits
/// between two whole passes so that a machine drifting faster or slower
/// cancels out of their difference. Every pass must return `check`-approved
/// rows. Fills the sql/plan/exec/storage/core/obs rows of the layer table.
pub fn trace_local_selects(
    db: &CrowdDB,
    sqls: &[String],
    check: RowCheck<'_>,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let mut layers = Layers::new();
    let caches = db.with_caches(|c| c.clone());
    let whole_pass = || -> Result<Vec<f64>, String> {
        let mut platform = silent_platform();
        let mut us = Vec::with_capacity(sqls.len());
        for (i, sql) in sqls.iter().enumerate() {
            let t0 = Instant::now();
            let r = db.execute(sql, &mut platform);
            us.push(micros(t0.elapsed()));
            let r = r.map_err(|e| format!("{e}: {}", head(sql)))?;
            require_local(&r, sql)?;
            check(i, &r.rows)?;
        }
        Ok(us)
    };

    let before = Counters::read(db);
    let first_us = whole_pass()?;
    let after = Counters::read(db);

    let mut staged_us = Vec::with_capacity(sqls.len());
    let (mut scanned, mut returned, mut probes) = (0u64, 0u64, 0u64);
    let mut stages: [Vec<f64>; 6] = Default::default();
    for (i, sql) in sqls.iter().enumerate() {
        let id = tracer.begin_statement();
        let t0 = Instant::now();
        let staged = staged_select(db, &caches, sql, tracer, id)
            .map_err(|e| format!("{e}: {}", head(sql)))?;
        let t1 = Instant::now();
        tracer.record(crate::trace::Span {
            name: "statement",
            parent: 0,
            start: t0,
            end: t1,
        });
        staged_us.push(micros(t1 - t0));
        if staged.needs != 0 {
            return Err(format!("staged statement wanted the crowd: {}", head(sql)));
        }
        check(i, &staged.rows)?;
        scanned += staged.stats.rows_scanned;
        returned += staged.rows.len() as u64;
        probes += staged.stats.index_lookups + staged.stats.index_probes;
        let t = staged.times;
        for (slot, d) in stages
            .iter_mut()
            .zip([t.parse, t.bind, t.optimize, t.bounded, t.lower, t.execute])
        {
            slot.push(micros(d));
        }
    }
    let second_us = whole_pass()?;

    let n = sqls.len() as f64;
    let whole_us: Vec<f64> = first_us
        .iter()
        .zip(&second_us)
        .map(|(a, b)| (a + b) / 2.0)
        .collect();
    // What `execute()` costs beyond its stages, statement by statement. A
    // negative median is noise around nothing.
    let overhead: Vec<f64> = whole_us
        .iter()
        .zip(&staged_us)
        .map(|(w, s)| w - s)
        .collect();
    let overhead = p50(&overhead).max(0.0);
    // Shares divide total time (a stream may mix cheap and dear
    // statements): the staged pass plus the overhead it leaves out. The
    // `_us` rows are medians per statement.
    let [parse_sum, bind_sum, optimize_sum, bounded_sum, lower_sum, execute_sum] =
        [0, 1, 2, 3, 4, 5].map(|i| stages[i].iter().sum::<f64>());
    let plan_sum = bind_sum + optimize_sum + bounded_sum + lower_sum;
    let staged_sum: f64 = staged_us.iter().sum();
    let total = staged_sum + overhead * n;
    let [parse, bind, optimize, bounded, lower, execute] = stages.map(|s| p50(&s));
    layers.insert("sql.parse_us", parse);
    layers.insert("plan.bind_us", bind);
    layers.insert("plan.optimize_us", optimize);
    layers.insert("plan.bounded_us", bounded);
    layers.insert("plan.lower_us", lower);
    layers.insert("exec.execute_us", execute);
    layers.insert("core.overhead_us", overhead);
    layers.insert("sql.share", parse_sum / total);
    layers.insert("plan.share", plan_sum / total);
    layers.insert("exec.share", execute_sum / total);
    layers.insert(
        "core.front_end_share",
        (parse_sum + plan_sum + overhead * n) / total,
    );
    layers.insert(
        "exec.rows_examined_per_row_out",
        scanned as f64 / returned.max(1) as f64,
    );
    layers.insert(
        "exec.rounds_per_stmt",
        after.counter_since(&before, "crowddb_statement_rounds_total") / n,
    );
    layers.insert(
        "exec.cache_hits_per_stmt",
        after.counter_since(&before, "crowddb_exec_cache_hits_total") / n,
    );
    layers.insert("exec.index_probes_per_stmt", probes as f64 / n);
    let pager = after.pager_since(&before);
    let requests = pager.pool_hits + pager.pool_misses;
    layers.insert(
        "storage.pool_hit_rate",
        if requests == 0 {
            1.0
        } else {
            pager.pool_hits as f64 / requests as f64
        },
    );
    layers.insert("storage.pages_read_per_stmt", pager.pages_read as f64 / n);
    layers.insert("storage.evictions_per_stmt", pager.evictions as f64 / n);
    layers.insert("obs.events_per_stmt", after.events_since(&before) / n);
    layers.insert("stmt.untraced_p50_us", p50(&whole_us));
    layers.insert("stmt.untraced_p95_us", p95(&whole_us));
    layers.insert("stmt.traced_p50_us", p50(&staged_us));
    layers.insert("stmt.count", n);
    layers.insert("trace_overhead", staged_sum / whole_us.iter().sum::<f64>());
    obs_layers(db, &mut layers);
    Ok(layers)
}
