//! Tracing from outside the engine: spans recorded by the benchmark
//! around its calls into each crate's public functions, a `Platform`
//! decorator that times the task manager's calls into the crowd platform,
//! and a stage-by-stage driver for local SELECTs.

use std::path::Path;
use std::time::{Duration, Instant};

use crowddb_common::{Result, Row};
use crowddb_core::CrowdDB;
use crowddb_exec::{execute_physical, lower_plan, CompareCaches, RunStats};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{analyze_boundedness, optimize, Binder, OptimizerConfig};
use crowddb_platform::{HitId, Platform, PlatformStats, TaskKind, TaskResponse, TaskSpec};
use crowddb_sql::{parse_statement, Statement};

use crate::json::Json;

/// One timed interval. `parent` is the statement span that caused it
/// (0 for statement spans themselves); spans of one statement share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u64,
    pub start: Instant,
    pub end: Instant,
}

/// In-memory span store; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_statement: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_statement: 0,
        }
    }
}

impl Tracer {
    pub fn clear(&mut self) {
        self.spans.clear();
        self.next_statement = 0;
    }

    /// A fresh statement id (ids start at 1).
    pub fn begin_statement(&mut self) -> u64 {
        self.next_statement += 1;
        self.next_statement
    }

    /// Times `f` as a child span of statement `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        (out, end - start)
    }

    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::harness::micros(s.end - s.start))
            .collect()
    }

    /// Spans as `[name index, parent, start ns, end ns]` rows beside a
    /// name table, plus the counts and the layer table derived from them.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        layers: &crate::harness::Layers,
    ) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let rows: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let index = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::Arr(vec![
                    Json::Num(index as f64),
                    Json::Num(s.parent as f64),
                    Json::Num((s.start - self.epoch).as_nanos() as f64),
                    Json::Num((s.end - self.epoch).as_nanos() as f64),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            (
                "span_columns",
                Json::Arr(
                    ["name", "parent", "start_ns", "end_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "layers",
                Json::Obj(
                    layers
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(rows)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.compact())
    }
}

/// Wall time of each stage of one local SELECT, driven through the
/// engine's public pipeline functions.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTimes {
    pub parse: Duration,
    pub bind: Duration,
    pub optimize: Duration,
    pub bounded: Duration,
    pub lower: Duration,
    pub execute: Duration,
}

pub struct Staged {
    pub times: StageTimes,
    pub rows: Vec<Row>,
    pub stats: RunStats,
    pub needs: usize,
}

/// Runs one SELECT stage by stage — `parse_statement`, `Binder::bind_query`,
/// `optimize`, `analyze_boundedness`, `lower_plan`, `execute_physical` —
/// against `db.storage()`, one span per stage under statement `id`. This
/// is `CrowdDB::execute`'s local path without admission, the statement
/// span events, the cache snapshot and the metrics flush; the difference
/// between the two is `core.overhead_us`.
pub fn staged_select(
    db: &CrowdDB,
    caches: &CompareCaches,
    sql: &str,
    tracer: &mut Tracer,
    id: u64,
) -> Result<Staged> {
    let storage = db.storage();
    let mut times = StageTimes::default();
    let (stmt, d) = tracer.span("sql.parse", id, || parse_statement(sql));
    times.parse = d;
    let Statement::Select(query) = stmt? else {
        return Err(crowddb_common::CrowdError::Internal(format!(
            "staged_select on a non-SELECT: {sql}"
        )));
    };
    let (bound, d) = tracer.span("plan.bind", id, || {
        storage.with_catalog(|c| Binder::new(c).bind_query(&query))
    });
    times.bind = d;
    let stats = FnStats(|table: &str| storage.stats(table).ok().map(|s| s.live_rows as u64));
    let bound = bound?;
    let (plan, d) = tracer.span("plan.optimize", id, || {
        optimize(bound, &stats, &OptimizerConfig::default())
    });
    times.optimize = d;
    let pk = |table: &str| -> Vec<usize> {
        storage
            .schema(table)
            .map(|s| s.primary_key)
            .unwrap_or_default()
    };
    let (report, d) = tracer.span("plan.bounded", id, || {
        analyze_boundedness(&plan, &stats, &pk)
    });
    times.bounded = d;
    std::hint::black_box(report);
    let (physical, d) = tracer.span("plan.lower", id, || lower_plan(storage, &plan));
    times.lower = d;
    let (result, d) = tracer.span("exec.execute", id, || {
        execute_physical(storage, caches, &physical)
    });
    times.execute = d;
    let (exec, _tree) = result?;
    Ok(Staged {
        times,
        needs: exec.needs.len(),
        stats: exec.stats,
        rows: exec.rows,
    })
}

/// How often, and for how long, the engine called into the platform.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlatformCalls {
    pub post: u64,
    pub advance: u64,
    pub collect: u64,
    pub extend: u64,
    pub busy: Duration,
}

impl PlatformCalls {
    pub fn absorb(&mut self, other: &PlatformCalls) {
        self.post += other.post;
        self.advance += other.advance;
        self.collect += other.collect;
        self.extend += other.extend;
        self.busy += other.busy;
    }
}

/// A `Platform` that forwards to `inner`, timing every call and keeping
/// the task kinds it was asked to post.
pub struct TimedPlatform<P: Platform> {
    inner: P,
    pub calls: PlatformCalls,
    /// `(name, start, end)` of post/advance/collect/extend calls since the
    /// last [`TimedPlatform::drain_spans`].
    spans: Vec<(&'static str, Instant, Instant)>,
    pub posted: Vec<TaskKind>,
}

impl<P: Platform> TimedPlatform<P> {
    pub fn new(inner: P) -> TimedPlatform<P> {
        TimedPlatform {
            inner,
            calls: PlatformCalls::default(),
            spans: Vec::new(),
            posted: Vec::new(),
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Hands the calls made since the last drain to `tracer` as children
    /// of statement `parent`.
    pub fn drain_spans(&mut self, tracer: &mut Tracer, parent: u64) {
        for (name, start, end) in self.spans.drain(..) {
            tracer.record(Span {
                name,
                parent,
                start,
                end,
            });
        }
    }

    fn timed<T>(&mut self, name: Option<&'static str>, f: impl FnOnce(&mut P) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        self.calls.busy += end - start;
        if let Some(name) = name {
            self.spans.push((name, start, end));
        }
        out
    }
}

impl<P: Platform> Platform for TimedPlatform<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
        self.calls.post += 1;
        self.posted.extend(tasks.iter().map(|t| t.kind.clone()));
        self.timed(Some("platform.post"), |p| p.post(tasks))
    }

    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
        self.calls.extend += 1;
        self.timed(Some("platform.extend"), |p| p.extend(hit, extra))
    }

    fn advance(&mut self, dt: f64) {
        self.calls.advance += 1;
        self.timed(Some("platform.advance"), |p| p.advance(dt))
    }

    fn collect(&mut self) -> Vec<TaskResponse> {
        self.calls.collect += 1;
        self.timed(Some("platform.collect"), |p| p.collect())
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn stats(&self) -> PlatformStats {
        self.inner.stats()
    }

    fn is_complete(&self, hit: HitId) -> bool {
        self.inner.is_complete(hit)
    }
}
