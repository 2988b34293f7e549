//! What every workload shares: the fixed engine configuration, scratch
//! directories inside the benchmark's own `out/`, repetition results and
//! the loop that turns repetitions into one run's metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crowddb_core::{CrowdConfig, FsyncPolicy};

use crate::stats::{self, Summary};

/// Where traces, records and scratch databases go: `crowdbench/out/`,
/// resolved at build time so the binary never writes outside the checkout
/// it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A uniquely named directory under `out/tmp`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch directory under crowdbench/out");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub const PAGE_SIZE: usize = 4096;

/// The one engine configuration every workload runs under, spelled out so
/// that no number depends on a library default or an environment variable:
/// `PagerConfig::default()` reads `CROWDDB_POOL_PAGES`, so storage is set
/// here and `pool_pages` by each workload.
pub fn engine_config(pool_pages: usize) -> CrowdConfig {
    let mut c = CrowdConfig::default();
    assert_eq!(c.vote.replication, 3, "3-way replication, majority vote");
    c.durability.fsync = FsyncPolicy::Batch(64);
    c.durability.checkpoint_every_records = 1024;
    c.durability.checkpoint_on_close = false;
    c.storage.page_size = PAGE_SIZE;
    c.storage.pool_pages = pool_pages;
    c
}

/// [`engine_config`] as written into every record, ahead of the
/// workload's own [`Workload::inputs`] (which state `pool_pages`).
pub fn config_record() -> Vec<(&'static str, String)> {
    let c = engine_config(0);
    vec![
        ("vote", format!("{:?}", c.vote)),
        ("quality", format!("{:?}", c.quality)),
        ("fsync", format!("{:?}", c.durability.fsync)),
        (
            "checkpoint_every_records",
            c.durability.checkpoint_every_records.to_string(),
        ),
        (
            "checkpoint_on_close",
            c.durability.checkpoint_on_close.to_string(),
        ),
        ("page_size", c.storage.page_size.to_string()),
        ("fulfill_workers", c.concurrency.fulfill_workers.to_string()),
        ("max_batch_size", c.concurrency.max_batch_size.to_string()),
        ("hybrid_order", c.hybrid_order.to_string()),
    ]
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1_000.0
}

/// Per-layer numbers of one traced repetition.
pub type Layers = BTreeMap<&'static str, f64>;

/// Times the steps of a set-up — each statement of the load, each warm-up
/// statement, each other call — so that set-up time can be taken step by
/// step over repetitions the way statement latency is.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    us: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            us: Vec::new(),
        }
    }

    /// Closes a step: everything since the previous `lap` or `resume`.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.us.push(micros(now - self.last));
        self.last = now;
    }

    /// Restarts the clock after work that is not part of the set-up.
    pub fn resume(&mut self) {
        self.last = Instant::now();
    }
}

/// One repetition: a fresh engine, the workload's fixed statement stream,
/// every output checked.
#[derive(Debug)]
pub struct Rep {
    /// Schema + load + warm, before the first timed statement, step by
    /// step: the same steps in every repetition.
    pub setup: Laps,
    /// One entry per timed statement, microseconds, in stream order: entry
    /// `i` is the same statement in every repetition.
    pub latencies_us: Vec<f64>,
    /// Closed-loop callers that shared the stream (1 for embedded
    /// workloads): with `c` callers each waiting for its reply, statements
    /// complete at `c ÷ mean latency`.
    pub clients: usize,
    pub failed: u64,
    /// Counts that must repeat exactly across repetitions.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Default for Rep {
    fn default() -> Rep {
        Rep {
            setup: Laps::start(),
            latencies_us: Vec::new(),
            clients: 1,
            failed: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Rep {
    /// Times `f` and records its latency; an `Err` counts as failed.
    pub fn time<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let t0 = Instant::now();
        let r = f();
        self.latencies_us.push(micros(t0.elapsed()));
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

pub trait Workload {
    /// The sizes and distributions the numbers depend on, for the record:
    /// buffer-pool budget (`pool_pages`, 0 = unbounded), rows, statements
    /// per repetition, statement mix.
    fn inputs(&self) -> Vec<(&'static str, String)>;

    /// One end-to-end repetition. The untimed warm-up repetition runs a
    /// quarter of the stream and whatever extra cross-checks the workload
    /// has.
    fn rep(&self, warm_up: bool) -> Result<Rep, String>;

    /// One traced repetition: fills `tracer` and returns the layer table.
    fn trace(&self, tracer: &mut crate::trace::Tracer) -> Result<Layers, String>;
}

/// Fewest timed repetitions in a run: one for each half of the run.
pub const MIN_REPS: usize = 2;

/// The end-to-end outcome of one run.
pub struct RunResult {
    /// Per end-to-end metric: the reported value, how far the two halves of
    /// the run disagree on it, and its extremes over single repetitions.
    pub summaries: BTreeMap<&'static str, Summary>,
    pub counts: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// Tail latencies, kept in the record, not gated: the upper tail of
    /// the quiet latencies is where the statements sit that never met a
    /// quiet moment, so it needs more repetitions to settle than a run has.
    /// `None` where fewer than ten statements lie beyond.
    pub latency_p95_us: Option<f64>,
    pub latency_p99_us: Option<f64>,
}

/// Throughput and latency percentiles of the quiet latencies of `reps`,
/// and the sum of their quiet set-up steps.
struct Timings {
    setup_s: f64,
    stmts_per_s: f64,
    p50_us: f64,
    p95_us: Option<f64>,
    p99_us: Option<f64>,
}

fn timings(reps: &[Rep]) -> Result<Timings, String> {
    let runs: Vec<&[f64]> = reps.iter().map(|r| r.latencies_us.as_slice()).collect();
    let quiet = stats::quiet(&runs);
    let busy_s = quiet.iter().sum::<f64>() / 1e6;
    let sorted = stats::sorted(quiet);
    let setups: Vec<&[f64]> = reps.iter().map(|r| r.setup.us.as_slice()).collect();
    Ok(Timings {
        setup_s: stats::quiet(&setups).iter().sum::<f64>() / 1e6,
        stmts_per_s: (reps[0].clients * sorted.len()) as f64 / busy_s,
        p50_us: stats::percentile(&sorted, 50.0)
            .ok_or("a repetition has too few statements for a median")?,
        p95_us: stats::percentile(&sorted, 95.0),
        p99_us: stats::percentile(&sorted, 99.0),
    })
}

/// Repeats `rep` until the next repetition would end further past
/// `seconds` than this one ends before it, and at least `min` times.
fn repeat_for<T>(
    seconds: f64,
    min: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min || started.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let t0 = Instant::now();
        out.push(rep()?);
        last = t0.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// One untimed warm-up repetition, then repetitions — set-up, stream and
/// checks — for `seconds`. Every repetition replays the same stream on an
/// identically prepared engine, so each statement is timed once per
/// repetition; its latency is the fastest of them ([`stats::quiet`]), and
/// throughput and latency percentiles are taken over the stream's quiet
/// latencies. Set-up time is the sum of the set-up's steps, each taken the
/// same way.
pub fn run(workload: &dyn Workload, seconds: f64) -> Result<RunResult, String> {
    workload.rep(true)?;
    let reps = repeat_for(seconds, MIN_REPS, || workload.rep(false))?;

    let mut counts = BTreeMap::new();
    for name in reps[0].counts.keys() {
        let values: Vec<f64> = reps
            .iter()
            .map(|r| r.counts.get(name).copied().unwrap_or(f64::NAN))
            .collect();
        counts.insert(*name, stats::exact(name, &values)?);
    }

    let whole = timings(&reps)?;
    let (first, second) = reps.split_at(reps.len() / 2);
    let (first, second) = (timings(first)?, timings(second)?);
    let alone: Vec<Timings> = reps
        .iter()
        .map(|r| timings(std::slice::from_ref(r)))
        .collect::<Result<_, _>>()?;
    let of_run = |f: &dyn Fn(&Timings) -> f64| {
        let alone: Vec<f64> = alone.iter().map(f).collect();
        Summary::of_run(f(&whole), (f(&first), f(&second)), &alone)
    };
    let summaries = BTreeMap::from([
        ("stmts_per_s", of_run(&|t| t.stmts_per_s)),
        ("latency_p50_us", of_run(&|t| t.p50_us)),
        ("peak_rss_mb", Summary::median_of(&[peak_rss_mb()])),
        ("setup_s", of_run(&|t| t.setup_s)),
    ]);
    Ok(RunResult {
        summaries,
        counts,
        attempted: reps.iter().map(|r| r.latencies_us.len() as u64).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        reps: reps.len(),
        latency_p95_us: whole.p95_us,
        latency_p99_us: whole.p99_us,
    })
}

/// Traced repetitions for `seconds` (at least one); each layer metric is
/// the median over repetitions.
pub fn run_traced(
    workload: &dyn Workload,
    seconds: f64,
    tracer: &mut crate::trace::Tracer,
) -> Result<Layers, String> {
    let tables = repeat_for(seconds, 1, || {
        tracer.clear();
        workload.trace(tracer)
    })?;
    let mut out = Layers::new();
    for spec in &crate::spec::PER_LAYER {
        let values: Vec<f64> = tables
            .iter()
            .map(|t| t.get(spec.name).copied().unwrap_or(0.0))
            .collect();
        let value = if spec.exact {
            stats::exact(spec.name, &values)?
        } else {
            stats::median(&values)
        };
        out.insert(spec.name, value);
    }
    if let Some(unknown) = tables[0]
        .keys()
        .find(|k| crate::spec::per_layer(k).is_none())
    {
        return Err(format!("layer metric {unknown} is not in spec::PER_LAYER"));
    }
    Ok(out)
}
