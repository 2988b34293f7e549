//! crowdbench — the CrowdDB-RS benchmark.
//!
//! ```text
//! crowdbench --seed 1                       every workload, end to end and traced; writes the record
//! crowdbench --workload point_read          one workload, end-to-end metrics
//! crowdbench --workload point_read --trace  the traced pass: per-layer metrics, out/trace-<workload>.json
//! crowdbench --compare base.json new.json   check a record against another, within the bounds
//! ```
//!
//! A single-workload run ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod compare;
mod gen;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;

/// Seconds of timed window per run when `--seconds` is not given; the
/// same number `BENCHMARK.json` states as `run_seconds`.
const DEFAULT_SECONDS: f64 = 27.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
    /// Where a child of the all-workloads mode leaves its full result.
    detail: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        compare: None,
        detail: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--compare" => {
                args.compare = Some((value("--compare")?.into(), value("--compare")?.into()));
            }
            "--detail" => args.detail = Some(value("--detail")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload in this process. Prints every metric by name with
/// its unit, then the one-line result; returns the full result for the
/// record.
fn run_one(name: &str, args: &Args) -> Result<Json, String> {
    let unknown = || {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    };
    let spec = spec::workload(name).ok_or_else(unknown)?;
    let workload = workloads::build(name, args.seed).ok_or_else(unknown)?;
    println!(
        "crowdbench {name} seed={} seconds={} trace={}\n  {}\n  {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.why,
        if spec.gated {
            "listed in BENCHMARK.json: the driver holds its end-to-end metrics to their bounds"
        } else {
            "not listed in BENCHMARK.json: recorded, and compared by --compare, not run by the driver"
        }
    );
    let (metrics, detail, attempted, failed) = if args.trace {
        let mut tracer = trace::Tracer::default();
        let layers = harness::run_traced(workload.as_ref(), args.seconds, &mut tracer)?;
        let path = harness::out_dir().join(format!("trace-{name}.json"));
        tracer
            .write(&path, name, &layers)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut metrics = Vec::new();
        for m in &spec::PER_LAYER {
            let value = layers[m.name];
            println!(
                "  {:<38} {:>16.4} {:<6} -> {}",
                m.name, value, m.unit, m.moves
            );
            metrics.push((m.name, metric_json(value, m.unit)));
        }
        println!("  {} span(s) in {}", tracer.spans().len(), path.display());
        let attempted = layers["stmt.count"] as u64;
        let detail = Json::obj([("per_layer", Json::obj(metrics.clone()))]);
        (metrics, detail, attempted, 0)
    } else {
        let run = harness::run(workload.as_ref(), args.seconds)?;
        let mut metrics = Vec::new();
        let mut full = Vec::new();
        for m in &spec::END_TO_END {
            let s = run.summaries[m.name];
            println!(
                "  {:<16} {:>16.4} {:<5} {} is better; single repetitions {:.4} .. {:.4}, spread inside the run {:.1}%, {} repetition(s)",
                m.name,
                s.value,
                m.unit,
                m.better.as_str(),
                s.min,
                s.max,
                100.0 * s.spread,
                s.samples
            );
            metrics.push((m.name, metric_json(s.value, m.unit)));
            full.push((
                m.name,
                Json::obj([
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(m.unit)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("spread", Json::Num(s.spread)),
                    ("samples", Json::Num(s.samples as f64)),
                ]),
            ));
        }
        let tails = [
            ("latency_p95_us", run.latency_p95_us),
            ("latency_p99_us", run.latency_p99_us),
        ];
        for (name, value) in tails {
            match value {
                Some(v) => println!("  {name:<16} {v:>16.4} us    recorded, not gated"),
                None => println!("  {name:<16} fewer than ten statements beyond it"),
            }
        }
        for (count, value) in &run.counts {
            println!(
                "  {count:<16} {value:>16} per repetition, identical in all {}",
                run.reps
            );
        }
        let config = harness::config_record()
            .into_iter()
            .chain(workload.inputs())
            .map(|(k, v)| (k, Json::Str(v)));
        let detail = Json::obj([
            ("end_to_end", Json::obj(full)),
            (
                "counts",
                Json::obj(run.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
            ("attempted", Json::Num(run.attempted as f64)),
            ("failed", Json::Num(run.failed as f64)),
            ("repetitions", Json::Num(run.reps as f64)),
            (
                "statements_per_repetition",
                Json::Num((run.attempted / run.reps as u64) as f64),
            ),
            (
                "latency_p95_us",
                run.latency_p95_us.map_or(Json::Null, Json::Num),
            ),
            (
                "latency_p99_us",
                run.latency_p99_us.map_or(Json::Null, Json::Num),
            ),
            ("config", Json::obj(config)),
        ]);
        (metrics, detail, run.attempted, run.failed)
    };
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(detail)
}

/// Runs `workload` in a child process (its own peak memory, its own
/// allocator history) and returns the detail it wrote.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let scratch = harness::ScratchDir::new("detail");
    let detail = scratch.path().join("detail.json");
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .status()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace={}) failed: {status}",
            u8::from(trace)
        ));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("reading {workload}'s result: {e}"))?;
    json::parse(&text)
}

/// Every workload, end to end and traced; writes and returns the record.
fn run_all(args: &Args) -> Result<PathBuf, String> {
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let mut fields = run_child(w.name, args, false)?.fields().to_vec();
        fields.extend(run_child(w.name, args, true)?.fields().to_vec());
        workloads.push((w.name, Json::Obj(fields)));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = Json::obj([
        ("benchmark", Json::str("crowdbench")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("available_parallelism", Json::Num(cores as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = harness::out_dir().join(format!("record-seed{}.json", args.seed));
    write_file(&path, &record.pretty())?;
    Ok(path)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((base, new)) = &args.compare {
        let load = |p: &Path| -> Result<Json, String> {
            let text =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        let (report, pass) = compare::compare(&load(base)?, &load(new)?)?;
        print!("{report}");
        return Ok(pass);
    }
    match &args.workload {
        Some(name) => {
            let detail = run_one(name, args)?;
            if let Some(path) = &args.detail {
                write_file(path, &detail.compact())?;
            }
        }
        None => {
            let path = run_all(args)?;
            println!("record written to {}", path.display());
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("crowdbench: {e}");
            ExitCode::FAILURE
        }
    }
}
