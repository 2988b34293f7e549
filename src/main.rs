//! The `crowddb` interactive shell — the reproduction of the paper's
//! live demo: type CrowdSQL, watch tasks go to the (simulated) crowd,
//! inspect plans, task pages, and the worker community.
//!
//! ```text
//! cargo run --bin crowddb
//! crowddb> CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING);
//! crowddb> INSERT INTO Talk (title) VALUES ('CrowdDB');
//! crowddb> SELECT abstract FROM Talk WHERE title = 'CrowdDB';
//! ```
//!
//! Meta commands: `\help`, `\tables`, `\schema <t>`, `\explain <sql>`,
//! `\preview <sql>`, `\platform <amt|mobile> [seed]`,
//! `\set [quality|batch|hybrid ...]`, `\wrm`, `\stats`, `\metrics`,
//! `\events [n]`, `\watch [sql]`, `\unwatch <id>`, `\cancel`,
//! `\connect`, `\disconnect`, `\quit`.
//!
//! `\watch SELECT ...` registers a standing query; each later bare
//! `\watch` drains its pending delta batches (`+`/`-` rows with
//! revision numbers). Statements keep triggering re-evaluation as DML
//! commits and crowd rounds settle.
//!
//! `\connect HOST:PORT` switches the shell from the embedded engine to
//! a remote `crowddb-serve` instance over CDBP; statements then execute
//! on the server (with its tenant quotas and admission control) until
//! `\disconnect`.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, Write};

use crowddb::{CrowdDB, Platform, QualityPolicy, SimPlatform};
use crowddb_core::DeltaBatch;
use crowddb_platform::PerfectModel;
use crowddb_server::{Client as RemoteClient, ClientError};

fn make_platform(kind: &str, seed: u64) -> Result<Box<dyn Platform>, String> {
    match kind {
        "amt" => Ok(Box::new(SimPlatform::amt(seed, Box::new(PerfectModel)))),
        "mobile" => Ok(Box::new(SimPlatform::mobile(
            seed,
            (47.6114, -122.3305),
            Box::new(PerfectModel),
        ))),
        other => Err(format!(
            "unknown platform '{other}' (expected 'amt' or 'mobile')"
        )),
    }
}

fn print_help() {
    println!(
        "CrowdSQL statements end with ';'. Meta commands:\n\
         \\help                 this message\n\
         \\tables               list tables\n\
         \\schema <table>       show a table's DDL\n\
         \\explain <sql>        optimized plan + cardinality + boundedness\n\
         \\preview <sql>        HTML of the first crowd task the query would post\n\
         \\platform <k> [seed]  switch crowd platform (amt | mobile)\n\
         \\set                  show quality / batch / hybrid knobs\n\
         \\set quality <majority|em[:iters[:tol]]>  answer-quality policy\n\
         \\set batch <k>        merge up to k compares per HIT (0/1 = singletons)\n\
         \\set hybrid <on|off>  machine-order comparable CROWDORDER pairs\n\
         \\source <file>        run a ;-separated CrowdSQL script\n\
         \\wrm                  worker-community report\n\
         \\stats                platform counters\n\
         \\metrics              engine metrics (Prometheus text format)\n\
         \\events [n]           last n structured events as JSON lines (default 20)\n\
         \\watch <sql>          register a standing query (SUBSCRIBE); prints its id\n\
         \\watch                drain pending delta batches of every watched query\n\
         \\unwatch <id>         drop a standing query\n\
         \\cancel               stop the next statement at its first governor checkpoint\n\
         \\connect <addr> [tenant [token [seed]]]  statements go to a crowddb-serve over CDBP\n\
         \\disconnect           return to the embedded in-process engine\n\
         \\quit                 exit\n\
         The simulated crowd answers with deterministic placeholder values\n\
         (PerfectModel); run the examples for realistic world models."
    );
}

/// Run one statement on the remote session. Returns `false` when the
/// connection itself is gone and the shell should fall back to the
/// embedded engine.
fn run_remote(remote: &mut RemoteClient, sql: &str) -> bool {
    match remote.query(sql) {
        Ok(r) => {
            println!("{}", r.render());
            true
        }
        Err(ClientError::Protocol(e)) => {
            println!("connection lost ({e}) — back on the embedded engine");
            false
        }
        Err(e) => {
            println!("error: {e}");
            true
        }
    }
}

/// Print one delta batch in `\watch` form: revision header, then rows
/// prefixed `+` (entering) / `-` (leaving). Snapshots replace state.
fn print_delta(id: u64, b: &DeltaBatch) {
    println!(
        "watch {id} rev {}{}: +{} -{}",
        b.revision,
        if b.snapshot { " (snapshot)" } else { "" },
        b.added.len(),
        b.removed.len()
    );
    for r in &b.removed {
        println!("  - {}", row_text(r));
    }
    for r in &b.added {
        println!("  + {}", row_text(r));
    }
}

fn row_text(r: &crowddb::Row) -> String {
    r.values()
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Drain one embedded subscription's queue, reporting lag and resync.
fn drain_embedded(db: &CrowdDB, id: u64) {
    loop {
        match db.poll_subscription(id) {
            Ok(Some(b)) => print_delta(id, &b),
            Ok(None) => break,
            Err(e) => {
                println!("watch {id}: {e}");
                break;
            }
        }
    }
}

fn run_meta(
    db: &mut CrowdDB,
    platform: &mut Box<dyn Platform>,
    remote: &mut Option<RemoteClient>,
    watched: &mut Vec<u64>,
    line: &str,
) -> bool {
    let mut parts = line.splitn(2, ' ');
    let cmd = parts.next().unwrap_or("");
    let arg = parts.next().unwrap_or("").trim();
    match cmd {
        "\\help" | "\\h" | "\\?" => print_help(),
        "\\quit" | "\\q" => return false,
        "\\tables" => {
            for name in db.storage().table_names() {
                let stats = db.storage().stats(&name).unwrap_or_default_stats();
                println!("{name} ({} rows, {} CNULLs)", stats.0, stats.1);
            }
        }
        "\\schema" => match db.storage().schema(arg) {
            Ok(s) => println!("{}", s.to_ddl()),
            Err(e) => println!("error: {e}"),
        },
        "\\explain" => match db.explain(arg) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("error: {e}"),
        },
        "\\preview" => match db.preview_first_task(arg) {
            Ok(Some(html)) => println!("{html}"),
            Ok(None) => println!("(the query needs no crowd task right now)"),
            Err(e) => println!("error: {e}"),
        },
        "\\platform" => {
            let mut words = arg.split_whitespace();
            let kind = words.next().unwrap_or("amt");
            let seed = words.next().and_then(|s| s.parse().ok()).unwrap_or(42u64);
            match make_platform(kind, seed) {
                Ok(p) => {
                    *platform = p;
                    println!("switched to '{}' (seed {seed})", platform.name());
                }
                Err(e) => println!("error: {e}"),
            }
        }
        "\\set" if arg.is_empty() => {
            let c = db.config();
            let quality = match c.quality {
                QualityPolicy::MajorityVote => "majority".to_string(),
                QualityPolicy::Em { max_iters, tol } => {
                    format!("em (iters {max_iters}, tol {tol})")
                }
            };
            println!("quality  {quality}");
            println!("batch    {}", c.concurrency.max_batch_size);
            println!("hybrid   {}", if c.hybrid_order { "on" } else { "off" });
        }
        "\\set" => {
            let mut words = arg.split_whitespace();
            let knob = words.next().unwrap_or("");
            let value = words.next().unwrap_or("");
            match (knob, value) {
                ("quality", "majority") => {
                    db.set_quality_policy(QualityPolicy::MajorityVote);
                    println!("quality policy: majority vote");
                }
                ("quality", v) if v == "em" || v.starts_with("em:") => {
                    let mut spec = v.split(':').skip(1);
                    let max_iters = spec.next().and_then(|s| s.parse().ok()).unwrap_or(20);
                    let tol = spec.next().and_then(|s| s.parse().ok()).unwrap_or(1e-6);
                    db.set_quality_policy(QualityPolicy::Em { max_iters, tol });
                    println!("quality policy: EM (iters {max_iters}, tol {tol})");
                }
                ("batch", v) => match v.parse::<usize>() {
                    Ok(k) => {
                        db.set_max_batch_size(k);
                        println!(
                            "batch size: {k}{}",
                            if k < 2 { " (singleton HITs)" } else { "" }
                        );
                    }
                    Err(_) => println!("usage: \\set batch <non-negative integer>"),
                },
                ("hybrid", "on") => {
                    db.set_hybrid_order(true);
                    println!("hybrid CROWDORDER: on");
                }
                ("hybrid", "off") => {
                    db.set_hybrid_order(false);
                    println!("hybrid CROWDORDER: off");
                }
                _ => println!(
                    "usage: \\set quality <majority|em[:iters[:tol]]> | \
                     \\set batch <k> | \\set hybrid <on|off>"
                ),
            }
        }
        "\\source" => match std::fs::read_to_string(arg) {
            Ok(script) => {
                for stmt in script.split(';') {
                    let stmt = stmt.trim();
                    if stmt.is_empty() || stmt.starts_with("--") {
                        continue;
                    }
                    println!("crowddb> {stmt};");
                    match db.execute(stmt, platform.as_mut()) {
                        Ok(r) => println!("{}", r.render()),
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
            Err(e) => println!("error reading '{arg}': {e}"),
        },
        "\\wrm" => db.with_wrm(|wrm| {
            println!(
                "community: {} worker(s), {}¢ paid, top-3 share {:.0}%",
                wrm.community_size(),
                wrm.total_paid_cents(),
                wrm.top_k_share(3) * 100.0
            );
            for (w, n) in wrm.work_distribution().into_iter().take(10) {
                println!("  {w}: {n} assignment(s)");
            }
        }),
        "\\metrics" => {
            let text = match remote.as_mut() {
                Some(client) => match client.metrics() {
                    Ok(text) => text,
                    Err(e) => {
                        println!("error: {e}");
                        return true;
                    }
                },
                None => db.metrics().to_prometheus(),
            };
            if text.is_empty() {
                println!("(no metrics yet — run a statement first)");
            } else {
                print!("{text}");
            }
        }
        "\\connect" => {
            let mut words = arg.split_whitespace();
            let Some(addr) = words.next() else {
                println!("usage: \\connect HOST:PORT [tenant [token [seed]]]");
                return true;
            };
            let tenant = words.next().unwrap_or("public");
            let token = words.next().unwrap_or("");
            let seed = words.next().and_then(|s| s.parse().ok()).unwrap_or(42u64);
            match RemoteClient::connect(addr, tenant, token, seed) {
                Ok(client) => {
                    println!(
                        "connected to {} ({}) as '{}', session {} — \\disconnect to return",
                        addr,
                        client.server(),
                        tenant,
                        client.session()
                    );
                    if let Some(old) = remote.replace(client) {
                        let _ = old.close();
                    }
                    // Remote subscriptions belong to the old session;
                    // the server dropped them with it.
                    watched.clear();
                }
                Err(e) => println!("error: {e}"),
            }
        }
        "\\disconnect" => match remote.take() {
            Some(client) => {
                watched.clear();
                let session = client.session();
                match client.close() {
                    Ok(()) => println!("session {session} closed — back on the embedded engine"),
                    Err(e) => println!("session {session} dropped ({e})"),
                }
            }
            None => println!("(not connected — statements already run in-process)"),
        },
        "\\events" => {
            let n = arg.parse().unwrap_or(20usize);
            let records = db.obs().events().records();
            if records.is_empty() {
                println!("(no events yet — run a statement first)");
            }
            let skip = records.len().saturating_sub(n);
            for rec in &records[skip..] {
                println!("{}", rec.to_json());
            }
        }
        "\\watch" if arg.is_empty() => match remote.as_mut() {
            Some(client) => {
                if watched.is_empty() {
                    println!("(nothing watched — \\watch SELECT ... first)");
                }
                for id in watched.clone() {
                    match client.poll_deltas(id, 32) {
                        Ok(batches) if batches.is_empty() => println!("watch {id}: caught up"),
                        Ok(batches) => {
                            for b in batches {
                                print_delta(id, &b);
                            }
                        }
                        Err(e) => println!("watch {id}: {e}"),
                    }
                }
            }
            None => {
                let subs = db.subscriptions();
                if subs.is_empty() {
                    println!("(nothing watched — \\watch SELECT ... first)");
                }
                for (id, sql) in subs {
                    println!("watch {id}: {sql}");
                    drain_embedded(db, id);
                }
            }
        },
        "\\watch" => match remote.as_mut() {
            Some(client) => match client.subscribe(arg) {
                Ok((id, columns)) => {
                    watched.push(id);
                    println!("watching as {} ({})", id, columns.join(", "));
                    match client.poll_deltas(id, 32) {
                        Ok(batches) => {
                            for b in batches {
                                print_delta(id, &b);
                            }
                        }
                        Err(e) => println!("watch {id}: {e}"),
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            None => match db.subscribe_id(arg) {
                Ok((id, columns)) => {
                    println!("watching as {} ({})", id, columns.join(", "));
                    drain_embedded(db, id);
                }
                Err(e) => println!("error: {e}"),
            },
        },
        "\\unwatch" => match arg.parse::<u64>() {
            Ok(id) => {
                let result = match remote.as_mut() {
                    Some(client) => client.unsubscribe(id).map_err(|e| e.to_string()),
                    None => db.unsubscribe(id).map_err(|e| e.to_string()),
                };
                match result {
                    Ok(()) => {
                        watched.retain(|w| *w != id);
                        println!("watch {id} dropped");
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            Err(_) => println!("usage: \\unwatch <id>"),
        },
        "\\cancel" => {
            // The shell is single-threaded, so the token is armed before
            // the statement runs; the governor trips it at the first
            // checkpoint and clears it. (A concurrent embedder would call
            // `cancel_handle()` from another thread mid-statement.) In
            // remote mode the same request travels out-of-band on a
            // fresh connection, authenticated by the session's cancel key.
            match remote.as_ref() {
                Some(client) => match client.cancel_handle().cancel() {
                    Ok(()) => println!(
                        "cancel delivered to session {}: the next statement stops \
                         at its first governor checkpoint",
                        client.session()
                    ),
                    Err(e) => println!("error: {e}"),
                },
                None => {
                    db.cancel_handle().cancel();
                    println!(
                        "cancel requested: the next statement stops at its first \
                         governor checkpoint (answers already collected are kept)"
                    );
                }
            }
        }
        "\\stats" => {
            let s = platform.stats();
            println!(
                "platform '{}': {} HIT(s) posted, {} assignment(s) done, {}¢ spent, \
                 t = {:.0} virtual s",
                platform.name(),
                s.hits_posted,
                s.assignments_completed,
                s.cents_spent,
                platform.now()
            );
        }
        other => println!("unknown command '{other}' — try \\help"),
    }
    true
}

/// Tiny extension trait so \tables can show stats without unwrap noise.
trait StatsOrDefault {
    fn unwrap_or_default_stats(self) -> (usize, usize);
}
impl StatsOrDefault for crowddb::Result<crowddb_storage::TableStats> {
    fn unwrap_or_default_stats(self) -> (usize, usize) {
        self.map(|s| (s.live_rows, s.cnull_values))
            .unwrap_or((0, 0))
    }
}

fn main() {
    println!(
        "CrowdDB shell — crowd-enabled SQL (reproduction of VLDB'11 demo).\n\
         Type \\help for commands; statements end with ';'."
    );
    let mut db = CrowdDB::new();
    let mut platform: Box<dyn Platform> = Box::new(SimPlatform::amt(42, Box::new(PerfectModel)));
    let mut remote: Option<RemoteClient> = None;
    let mut watched: Vec<u64> = Vec::new();
    let stdin = io::stdin();
    let mut buffer = String::new();
    loop {
        if !buffer.is_empty() {
            print!("    ...> ");
        } else if remote.is_some() {
            print!("crowddb@remote> ");
        } else {
            print!("crowddb> ");
        }
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !run_meta(&mut db, &mut platform, &mut remote, &mut watched, trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }
        buffer.push_str(&line);
        if !trimmed.ends_with(';') {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        if let Some(client) = remote.as_mut() {
            if !run_remote(client, sql.trim().trim_end_matches(';')) {
                remote = None;
            }
            continue;
        }
        match db.execute(sql.trim().trim_end_matches(';'), platform.as_mut()) {
            Ok(r) => println!("{}", r.render()),
            Err(e) => println!("error: {e}"),
        }
    }
    if let Some(client) = remote.take() {
        let _ = client.close();
    }
    println!("bye");
}
