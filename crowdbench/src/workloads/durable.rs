//! `write_durable` and `standing_delta`: one single-row DML stream over
//! `Sessions` on a durable engine — without subscribers (the write side of
//! storage and the WAL, ending in a crash and a reopen) and with three
//! standing queries (each DML timed until its delta batches are in hand).

use std::path::Path;
use std::time::{Duration, Instant};

use crowddb_core::{canonical_rows, CrowdDB, SubscriberState};
use crowddb_sql::parse_statement;
use crowddb_wal::{scan_frames, DurableStore, FsyncPolicy, LogRecord, WAL_FILE};

use crate::gen::{self, DmlStream, Session, SplitMix64};
use crate::harness::{dir_bytes, engine_config, micros, Laps, Layers, Rep, ScratchDir, Workload};
use crate::trace::{Span, Tracer};
use crate::workloads::{head, p50, p95, render_rows, run_setup, silent_platform, Counters};

pub const SESSIONS: usize = 4_000;
/// Buffer-pool budget: the table fits several times over.
pub const POOL_PAGES: usize = 256;
/// Rows per set-up `INSERT`: loading leaves 1003 records in the log, just
/// short of the 1024 that trigger a checkpoint, so the timed stream crosses
/// its first checkpoint (every loaded page dirty) at statement 21 and its
/// second (the pages 1024 DMLs dirtied) at statement 1045.
pub const LOAD_CHUNK: usize = 4;
pub const OPS_WRITE: usize = 1_100;
/// Appends replayed through a bare `DurableStore` for the WAL rows.
const REPLAY_APPENDS: usize = 512;
/// The first statements of the same stream: every DML re-evaluates three
/// standing queries over 4000 rows, so a repetition of the full stream
/// would outlast the whole run. It still crosses the first checkpoint.
pub const OPS_STANDING: usize = 200;

pub struct Durable {
    standing: bool,
    sessions: Vec<Session>,
    dml: DmlStream,
}

/// The standing queries of one engine and the state accumulated from
/// their delta batches.
struct Subscriptions {
    ids: Vec<u64>,
    states: Vec<SubscriberState>,
}

impl Subscriptions {
    fn open(db: &CrowdDB) -> Result<Subscriptions, String> {
        let mut subs = Subscriptions {
            ids: Vec::new(),
            states: Vec::new(),
        };
        for sql in gen::STANDING_QUERIES {
            let (id, _) = db
                .subscribe_id(sql)
                .map_err(|e| format!("subscribe: {e}"))?;
            subs.ids.push(id);
            subs.states.push(SubscriberState::new());
        }
        subs.drain(db)?;
        Ok(subs)
    }

    /// Polls every subscription dry, folding each batch into its state.
    fn drain(&mut self, db: &CrowdDB) -> Result<u64, String> {
        let mut batches = 0;
        for (id, state) in self.ids.iter().zip(&mut self.states) {
            while let Some(batch) = db
                .poll_subscription(*id)
                .map_err(|e| format!("poll: {e}"))?
            {
                state
                    .apply(&batch)
                    .map_err(|e| format!("apply delta: {e}"))?;
                batches += 1;
            }
        }
        Ok(batches)
    }

    /// The accumulated deltas must equal a fresh evaluation, byte for byte.
    fn verify(&self, db: &CrowdDB) -> Result<(), String> {
        for (sql, state) in gen::STANDING_QUERIES.iter().zip(&self.states) {
            let fresh = db.execute_local(sql).map_err(|e| format!("{e}: {sql}"))?;
            if state.canonical() != canonical_rows(&fresh.rows) {
                return Err(format!(
                    "accumulated deltas diverge from a fresh evaluation of: {sql}"
                ));
            }
        }
        Ok(())
    }
}

/// What one pass over the DML stream saw.
struct Pass {
    latencies_us: Vec<f64>,
    /// Indices of statements during which the log was truncated.
    checkpoints: Vec<usize>,
    failed: u64,
    wall: Duration,
}

impl Durable {
    pub fn new(seed: u64, standing: bool) -> Durable {
        // Both workloads draw the same streams: they are twins.
        let sessions = gen::sessions(&mut SplitMix64::stream(seed, "durable.load"), SESSIONS);
        let dml = gen::dml_stream(
            &mut SplitMix64::stream(seed, "durable.ops"),
            &sessions,
            OPS_WRITE,
        );
        Durable {
            standing,
            sessions,
            dml,
        }
    }

    fn ops(&self) -> usize {
        if self.standing {
            OPS_STANDING
        } else {
            OPS_WRITE
        }
    }

    fn statements(&self, warm_up: bool) -> &[String] {
        let ops = if warm_up { self.ops() / 4 } else { self.ops() };
        &self.dml.statements[..ops]
    }

    fn open(&self, dir: &Path) -> Result<CrowdDB, String> {
        CrowdDB::open_with_config(dir, engine_config(POOL_PAGES)).map_err(|e| format!("open: {e}"))
    }

    fn engine(&self, dir: &Path, laps: &mut Laps) -> Result<CrowdDB, String> {
        let db = self.open(dir)?;
        run_setup(&db, [gen::SESSIONS_DDL, gen::ROOM_DDL], laps)?;
        run_setup(&db, [gen::room_load_sql()], laps)?;
        run_setup(
            &db,
            gen::sessions_load_sql(&self.sessions, LOAD_CHUNK),
            laps,
        )?;
        Ok(db)
    }

    /// The timed loop. With `subs`, a statement's latency runs until its
    /// delta batches have been polled and applied. With `tracer`, each
    /// statement also gets a `sql.parse` span and a statement span.
    fn pass(
        &self,
        db: &CrowdDB,
        dir: &Path,
        statements: &[String],
        mut subs: Option<&mut Subscriptions>,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Pass, String> {
        let wal = dir.join(WAL_FILE);
        let wal_len = || std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let mut platform = silent_platform();
        let mut pass = Pass {
            latencies_us: Vec::with_capacity(statements.len()),
            checkpoints: Vec::new(),
            failed: 0,
            wall: Duration::ZERO,
        };
        let mut last_len = wal_len();
        let started = Instant::now();
        for (i, sql) in statements.iter().enumerate() {
            if let Some(t) = tracer.as_deref_mut() {
                let id = t.begin_statement();
                let (parsed, _) = t.span("sql.parse", id, || parse_statement(sql));
                parsed.map_err(|e| format!("{e}: {}", head(sql)))?;
            }
            let t0 = Instant::now();
            let outcome = db.execute(sql, &mut platform);
            let delivered = match subs.as_deref_mut() {
                Some(s) => s.drain(db)?,
                None => 0,
            };
            let t1 = Instant::now();
            pass.latencies_us.push(micros(t1 - t0));
            match outcome {
                Ok(r) if r.affected == 1 => {}
                Ok(r) => return Err(format!("{} row(s) affected by: {}", r.affected, head(sql))),
                Err(_) => pass.failed += 1,
            }
            if subs.is_some() && delivered == 0 {
                return Err(format!("no delta batch followed: {}", head(sql)));
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.record(Span {
                    name: "statement",
                    parent: 0,
                    start: t0,
                    end: t1,
                });
            }
            let len = wal_len();
            if len < last_len {
                pass.checkpoints.push(i);
            }
            last_len = len;
        }
        pass.wall = started.elapsed();
        Ok(pass)
    }

    /// Every acknowledged row — and nothing else — is in `Sessions`.
    fn verify_rows(&self, db: &CrowdDB, statements: &[String]) -> Result<(), String> {
        let model = replay_model(&self.sessions, statements)?;
        let r = db
            .execute_local("SELECT k, room, cap FROM Sessions")
            .map_err(|e| format!("reading Sessions back: {e}"))?;
        let mut got = render_rows(&r.rows);
        got.sort_by_key(|row| row[0].parse::<i64>().unwrap_or(i64::MIN));
        let want: Vec<Vec<String>> = model
            .iter()
            .map(|s| vec![s.k.to_string(), s.room.clone(), s.cap.to_string()])
            .collect();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "Sessions holds {} row(s) after the stream, the model {}; contents differ",
                got.len(),
                want.len()
            ))
        }
    }
}

/// The rows a prefix of the generated DML stream leaves behind, worked
/// out from the statement text alone.
fn replay_model(initial: &[Session], statements: &[String]) -> Result<Vec<Session>, String> {
    let mut rows: std::collections::BTreeMap<i64, Session> =
        initial.iter().map(|s| (s.k, s.clone())).collect();
    let unquote = |s: &str| s.trim().trim_matches('\'').to_string();
    let bad = |sql: &str| format!("unexpected generated statement: {}", head(sql));
    let int = |s: &str, sql: &str| s.trim().parse::<i64>().map_err(|_| bad(sql));
    for sql in statements {
        if let Some(rest) = sql.strip_prefix("UPDATE Sessions SET room = ") {
            let (room, rest) = rest.split_once(", cap = ").ok_or_else(|| bad(sql))?;
            let (cap, k) = rest.split_once(" WHERE k = ").ok_or_else(|| bad(sql))?;
            let row = rows.get_mut(&int(k, sql)?).ok_or_else(|| bad(sql))?;
            row.room = unquote(room);
            row.cap = int(cap, sql)?;
        } else if let Some(rest) = sql.strip_prefix("INSERT INTO Sessions VALUES (") {
            let cells: Vec<&str> = rest.trim_end_matches(')').split(", ").collect();
            let [k, room, cap] = cells[..] else {
                return Err(bad(sql));
            };
            let k = int(k, sql)?;
            rows.insert(
                k,
                Session {
                    k,
                    room: unquote(room),
                    cap: int(cap, sql)?,
                },
            );
        } else if let Some(k) = sql.strip_prefix("DELETE FROM Sessions WHERE k = ") {
            rows.remove(&int(k, sql)?).ok_or_else(|| bad(sql))?;
        } else {
            return Err(bad(sql));
        }
    }
    Ok(rows.into_values().collect())
}

impl Workload for Durable {
    fn inputs(&self) -> Vec<(&'static str, String)> {
        let statements = self.statements(false);
        let share = |prefix: &str| {
            statements.iter().filter(|s| s.starts_with(prefix)).count() as f64
                / statements.len() as f64
        };
        vec![
            ("engine", "durable, file-backed".into()),
            ("pool_pages", POOL_PAGES.to_string()),
            ("sessions_rows", SESSIONS.to_string()),
            (
                "standing_queries",
                if self.standing { "3" } else { "0" }.into(),
            ),
            ("statements_per_repetition", statements.len().to_string()),
            (
                "mix",
                format!(
                    "{:.3} UPDATE, {:.3} INSERT, {:.3} DELETE, one row each",
                    share("UPDATE"),
                    share("INSERT"),
                    share("DELETE")
                ),
            ),
            (
                "update_keys",
                format!(
                    "{:.3} of the stream's UPDATEs hit the lowest {:.0}% of live keys",
                    self.dml.hot_updates as f64 / self.dml.updates as f64,
                    100.0 * gen::HOT_KEY_SHARE
                ),
            ),
            (
                "final_rows_full_stream",
                self.dml.final_rows.len().to_string(),
            ),
            ("threads", "1".into()),
        ]
    }

    fn rep(&self, warm_up: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let statements = self.statements(warm_up);
        let dir = ScratchDir::new(if self.standing {
            "standing_delta"
        } else {
            "write_durable"
        });
        rep.setup.resume();
        let db = self.engine(dir.path(), &mut rep.setup)?;
        let mut subs = match self.standing {
            true => Some(Subscriptions::open(&db)?),
            false => None,
        };
        rep.setup.lap();

        let before = Counters::read(&db);
        let pass = self.pass(&db, dir.path(), statements, subs.as_mut(), None)?;
        let after = Counters::read(&db);
        rep.latencies_us = pass.latencies_us;
        rep.failed = pass.failed;
        rep.counts.insert(
            "wal_bytes",
            after.counter_since(&before, "crowddb_wal_bytes_appended_total"),
        );
        rep.counts.insert(
            "wal_appends",
            after.counter_since(&before, "crowddb_wal_appends_total"),
        );
        rep.counts
            .insert("checkpoints", pass.checkpoints.len() as f64);

        if let Some(subs) = &subs {
            subs.verify(&db)?;
        }
        // A crash: no close, no final checkpoint. Whatever was
        // acknowledged must be there after recovery.
        drop(db);
        let db = self.open(dir.path())?;
        self.verify_rows(&db, statements)?;
        Ok(rep)
    }

    fn trace(&self, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::new();
        let statements = self.statements(false);
        let n = statements.len() as f64;

        // The no-subscriber twin on the same statements: what the standing
        // queries add is the difference.
        let twin_p50 = if self.standing {
            let twin_dir = ScratchDir::new("durable-twin");
            let twin = self.engine(twin_dir.path(), &mut Laps::start())?;
            p50(&self
                .pass(&twin, twin_dir.path(), statements, None, None)?
                .latencies_us)
        } else {
            0.0
        };

        let dir = ScratchDir::new("durable-traced");
        let db = self.engine(dir.path(), &mut Laps::start())?;
        let mut subs = match self.standing {
            true => Some(Subscriptions::open(&db)?),
            false => None,
        };
        let before = Counters::read(&db);
        let pass = self.pass(&db, dir.path(), statements, subs.as_mut(), Some(tracer))?;
        let after = Counters::read(&db);
        if let Some(subs) = &subs {
            subs.verify(&db)?;
        }
        let stmt = p50(&pass.latencies_us);
        let since = |name: &str| after.counter_since(&before, name);

        let parse = p50(&tracer.durations_us("sql.parse"));
        layers.insert("sql.parse_us", parse);
        layers.insert(
            "sql.share",
            tracer.durations_us("sql.parse").iter().sum::<f64>()
                / pass.latencies_us.iter().sum::<f64>(),
        );
        layers.insert(
            "wal.appends_per_stmt",
            since("crowddb_wal_appends_total") / n,
        );
        layers.insert(
            "wal.bytes_per_append",
            since("crowddb_wal_bytes_appended_total") / since("crowddb_wal_appends_total").max(1.0),
        );
        layers.insert(
            "wal.bytes_per_stmt",
            since("crowddb_wal_bytes_appended_total") / n,
        );
        layers.insert("wal.fsyncs_per_stmt", since("crowddb_wal_fsyncs_total") / n);
        let checkpoints = since("crowddb_wal_checkpoints_total");
        if checkpoints != pass.checkpoints.len() as f64 {
            return Err(format!(
                "saw the log truncated {} time(s), the engine counted {checkpoints} checkpoint(s)",
                pass.checkpoints.len()
            ));
        }
        let checkpoint_ms: Vec<f64> = pass
            .checkpoints
            .iter()
            .map(|i| (pass.latencies_us[*i] - stmt) / 1_000.0)
            .collect();
        layers.insert("storage.checkpoint_ms", p50(&checkpoint_ms));
        layers.insert(
            "storage.pages_written_per_checkpoint",
            since("crowddb_checkpoint_pages_written_total") / checkpoints.max(1.0),
        );
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

        let evals = since("crowddb_subscription_evals_total");
        layers.insert("core.sub_evals_per_dml", evals / n);
        layers.insert(
            "core.sub_delta_rows_per_eval",
            (since("crowddb_subscription_rows_added_total")
                + since("crowddb_subscription_rows_removed_total"))
                / evals.max(1.0),
        );
        if self.standing {
            layers.insert("core.dml_p50_us", twin_p50);
            layers.insert("core.sub_eval_us", stmt - twin_p50);
        } else {
            layers.insert("core.dml_p50_us", stmt);
        }

        // The log tail the crash leaves behind, then the crash itself.
        let image = std::fs::read(dir.path().join(WAL_FILE))
            .map_err(|e| format!("reading the log: {e}"))?;
        let (tail, _) = scan_frames(&image).map_err(|e| format!("scanning the log: {e}"))?;
        let user_bytes: usize = replay_model(&self.sessions, statements)?
            .iter()
            .map(|s| 16 + s.room.len())
            .sum();
        layers.insert(
            "storage.disk_bytes_per_user_byte",
            dir_bytes(dir.path()) as f64 / user_bytes as f64,
        );
        drop(db);
        let id = tracer.begin_statement();
        let (reopened, reopen) = tracer.span("wal.reopen", id, || self.open(dir.path()));
        let reopened = reopened?;
        self.verify_rows(&reopened, statements)?;
        layers.insert("wal.reopen_ms", micros(reopen) / 1_000.0);
        layers.insert(
            "wal.replay_records_per_s",
            tail.len() as f64 / reopen.as_secs_f64(),
        );

        // The same records through `DurableStore` alone: what an append
        // and a group-commit fsync cost without the engine around them.
        let replay_dir = ScratchDir::new("durable-replay");
        let (mut store, _) = DurableStore::open(replay_dir.path(), FsyncPolicy::Never)
            .map_err(|e| format!("opening the replay store: {e}"))?;
        // The tail is short; go round it until a few group commits fit.
        let records: Vec<&LogRecord> = tail.iter().map(|(_, rec)| rec).collect();
        for (i, rec) in records.iter().cycle().take(REPLAY_APPENDS).enumerate() {
            let (r, _) = tracer.span("wal.append", id, || store.append(rec));
            r.map_err(|e| format!("replay append: {e}"))?;
            if (i + 1) % 64 == 0 {
                let (r, _) = tracer.span("wal.fsync", id, || store.sync());
                r.map_err(|e| format!("replay fsync: {e}"))?;
            }
        }
        layers.insert("wal.append_us", p50(&tracer.durations_us("wal.append")));
        layers.insert("wal.fsync_us", p50(&tracer.durations_us("wal.fsync")));

        // Tracing wraps the same `execute()` call, so a statement takes as
        // long traced as untraced; what tracing costs is the loop around
        // the statements (the parse span, the log-size probe).
        layers.insert("stmt.untraced_p50_us", stmt);
        layers.insert("stmt.untraced_p95_us", p95(&pass.latencies_us));
        layers.insert("stmt.traced_p50_us", stmt);
        layers.insert("stmt.count", n);
        let inside: f64 = pass.latencies_us.iter().sum::<f64>() / 1e6;
        layers.insert("trace_overhead", pass.wall.as_secs_f64() / inside);
        Ok(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaying_the_whole_stream_gives_the_generators_final_rows() {
        let d = Durable::new(11, false);
        let model = replay_model(&d.sessions, &d.dml.statements).unwrap();
        assert_eq!(model, d.dml.final_rows);
        assert!(replay_model(&d.sessions, &["DROP TABLE Sessions".to_string()]).is_err());
    }
}
