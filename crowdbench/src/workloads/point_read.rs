//! `point_read`: statements so small that parsing, planning and the
//! engine's per-statement bookkeeping are a large fixed share of each one.

use crowddb_common::Row;
use crowddb_core::CrowdDB;
use crowddb_platform::{Answer, MockPlatform, TaskKind};

use crate::gen::{self, SplitMix64};
use crate::harness::{engine_config, Laps, Layers, Rep, Workload};
use crate::trace::Tracer;
use crate::workloads::{
    head, render_rows, require_local, run_setup, silent_platform, trace_local_selects,
};

pub const SESSIONS: usize = 4_000;
pub const TITLES: usize = 64;
/// Compare verdicts seeded into the session caches, so the per-round
/// `SharedCaches::snapshot()` copies a realistically filled cache.
pub const VERDICTS: usize = 2_000;
pub const OPS: usize = 1_000;
/// Statements run on a fresh engine before the timed window opens.
const WARM_OPS: usize = 200;

pub struct PointRead {
    pub seed: u64,
    sessions: Vec<gen::Session>,
    pub stream: Vec<gen::PointRead>,
}

impl PointRead {
    pub fn new(seed: u64) -> PointRead {
        let sessions = gen::sessions(&mut SplitMix64::stream(seed, "point_read.load"), SESSIONS);
        let stream = gen::point_reads(
            &mut SplitMix64::stream(seed, "point_read.ops"),
            &sessions,
            TITLES,
            OPS,
        );
        PointRead {
            seed,
            sessions,
            stream,
        }
    }

    /// Schema, load, crowd memorization, cache seeding and warm-up: an
    /// in-memory engine on which every statement of the stream is local.
    pub fn engine(&self, laps: &mut Laps) -> Result<CrowdDB, String> {
        let db = CrowdDB::with_config(engine_config(0));
        run_setup(&db, [gen::SESSIONS_DDL, gen::MEMO_TALK_DDL], laps)?;
        run_setup(&db, gen::sessions_load_sql(&self.sessions, 500), laps)?;
        let titles: Vec<String> = (0..TITLES)
            .map(|i| format!("({})", gen::quote(&gen::memo_title(i))))
            .collect();
        run_setup(
            &db,
            [format!(
                "INSERT INTO Talk (title) VALUES {}",
                titles.join(", ")
            )],
            laps,
        )?;

        // The crowd fills in every abstract once; from here on they are
        // memorized values in storage.
        let mut crowd = MockPlatform::unanimous(|task| match task {
            TaskKind::Probe { known, asked, .. } => {
                let title = known
                    .iter()
                    .find(|(c, _)| c == "title")
                    .map_or("", |(_, v)| v);
                Answer::Form(
                    asked
                        .iter()
                        .map(|(c, _)| (c.clone(), gen::memo_abstract(title)))
                        .collect(),
                )
            }
            _ => Answer::Blank,
        });
        let filled = db
            .execute("SELECT title, abstract FROM Talk", &mut crowd)
            .map_err(|e| format!("memorizing abstracts: {e}"))?;
        if !filled.complete || filled.rows.len() != TITLES {
            return Err("set-up could not memorize every abstract".into());
        }
        laps.lap();
        db.with_caches(|c| {
            for i in 0..VERDICTS {
                c.put_equal(
                    &format!("entity-{i:04}"),
                    &format!("entity-{:04}", i + 1),
                    "Do these refer to the same thing?",
                    i % 2 == 0,
                );
            }
        });
        laps.lap();

        let mut platform = silent_platform();
        for op in &self.stream[..WARM_OPS] {
            db.execute(&op.sql, &mut platform)
                .map_err(|e| format!("warm-up: {e}: {}", head(&op.sql)))?;
            laps.lap();
        }
        Ok(db)
    }

    /// `Err` unless `rows` is exactly the one row statement `i` must return.
    pub fn check(&self, i: usize, rows: &[Row]) -> Result<(), String> {
        let op = &self.stream[i];
        let got = render_rows(rows);
        if got.len() == 1 && got[0] == op.expect {
            Ok(())
        } else {
            Err(format!(
                "wrong answer: {} returned {got:?}, the generator's model says {:?}",
                head(&op.sql),
                op.expect
            ))
        }
    }

    pub fn sqls(&self) -> Vec<String> {
        self.stream.iter().map(|op| op.sql.clone()).collect()
    }
}

impl Workload for PointRead {
    fn inputs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "in-memory".into()),
            ("pool_pages", "0".into()),
            ("sessions_rows", SESSIONS.to_string()),
            ("memorized_titles", TITLES.to_string()),
            ("cached_verdicts", VERDICTS.to_string()),
            ("statements_per_repetition", OPS.to_string()),
            (
                "mix",
                "80% SELECT by primary key (uniform keys), 20% memorized crowd column".into(),
            ),
            ("threads", "1".into()),
        ]
    }

    fn rep(&self, warm_up: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let db = self.engine(&mut rep.setup)?;

        let mut platform = silent_platform();
        let ops = if warm_up { OPS / 4 } else { OPS };
        for (i, op) in self.stream[..ops].iter().enumerate() {
            if let Some(r) = rep.time(|| db.execute(&op.sql, &mut platform)) {
                require_local(&r, &op.sql)?;
                self.check(i, &r.rows)?;
            }
        }
        Ok(rep)
    }

    fn trace(&self, tracer: &mut Tracer) -> Result<Layers, String> {
        let db = self.engine(&mut Laps::start())?;
        let mut layers =
            trace_local_selects(&db, &self.sqls(), &|i, rows| self.check(i, rows), tracer)?;
        // The same stream on the same engine behind a server: what
        // `server_closed` measures, as this workload's `server.*` rows.
        let wire = crate::workloads::server::trace_wire(self, db, tracer)?;
        layers.extend(wire.into_iter().filter(|(k, _)| k.starts_with("server.")));
        Ok(layers)
    }
}
