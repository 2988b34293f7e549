//! `crowd_cold`: forty crowd statements against the seeded AMT simulator
//! on a fresh engine, then the same forty again, memorized.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crowddb_core::{CrowdDB, QueryResult};
use crowddb_platform::{Answer, ClosureModel, Platform, SimPlatform, TaskKind};

use crate::gen::{self, CrowdStatement, CrowdWorld, SplitMix64};
use crate::harness::{engine_config, micros, Laps, Layers, Rep, Workload};
use crate::trace::{staged_select, Span, TimedPlatform, Tracer};
use crate::workloads::{head, p50, p95, render_rows, run_setup, Counters};

/// Fresh engine + simulator sessions per repetition, each with its own
/// simulator seed: one marketplace's luck must not set a run's numbers.
pub const SESSIONS_PER_REP: usize = 25;

pub struct CrowdCold {
    world: Arc<CrowdWorld>,
    statements: Vec<CrowdStatement>,
    seed: u64,
}

/// What one session (cold pass + warm pass) produced.
#[derive(Default)]
struct Session {
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    cents: u64,
    hits: u64,
    virtual_s: f64,
    rounds: u64,
    /// `(correct, scored)` against the generator's ground truth.
    score: (u64, u64),
    warm_free: u64,
}

impl Session {
    /// Folds another session's samples and counts into this one.
    fn absorb(&mut self, other: Session) {
        self.cold_us.extend(other.cold_us);
        self.warm_us.extend(other.warm_us);
        self.cents += other.cents;
        self.hits += other.hits;
        self.virtual_s += other.virtual_s;
        self.rounds += other.rounds;
        self.score.0 += other.score.0;
        self.score.1 += other.score.1;
        self.warm_free += other.warm_free;
    }
}

fn field<'a>(pairs: &'a [(String, String)], name: &str) -> &'a str {
    pairs.iter().find(|(k, _)| k == name).map_or("", |(_, v)| v)
}

/// What a diligent worker answers: the generator's ground truth. The world
/// is a few dozen entries, so lookups are linear.
fn ideal_answer(world: &CrowdWorld, task: &TaskKind) -> Answer {
    match task {
        TaskKind::Probe { known, asked, .. } => {
            let name = field(known, "name");
            match world.professors.iter().find(|(n, _, _)| n == name) {
                Some((_, department, email)) => Answer::Form(
                    asked
                        .iter()
                        .map(|(col, _)| {
                            let v = if col == "department" {
                                department
                            } else {
                                email
                            };
                            (col.clone(), v.clone())
                        })
                        .collect(),
                ),
                None => Answer::Blank,
            }
        }
        TaskKind::NewTuples { preset, .. } => {
            let talk = field(preset, "talk");
            match world.talks.iter().find(|(t, _)| t == talk) {
                Some((_, tags)) => Answer::Tuples(
                    tags.iter()
                        .map(|t| vec![("tag".to_string(), t.clone())])
                        .collect(),
                ),
                None => Answer::Blank,
            }
        }
        TaskKind::Equal { left, right, .. } => {
            let same = world.company_pairs.iter().any(|(_, l, r, same)| {
                *same && ((l == left && r == right) || (l == right && r == left))
            });
            if same {
                Answer::Yes
            } else {
                Answer::No
            }
        }
        TaskKind::Order { left, right, .. } => {
            let rank = |label: &String| world.ranked.iter().position(|l| l == label);
            match (rank(left), rank(right)) {
                (Some(l), Some(r)) if l <= r => Answer::Left,
                (Some(_), Some(_)) => Answer::Right,
                _ => Answer::Blank,
            }
        }
        _ => Answer::Blank,
    }
}

impl CrowdCold {
    pub fn new(seed: u64) -> CrowdCold {
        let world = gen::crowd_world(&mut SplitMix64::stream(seed, "crowd_cold.world"));
        let statements = world.statements();
        CrowdCold {
            world: Arc::new(world),
            statements,
            seed,
        }
    }

    /// Session `session`'s simulator: its own seed, the shared ground truth.
    fn platform(&self, session: usize) -> SimPlatform {
        let world = Arc::clone(&self.world);
        let model = ClosureModel::new(move |task: &TaskKind| ideal_answer(&world, task));
        let stream = format!("crowd_cold.sim.{session}");
        let sim_seed = SplitMix64::stream(self.seed, &stream).next_u64();
        SimPlatform::amt(sim_seed, Box::new(model))
    }

    fn engine(&self, laps: &mut Laps) -> Result<CrowdDB, String> {
        let db = CrowdDB::with_config(engine_config(0));
        run_setup(&db, self.world.load_sql(), laps)?;
        Ok(db)
    }

    /// Scores the cold pass against ground truth: every crowd-sourced
    /// professor value, join tuple, pair verdict and order position.
    fn score(&self, db: &CrowdDB, cold: &[QueryResult]) -> Result<(u64, u64), String> {
        let (mut correct, mut scored) = (0u64, 0u64);
        let mut tally = |ok: bool| {
            scored += 1;
            correct += u64::from(ok);
        };
        // Values: what storage memorized for every asked (professor, column).
        let stored = db
            .execute_local("SELECT name, department, email FROM Professor")
            .map_err(|e| format!("reading Professor back: {e}"))?;
        let stored: HashMap<String, (String, String)> = render_rows(&stored.rows)
            .into_iter()
            .map(|r| (r[0].clone(), (r[1].clone(), r[2].clone())))
            .collect();
        for (i, (name, department, email)) in self.world.professors.iter().enumerate() {
            let got = stored
                .get(name)
                .ok_or_else(|| format!("professor {name} vanished"))?;
            tally(&got.0 == department);
            if i < 32 && i % 2 == 1 {
                tally(&got.1 == email);
            }
        }
        for (statement, result) in self.statements.iter().zip(cold) {
            let rows = render_rows(&result.rows);
            match statement {
                CrowdStatement::Probe { .. } => {}
                CrowdStatement::Join { titles, .. } => {
                    let got: BTreeSet<(String, String)> =
                        rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
                    let want: BTreeSet<(String, String)> = self
                        .world
                        .talks
                        .iter()
                        .filter(|(t, _)| titles.contains(t))
                        .flat_map(|(t, tags)| tags.iter().map(move |g| (t.clone(), g.clone())))
                        .collect();
                    for tuple in got.union(&want) {
                        tally(got.contains(tuple) && want.contains(tuple));
                    }
                }
                CrowdStatement::Resolve { .. } => {
                    let matched: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
                    for (id, _, _, same) in &self.world.company_pairs {
                        tally(matched.contains(&id.to_string()) == *same);
                    }
                }
                CrowdStatement::Order { .. } => {
                    for (position, label) in self.world.ranked.iter().enumerate() {
                        tally(rows.get(position).is_some_and(|r| &r[0] == label));
                    }
                }
            }
        }
        Ok((correct, scored))
    }

    /// One session on `platform`: the forty statements cold, then warm.
    /// `observe` sees every cold statement's index, result and interval.
    fn session<P: Platform>(
        &self,
        db: &CrowdDB,
        platform: &mut P,
        mut observe: impl FnMut(&mut P, usize, &QueryResult, Instant, Instant),
    ) -> Result<Session, String> {
        let mut out = Session::default();
        let mut cold = Vec::with_capacity(self.statements.len());
        for (i, statement) in self.statements.iter().enumerate() {
            let t0 = Instant::now();
            let r = db.execute(statement.sql(), platform);
            let t1 = Instant::now();
            let r = r.map_err(|e| format!("{e}: {}", head(statement.sql())))?;
            out.cold_us.push(micros(t1 - t0));
            out.cents += r.crowd.cents_spent;
            out.hits += r.crowd.tasks_posted;
            out.virtual_s += r.crowd.virtual_secs;
            out.rounds += r.crowd.rounds as u64;
            observe(platform, i, &r, t0, t1);
            cold.push(r);
        }
        // The bill reconciles three ways.
        let platform_cents = platform.stats().cents_spent;
        let registry_cents = db.metrics().counter("crowddb_crowd_cents_spent_total");
        if out.cents != platform_cents || out.cents != registry_cents {
            return Err(format!(
                "the bill does not reconcile: statements {}¢, platform {platform_cents}¢, registry {registry_cents}¢",
                out.cents
            ));
        }
        out.score = self.score(db, &cold)?;

        let posted = platform.stats().hits_posted;
        for statement in &self.statements {
            let t0 = Instant::now();
            let r = db.execute(statement.sql(), platform);
            out.warm_us.push(micros(t0.elapsed()));
            let r = r.map_err(|e| format!("warm pass: {e}: {}", head(statement.sql())))?;
            out.warm_free += u64::from(r.crowd.tasks_posted == 0 && r.crowd.cents_spent == 0);
        }
        if platform.stats().hits_posted != posted || platform.stats().cents_spent != platform_cents
        {
            return Err(format!(
                "the warm pass went back to the crowd: {} HIT(s) posted",
                platform.stats().hits_posted - posted
            ));
        }
        Ok(out)
    }
}

impl Workload for CrowdCold {
    fn inputs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "in-memory, fresh per session".into()),
            ("pool_pages", "0".into()),
            ("platform", "SimPlatform::amt, one simulator seed per session".into()),
            ("sessions_per_repetition", SESSIONS_PER_REP.to_string()),
            ("statements_per_session", self.statements.len().to_string()),
            ("mix", "32 probes, 1 sweep of 40 rows, 5 joins, 1 CROWDEQUAL over 30 pairs, 1 CROWDORDER over 12".into()),
            ("timed", "the cold pass; the warm pass is checked to post nothing".into()),
            ("threads", "1".into()),
        ]
    }

    fn rep(&self, warm_up: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let mut total = Session::default();
        let sessions = if warm_up {
            SESSIONS_PER_REP / 4
        } else {
            SESSIONS_PER_REP
        };
        for s in 0..sessions {
            rep.setup.resume();
            let db = self.engine(&mut rep.setup)?;
            let mut platform = self.platform(s);
            rep.setup.lap();
            total.absorb(self.session(&db, &mut platform, |_, _, _, _, _| {})?);
        }
        rep.latencies_us = total.cold_us;
        rep.counts.insert("cents", total.cents as f64);
        rep.counts.insert("hits", total.hits as f64);
        rep.counts.insert("virtual_s", total.virtual_s);
        rep.counts.insert("correct", total.score.0 as f64);
        rep.counts.insert("scored", total.score.1 as f64);
        Ok(rep)
    }

    fn trace(&self, tracer: &mut Tracer) -> Result<Layers, String> {
        let mut layers = Layers::new();
        let statements = (SESSIONS_PER_REP * self.statements.len()) as f64;

        // Untraced sessions on the bare simulator: the baseline.
        let mut untraced = Session::default();
        let mut untraced_wall = Duration::ZERO;
        for s in 0..SESSIONS_PER_REP {
            let db = self.engine(&mut Laps::start())?;
            let mut platform = self.platform(s);
            let started = Instant::now();
            untraced.absorb(self.session(&db, &mut platform, |_, _, _, _, _| {})?);
            untraced_wall += started.elapsed();
        }

        // The same sessions with the platform decorated and spans kept.
        let mut traced_wall = Duration::ZERO;
        let mut total = Session::default();
        let mut calls = crate::trace::PlatformCalls::default();
        let mut posted = Vec::new();
        let (mut assignments, mut platform_hits) = (0u64, 0u64);
        let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
        let mut self_us = Vec::new();
        let mut events = 0.0;
        for s in 0..SESSIONS_PER_REP {
            let db = self.engine(&mut Laps::start())?;
            let mut platform = TimedPlatform::new(self.platform(s));
            let before = Counters::read(&db);
            let mut busy_before = Duration::ZERO;
            let mut samples: Vec<(usize, Duration, Duration, u64)> = Vec::new();
            let started = Instant::now();
            let session = self.session(&db, &mut platform, |p, i, r, t0, t1| {
                let id = tracer.begin_statement();
                tracer.record(Span {
                    name: "statement",
                    parent: 0,
                    start: t0,
                    end: t1,
                });
                p.drain_spans(tracer, id);
                samples.push((
                    i,
                    t1 - t0,
                    p.calls.busy - busy_before,
                    r.crowd.rounds as u64,
                ));
                busy_before = p.calls.busy;
            })?;
            traced_wall += started.elapsed();
            let after = Counters::read(&db);
            events += after.events_since(&before);
            for name in [
                "crowddb_votes_total",
                "crowddb_votes_unresolved_total",
                "crowddb_crowd_answers_total",
                "crowddb_quality_em_iters",
                "crowddb_quality_em_rounds_total",
                "crowddb_exec_cache_hits_total",
            ] {
                *counters.entry(name).or_default() += after.counter_since(&before, name);
            }
            // What the engine itself spent on each cold statement: wall
            // minus platform time minus the statement's local pipeline,
            // re-run stage by stage now that its answers are memorized
            // (parse and plan once, lower and execute once per round).
            let caches = db.with_caches(|c| c.clone());
            for (i, wall, busy, rounds) in samples {
                let id = tracer.begin_statement();
                let staged = staged_select(&db, &caches, self.statements[i].sql(), tracer, id)
                    .map_err(|e| format!("staged re-run: {e}"))?;
                let t = staged.times;
                let local = t.parse
                    + t.bind
                    + t.optimize
                    + t.bounded
                    + (t.lower + t.execute) * rounds as u32;
                self_us.push(micros(wall.saturating_sub(busy).saturating_sub(local)));
            }
            let stats = platform.inner().stats();
            assignments += stats.assignments_completed;
            platform_hits += stats.hits_posted;
            calls.absorb(&platform.calls);
            posted.append(&mut platform.posted);
            total.absorb(session);
        }

        let id = tracer.begin_statement();
        for kind in &posted {
            let (page, _) = tracer.span("ui.render", id, || crowddb_ui::render_task(kind));
            std::hint::black_box(page);
        }

        let stmt = p50(&total.cold_us);
        layers.insert(
            "platform.post_calls_per_stmt",
            calls.post as f64 / statements,
        );
        layers.insert(
            "platform.advance_calls_per_stmt",
            calls.advance as f64 / statements,
        );
        layers.insert(
            "platform.collect_calls_per_stmt",
            calls.collect as f64 / statements,
        );
        layers.insert(
            "platform.extend_calls_per_stmt",
            calls.extend as f64 / statements,
        );
        layers.insert("platform.busy_us_per_stmt", micros(calls.busy) / statements);
        layers.insert(
            "platform.assignments_per_hit",
            assignments as f64 / platform_hits.max(1) as f64,
        );
        layers.insert("platform.cents_per_stmt", total.cents as f64 / statements);
        layers.insert("platform.hits_per_stmt", total.hits as f64 / statements);
        layers.insert("platform.virtual_s_per_stmt", total.virtual_s / statements);
        layers.insert(
            "quality.accuracy",
            total.score.0 as f64 / total.score.1 as f64,
        );
        layers.insert(
            "quality.votes_per_verdict",
            counters["crowddb_crowd_answers_total"] / counters["crowddb_votes_total"].max(1.0),
        );
        layers.insert(
            "quality.unresolved_share",
            counters["crowddb_votes_unresolved_total"] / counters["crowddb_votes_total"].max(1.0),
        );
        layers.insert(
            "quality.em_iters_per_round",
            counters["crowddb_quality_em_iters"]
                / counters["crowddb_quality_em_rounds_total"].max(1.0),
        );
        layers.insert("ui.render_us", p50(&tracer.durations_us("ui.render")));
        layers.insert("core.fulfill_self_us", p50(&self_us));
        layers.insert("core.memo_hit_share", total.warm_free as f64 / statements);
        layers.insert("core.warm_stmt_us", p50(&total.warm_us));
        layers.insert("exec.rounds_per_stmt", total.rounds as f64 / statements);
        layers.insert(
            "exec.cache_hits_per_stmt",
            counters["crowddb_exec_cache_hits_total"] / (2.0 * statements),
        );
        layers.insert("obs.events_per_stmt", events / (2.0 * statements));
        // From the memorized re-runs: one local round of each statement.
        for (metric, span) in [
            ("sql.parse_us", "sql.parse"),
            ("plan.bind_us", "plan.bind"),
            ("plan.optimize_us", "plan.optimize"),
            ("plan.bounded_us", "plan.bounded"),
            ("plan.lower_us", "plan.lower"),
            ("exec.execute_us", "exec.execute"),
        ] {
            layers.insert(metric, p50(&tracer.durations_us(span)));
        }
        layers.insert(
            "sql.share",
            tracer.durations_us("sql.parse").iter().sum::<f64>()
                / total.cold_us.iter().sum::<f64>(),
        );
        layers.insert("stmt.untraced_p50_us", p50(&untraced.cold_us));
        layers.insert("stmt.untraced_p95_us", p95(&untraced.cold_us));
        layers.insert("stmt.traced_p50_us", stmt);
        layers.insert("stmt.count", statements);
        layers.insert(
            "trace_overhead",
            traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        );
        Ok(layers)
    }
}
