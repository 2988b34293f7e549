//! `scan_join`: the executor and the storage engine do nearly all the
//! work, over a table several times the size of the buffer pool.

use std::collections::{BTreeMap, HashMap};

use crowddb_common::Row;
use crowddb_core::CrowdDB;

use crate::gen::{self, Attendee, ScanQuery, SplitMix64, Talk};
use crate::harness::{engine_config, Laps, Layers, Rep, ScratchDir, Workload};
use crate::trace::Tracer;
use crate::workloads::{
    head, render_rows, require_local, run_setup, silent_platform, trace_local_selects,
};

pub const ATTENDEES: usize = 20_000;
pub const TALKS: usize = 500;
/// Buffer-pool budget: about a quarter of the pages `Attendee` fills.
pub const POOL_PAGES: usize = 64;
pub const OPS: usize = 200;
const WARM_OPS: usize = 20;

pub struct ScanJoin {
    attendees: Vec<Attendee>,
    talks: Vec<Talk>,
    stream: Vec<ScanQuery>,
    /// Reference answer per distinct query; unordered answers sorted.
    expect: HashMap<String, Vec<Vec<String>>>,
}

/// The answer to `q` from the generated rows alone.
fn reference(q: &ScanQuery, attendees: &[Attendee], talks: &[Talk]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = match q {
        ScanQuery::AgeRange { lo, hi } => attendees
            .iter()
            .filter(|a| (*lo..=*hi).contains(&a.age))
            .map(|a| vec![a.id.to_string(), a.name.clone()])
            .collect(),
        ScanQuery::TalkProbe { talk } => {
            let ages: Vec<i64> = attendees
                .iter()
                .filter(|a| a.talk == *talk)
                .map(|a| a.age)
                .collect();
            let bound = |v: Option<&i64>| v.map_or("NULL".to_string(), |a| a.to_string());
            vec![vec![
                ages.len().to_string(),
                bound(ages.iter().min()),
                bound(ages.iter().max()),
            ]]
        }
        ScanQuery::JoinByTrack { age_below } => {
            let mut per_track: BTreeMap<&str, u64> = BTreeMap::new();
            for a in attendees.iter().filter(|a| a.age < *age_below) {
                *per_track.entry(talks[a.talk as usize].track).or_default() += 1;
            }
            per_track
                .into_iter()
                .map(|(track, n)| vec![track.to_string(), n.to_string()])
                .collect()
        }
        ScanQuery::CityRollup => {
            let mut per_city: BTreeMap<&str, (u64, i64)> = BTreeMap::new();
            for a in attendees {
                let e = per_city.entry(a.city).or_default();
                e.0 += 1;
                e.1 += a.age;
            }
            per_city
                .into_iter()
                .map(|(city, (n, sum))| vec![city.to_string(), n.to_string(), sum.to_string()])
                .collect()
        }
        ScanQuery::OldestIn { city } => {
            let mut local: Vec<&Attendee> = attendees.iter().filter(|a| a.city == *city).collect();
            local.sort_by_key(|a| (-a.age, a.id));
            return local
                .iter()
                .take(10)
                .map(|a| vec![a.id.to_string(), a.age.to_string()])
                .collect();
        }
    };
    rows.sort();
    rows
}

impl ScanJoin {
    pub fn new(seed: u64) -> ScanJoin {
        let mut load = SplitMix64::stream(seed, "scan_join.load");
        let talks = gen::talks(&mut load, TALKS);
        let attendees = gen::attendees(&mut load, ATTENDEES, TALKS);
        let stream = gen::scan_queries(&mut SplitMix64::stream(seed, "scan_join.ops"), TALKS, OPS);
        let mut expect = HashMap::new();
        for q in &stream {
            expect
                .entry(q.sql())
                .or_insert_with(|| reference(q, &attendees, &talks));
        }
        ScanJoin {
            attendees,
            talks,
            stream,
            expect,
        }
    }

    /// A file-backed engine holding both tables and the secondary index,
    /// checkpointed so every page is clean and evictable.
    fn engine(&self, laps: &mut Laps) -> Result<(CrowdDB, ScratchDir), String> {
        let dir = ScratchDir::new("scan_join");
        let db = CrowdDB::open_with_config(dir.path(), engine_config(POOL_PAGES))
            .map_err(|e| format!("open: {e}"))?;
        run_setup(&db, [gen::ATTENDEE_DDL, gen::TALK_DDL], laps)?;
        run_setup(&db, gen::talks_load_sql(&self.talks), laps)?;
        run_setup(&db, gen::attendees_load_sql(&self.attendees), laps)?;
        run_setup(&db, [gen::ATTENDEE_INDEX_DDL], laps)?;
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        laps.lap();
        let mut platform = silent_platform();
        for q in &self.stream[..WARM_OPS] {
            db.execute(&q.sql(), &mut platform)
                .map_err(|e| format!("warm-up: {e}"))?;
            laps.lap();
        }
        Ok((db, dir))
    }

    fn check(&self, i: usize, rows: &[Row]) -> Result<(), String> {
        let q = &self.stream[i];
        let mut got = render_rows(rows);
        if !matches!(q, ScanQuery::OldestIn { .. }) {
            got.sort();
        }
        if got == self.expect[&q.sql()] {
            Ok(())
        } else {
            Err(format!(
                "wrong answer: {} returned {} row(s), the reference has {}",
                head(&q.sql()),
                got.len(),
                self.expect[&q.sql()].len()
            ))
        }
    }
}

impl Workload for ScanJoin {
    fn inputs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("engine", "file-backed, checkpointed after load".into()),
            ("pool_pages", POOL_PAGES.to_string()),
            ("attendee_rows", ATTENDEES.to_string()),
            ("talk_rows", TALKS.to_string()),
            ("statements_per_repetition", OPS.to_string()),
            (
                "mix",
                "per 20: 15 index probes, 2 joins, 1 range scan, 1 roll-up, 1 top-10".into(),
            ),
            ("threads", "1".into()),
        ]
    }

    fn rep(&self, warm_up: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let (db, _dir) = self.engine(&mut rep.setup)?;

        let mut platform = silent_platform();
        let ops = if warm_up { OPS / 4 } else { OPS };
        for (i, q) in self.stream[..ops].iter().enumerate() {
            let sql = q.sql();
            if let Some(r) = rep.time(|| db.execute(&sql, &mut platform)) {
                require_local(&r, &sql)?;
                self.check(i, &r.rows)?;
            }
        }
        Ok(rep)
    }

    fn trace(&self, tracer: &mut Tracer) -> Result<Layers, String> {
        let (db, dir) = self.engine(&mut Laps::start())?;
        let sqls: Vec<String> = self.stream.iter().map(ScanQuery::sql).collect();
        let mut layers = trace_local_selects(&db, &sqls, &|i, rows| self.check(i, rows), tracer)?;
        let user_bytes: usize = self
            .attendees
            .iter()
            .map(|a| 3 * 8 + a.name.len() + a.city.len())
            .chain(self.talks.iter().map(|t| 8 + t.title.len() + t.track.len()))
            .sum();
        layers.insert(
            "storage.disk_bytes_per_user_byte",
            crate::harness::dir_bytes(dir.path()) as f64 / user_bytes as f64,
        );
        Ok(layers)
    }
}
