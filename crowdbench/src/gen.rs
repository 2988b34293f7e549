//! Seeded input generation.
//!
//! Everything the engine is given — schemas, rows, statement streams and
//! the crowd's ground truth — comes from here, as SQL text and plain
//! values, drawn from one splitmix64 stream per workload. Nothing in this
//! module touches an engine type, so inputs are byte-identical for a seed
//! on every commit and whichever `rand` the engine links.

/// splitmix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for one named purpose under one seed.
    pub fn stream(seed: u64, purpose: &str) -> SplitMix64 {
        let mut h = seed ^ 0x6A09_E667_F3BC_C909;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut s = SplitMix64(h);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias < 2^-32 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Share of skewed draws that go to the hot set, and the hot set's share
/// of the key space (the 80/20 rule the record claims for updates).
pub const HOT_DRAW_SHARE: f64 = 0.8;
pub const HOT_KEY_SHARE: f64 = 0.2;

/// Index in `[0, n)`: 80 % of draws land in the first 20 % of indices.
pub fn skewed_index(rng: &mut SplitMix64, n: usize) -> usize {
    let hot = ((n as f64 * HOT_KEY_SHARE) as usize).max(1);
    if rng.below(100) < (HOT_DRAW_SHARE * 100.0) as u64 || hot == n {
        rng.below(hot as u64) as usize
    } else {
        hot + rng.below((n - hot) as u64) as usize
    }
}

/// SQL string literal.
pub fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// `INSERT INTO <table> VALUES (...), (...)` in statements of `chunk` rows.
pub fn insert_chunks(table: &str, tuples: &[String], chunk: usize) -> Vec<String> {
    tuples
        .chunks(chunk)
        .map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", ")))
        .collect()
}

pub const ROOMS: usize = 7;

pub fn room_name(i: usize) -> String {
    format!("room-{i}")
}

// ── Sessions / Talk: point_read, server_closed, write_durable, standing_delta

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    pub k: i64,
    pub room: String,
    pub cap: i64,
}

impl Session {
    fn tuple(&self) -> String {
        format!("({}, {}, {})", self.k, quote(&self.room), self.cap)
    }
}

pub const SESSIONS_DDL: &str =
    "CREATE TABLE Sessions (k INTEGER PRIMARY KEY, room STRING, cap INTEGER)";
pub const ROOM_DDL: &str = "CREATE TABLE Room (room STRING PRIMARY KEY, floor INTEGER)";
pub const MEMO_TALK_DDL: &str =
    "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)";

/// `n` sessions with keys `0..n` in shuffled insertion order.
pub fn sessions(rng: &mut SplitMix64, n: usize) -> Vec<Session> {
    let mut keys: Vec<i64> = (0..n as i64).collect();
    rng.shuffle(&mut keys);
    keys.into_iter()
        .map(|k| Session {
            k,
            room: room_name(rng.below(ROOMS as u64) as usize),
            cap: rng.between(10, 500),
        })
        .collect()
}

/// `INSERT` statements loading `rows`, `chunk` rows apiece.
pub fn sessions_load_sql(rows: &[Session], chunk: usize) -> Vec<String> {
    let tuples: Vec<String> = rows.iter().map(Session::tuple).collect();
    insert_chunks("Sessions", &tuples, chunk)
}

pub fn room_load_sql() -> String {
    let tuples: Vec<String> = (0..ROOMS)
        .map(|i| format!("({}, {})", quote(&room_name(i)), i / 2))
        .collect();
    format!("INSERT INTO Room VALUES {}", tuples.join(", "))
}

pub fn memo_title(i: usize) -> String {
    format!("talk-{i:03}")
}

/// What the crowd "knows" about a memorized talk.
pub fn memo_abstract(title: &str) -> String {
    format!("abstract of {title}")
}

/// One point-read statement and the single row it must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointRead {
    pub sql: String,
    /// Expected cells, rendered as the engine renders values.
    pub expect: Vec<String>,
}

pub const CROWD_READ_SHARE_PCT: u64 = 20;

/// The `point_read` stream: 80 % `SELECT … WHERE k = ?` with `k` uniform
/// over the loaded keys, 20 % reads of a memorized crowd column.
pub fn point_reads(
    rng: &mut SplitMix64,
    sessions: &[Session],
    titles: usize,
    n: usize,
) -> Vec<PointRead> {
    (0..n)
        .map(|_| {
            if rng.below(100) < CROWD_READ_SHARE_PCT {
                let title = memo_title(rng.below(titles as u64) as usize);
                PointRead {
                    sql: format!("SELECT abstract FROM Talk WHERE title = {}", quote(&title)),
                    expect: vec![memo_abstract(&title)],
                }
            } else {
                let s = &sessions[rng.below(sessions.len() as u64) as usize];
                PointRead {
                    sql: format!("SELECT room, cap FROM Sessions WHERE k = {}", s.k),
                    expect: vec![s.room.clone(), s.cap.to_string()],
                }
            }
        })
        .collect()
}

/// A single-row DML stream over `Sessions` plus the table contents it
/// must leave behind.
#[derive(Debug, Clone)]
pub struct DmlStream {
    pub statements: Vec<String>,
    /// Final rows, sorted by key.
    pub final_rows: Vec<Session>,
    /// How many UPDATE statements hit the hot fifth of the live keys.
    pub hot_updates: usize,
    pub updates: usize,
}

/// 50 % UPDATE (80/20-skewed over live keys), 30 % INSERT of a fresh key,
/// 20 % DELETE of a uniformly chosen live key.
pub fn dml_stream(rng: &mut SplitMix64, initial: &[Session], n: usize) -> DmlStream {
    let mut live: Vec<Session> = initial.to_vec();
    live.sort_by_key(|s| s.k);
    let mut next_key = live.iter().map(|s| s.k).max().unwrap_or(-1) + 1;
    let mut statements = Vec::with_capacity(n);
    let (mut hot_updates, mut updates) = (0, 0);
    for _ in 0..n {
        let dice = rng.below(100);
        if dice < 50 && !live.is_empty() {
            let i = skewed_index(rng, live.len());
            if i < ((live.len() as f64 * HOT_KEY_SHARE) as usize).max(1) {
                hot_updates += 1;
            }
            updates += 1;
            let s = &mut live[i];
            s.room = room_name(rng.below(ROOMS as u64) as usize);
            // Always a new capacity: every UPDATE changes its row, so every
            // DML owes the standing queries at least one delta batch.
            s.cap = 10 + (s.cap - 10 + rng.between(1, 490)) % 491;
            statements.push(format!(
                "UPDATE Sessions SET room = {}, cap = {} WHERE k = {}",
                quote(&s.room),
                s.cap,
                s.k
            ));
        } else if dice < 80 || live.is_empty() {
            let s = Session {
                k: next_key,
                room: room_name(rng.below(ROOMS as u64) as usize),
                cap: rng.between(10, 500),
            };
            next_key += 1;
            statements.push(format!("INSERT INTO Sessions VALUES {}", s.tuple()));
            live.push(s);
        } else {
            let i = rng.below(live.len() as u64) as usize;
            let s = live.remove(i);
            statements.push(format!("DELETE FROM Sessions WHERE k = {}", s.k));
        }
    }
    DmlStream {
        statements,
        final_rows: live,
        hot_updates,
        updates,
    }
}

/// The three standing queries of `standing_delta`: filter + project, join
/// with the 7-row `Room`, and `GROUP BY room`.
pub const STANDING_QUERIES: [&str; 3] = [
    "SELECT k, room FROM Sessions WHERE cap >= 250",
    "SELECT s.k, r.floor FROM Sessions s JOIN Room r ON s.room = r.room",
    "SELECT room, COUNT(*), SUM(cap) FROM Sessions GROUP BY room",
];

// ── Attendee / Talk: scan_join

pub const CITIES: [&str; 12] = [
    "Seattle", "Zurich", "Berkeley", "Munich", "Lyon", "Kyoto", "Austin", "Delhi", "Porto", "Oslo",
    "Lima", "Perth",
];
pub const TRACKS: [&str; 6] = ["systems", "theory", "crowd", "storage", "ml", "demo"];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attendee {
    pub id: i64,
    pub name: String,
    pub talk: i64,
    pub age: i64,
    pub city: &'static str,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Talk {
    pub id: i64,
    pub title: String,
    pub track: &'static str,
}

pub const ATTENDEE_DDL: &str = "CREATE TABLE Attendee (id INTEGER PRIMARY KEY, name STRING, \
     talk INTEGER, age INTEGER, city STRING)";
pub const TALK_DDL: &str = "CREATE TABLE Talk (id INTEGER PRIMARY KEY, title STRING, track STRING)";
pub const ATTENDEE_INDEX_DDL: &str = "CREATE INDEX attendee_talk ON Attendee (talk)";

pub fn talks(rng: &mut SplitMix64, n: usize) -> Vec<Talk> {
    (0..n as i64)
        .map(|id| Talk {
            id,
            title: format!("Talk {id:03} on {}", rng.pick(&TRACKS)),
            track: rng.pick(&TRACKS),
        })
        .collect()
}

pub fn attendees(rng: &mut SplitMix64, n: usize, talks: usize) -> Vec<Attendee> {
    (0..n as i64)
        .map(|id| Attendee {
            id,
            name: format!("attendee-{:05}-{:04x}", id, rng.below(1 << 16)),
            talk: rng.below(talks as u64) as i64,
            age: rng.between(18, 77),
            city: rng.pick(&CITIES),
        })
        .collect()
}

pub fn talks_load_sql(rows: &[Talk]) -> Vec<String> {
    let tuples: Vec<String> = rows
        .iter()
        .map(|t| format!("({}, {}, {})", t.id, quote(&t.title), quote(t.track)))
        .collect();
    insert_chunks("Talk", &tuples, 500)
}

pub fn attendees_load_sql(rows: &[Attendee]) -> Vec<String> {
    let tuples: Vec<String> = rows
        .iter()
        .map(|a| {
            format!(
                "({}, {}, {}, {}, {})",
                a.id,
                quote(&a.name),
                a.talk,
                a.age,
                quote(a.city)
            )
        })
        .collect();
    insert_chunks("Attendee", &tuples, 500)
}

/// One analytic query; the reference answer is computed from the
/// generated rows by `workloads::scan_join`, never by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanQuery {
    /// `SELECT id, name FROM Attendee WHERE age BETWEEN lo AND hi`
    AgeRange { lo: i64, hi: i64 },
    /// `SELECT COUNT(*), MIN(age), MAX(age) FROM Attendee WHERE talk = ?`
    TalkProbe { talk: i64 },
    /// `SELECT t.track, COUNT(*) … JOIN … WHERE a.age < ? GROUP BY t.track`
    JoinByTrack { age_below: i64 },
    /// `SELECT city, COUNT(*), SUM(age) FROM Attendee GROUP BY city`
    CityRollup,
    /// `SELECT id, age FROM Attendee WHERE city = ? ORDER BY age DESC, id LIMIT 10`
    OldestIn { city: &'static str },
}

impl ScanQuery {
    pub fn sql(&self) -> String {
        match self {
            ScanQuery::AgeRange { lo, hi } => {
                format!("SELECT id, name FROM Attendee WHERE age BETWEEN {lo} AND {hi}")
            }
            ScanQuery::TalkProbe { talk } => {
                format!("SELECT COUNT(*), MIN(age), MAX(age) FROM Attendee WHERE talk = {talk}")
            }
            ScanQuery::JoinByTrack { age_below } => format!(
                "SELECT t.track, COUNT(*) FROM Attendee a JOIN Talk t ON a.talk = t.id \
                 WHERE a.age < {age_below} GROUP BY t.track"
            ),
            ScanQuery::CityRollup => {
                "SELECT city, COUNT(*), SUM(age) FROM Attendee GROUP BY city".to_string()
            }
            ScanQuery::OldestIn { city } => format!(
                "SELECT id, age FROM Attendee WHERE city = {} ORDER BY age DESC, id LIMIT 10",
                quote(city)
            ),
        }
    }
}

/// The `scan_join` stream, in shuffled order: per 20 statements, 15 index
/// probes on `Attendee.talk` (about 40 rows each), 2 joins and 1 each of
/// range scan, roll-up and top-10 (20 000 rows each). The shares are exact,
/// not drawn, so for every seed the median sits among the probes, the 95th
/// percentile in the middle of the joins, and the scans carry most of the
/// time.
pub fn scan_queries(rng: &mut SplitMix64, talks: usize, n: usize) -> Vec<ScanQuery> {
    let mut out: Vec<ScanQuery> = (0..n)
        .map(|i| match i % 20 {
            0..=14 => ScanQuery::TalkProbe {
                talk: rng.below(talks as u64) as i64,
            },
            15 | 16 => ScanQuery::JoinByTrack {
                age_below: rng.between(25, 40),
            },
            17 => {
                let lo = rng.between(18, 75);
                ScanQuery::AgeRange { lo, hi: lo + 2 }
            }
            18 => ScanQuery::CityRollup,
            _ => ScanQuery::OldestIn {
                city: rng.pick(&CITIES),
            },
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

// ── crowd_cold

pub const DEPARTMENTS: [&str; 8] = [
    "Computer Science",
    "Mathematics",
    "Physics",
    "Statistics",
    "Economics",
    "Biology",
    "Chemistry",
    "Linguistics",
];

const GIVEN: [&str; 10] = [
    "Ada", "Boris", "Chen", "Dalia", "Emil", "Farah", "Goran", "Hana", "Ivo", "Jun",
];
const FAMILY: [&str; 10] = [
    "Abel", "Brandt", "Castro", "Dietrich", "Endo", "Fischer", "Garcia", "Huang", "Ibsen", "Jensen",
];
const COMPANY_STEMS: [&str; 15] = [
    "Northwind",
    "Globex",
    "Initech",
    "Umbrella",
    "Hooli",
    "Vandelay",
    "Wonka",
    "Stark",
    "Wayne",
    "Tyrell",
    "Cyberdyne",
    "Aperture",
    "Soylent",
    "Oscorp",
    "Gringotts",
];

/// The ground truth behind one `crowd_cold` session.
#[derive(Debug, Clone)]
pub struct CrowdWorld {
    /// `(name, department, email)`
    pub professors: Vec<(String, String, String)>,
    /// `(title, tags)`
    pub talks: Vec<(String, Vec<String>)>,
    /// `(id, left name, right name, same entity)`
    pub company_pairs: Vec<(i64, String, String, bool)>,
    /// Labels in true best-first order; a label's rank is its position.
    pub ranked: Vec<String>,
}

pub const CROWD_DDL: [&str; 6] = [
    "CREATE TABLE Professor (name STRING PRIMARY KEY, department CROWD STRING, email CROWD STRING)",
    "CREATE TABLE Talk (title STRING PRIMARY KEY)",
    "CREATE CROWD TABLE tag (talk STRING, tag STRING, PRIMARY KEY (talk, tag))",
    "CREATE TABLE CompanyA (id INTEGER PRIMARY KEY, name STRING)",
    "CREATE TABLE CompanyB (id INTEGER PRIMARY KEY, name STRING)",
    "CREATE TABLE Pic (label STRING PRIMARY KEY)",
];

pub const ORDER_INSTRUCTION: &str = "Which picture shows the venue better?";

pub fn crowd_world(rng: &mut SplitMix64) -> CrowdWorld {
    let mut professors = Vec::new();
    for i in 0..40 {
        let name = format!("{} {} {i:02}", rng.pick(&GIVEN), rng.pick(&FAMILY));
        let email = format!("{}@example.edu", name.to_lowercase().replace(' ', "."));
        professors.push((name, rng.pick(&DEPARTMENTS).to_string(), email));
    }
    let talks = (0..10)
        .map(|i| {
            let title = format!("crowd-talk-{i}");
            let tags = vec![format!("{title}-topic"), format!("{title}-track")];
            (title, tags)
        })
        .collect();
    let mut company_pairs = Vec::new();
    for id in 0..30i64 {
        let stem = COMPANY_STEMS[id as usize % COMPANY_STEMS.len()];
        let left = format!("{stem} {}", ["Inc.", "Corp.", "Ltd."][id as usize % 3]);
        let same = rng.below(2) == 0;
        let right = if same {
            format!(
                "{stem} {}",
                ["Incorporated", "Corporation", "Limited"][id as usize % 3]
            )
        } else {
            let other =
                COMPANY_STEMS[(id as usize + 1 + rng.below(13) as usize) % COMPANY_STEMS.len()];
            format!("{other} {}", ["Inc.", "Corp.", "Ltd."][id as usize % 3])
        };
        company_pairs.push((id, left, right, same));
    }
    let mut ranked: Vec<String> = (0..12).map(|i| format!("pic-{i:02}")).collect();
    rng.shuffle(&mut ranked);
    CrowdWorld {
        professors,
        talks,
        company_pairs,
        ranked,
    }
}

impl CrowdWorld {
    pub fn load_sql(&self) -> Vec<String> {
        let mut out: Vec<String> = CROWD_DDL.iter().map(|s| s.to_string()).collect();
        let profs: Vec<String> = self
            .professors
            .iter()
            .map(|(n, _, _)| format!("({})", quote(n)))
            .collect();
        out.push(format!(
            "INSERT INTO Professor (name) VALUES {}",
            profs.join(", ")
        ));
        let talks: Vec<String> = self
            .talks
            .iter()
            .map(|(t, _)| format!("({})", quote(t)))
            .collect();
        out.push(format!("INSERT INTO Talk VALUES {}", talks.join(", ")));
        for (table, right) in [("CompanyA", false), ("CompanyB", true)] {
            let rows: Vec<String> = self
                .company_pairs
                .iter()
                .map(|(id, l, r, _)| format!("({id}, {})", quote(if right { r } else { l })))
                .collect();
            out.push(format!("INSERT INTO {table} VALUES {}", rows.join(", ")));
        }
        let mut pics: Vec<String> = self
            .ranked
            .iter()
            .map(|l| format!("({})", quote(l)))
            .collect();
        pics.sort();
        out.push(format!("INSERT INTO Pic VALUES {}", pics.join(", ")));
        out
    }

    /// The 40 crowd statements of one pass: 32 CrowdProbes (one professor
    /// each, alternating the asked column over the first 32 professors, so
    /// 8 professors stay unprobed until the sweep), 1 sweep over all 40
    /// rows, 5 CrowdJoins over two talks each, 1 `CROWDEQUAL` resolution
    /// over the 30 pairs and 1 `CROWDORDER` over the 12 pictures. The three
    /// big statements take about as long as each other, so the 95th
    /// percentile of a pass (between its 38th and 39th statement) falls
    /// inside one family of statements, not on a cliff between two.
    pub fn statements(&self) -> Vec<CrowdStatement> {
        let mut out = Vec::new();
        for (i, (name, _, _)) in self.professors.iter().take(32).enumerate() {
            let col = if i % 2 == 0 { "department" } else { "email" };
            out.push(CrowdStatement::Probe {
                sql: format!(
                    "SELECT name, {col} FROM Professor WHERE name = {}",
                    quote(name)
                ),
            });
        }
        out.push(CrowdStatement::Probe {
            sql: "SELECT name, department FROM Professor".to_string(),
        });
        for pair in self.talks.chunks(2) {
            let titles: Vec<String> = pair.iter().map(|(t, _)| quote(t)).collect();
            out.push(CrowdStatement::Join {
                sql: format!(
                    "SELECT t.title, g.tag FROM Talk t JOIN tag g ON t.title = g.talk \
                     WHERE t.title IN ({})",
                    titles.join(", ")
                ),
                titles: pair.iter().map(|(t, _)| t.clone()).collect(),
            });
        }
        out.push(CrowdStatement::Resolve {
            sql: "SELECT a.id FROM CompanyA a JOIN CompanyB b ON a.id = b.id \
                  WHERE a.name ~= b.name"
                .to_string(),
        });
        out.push(CrowdStatement::Order {
            sql: format!(
                "SELECT label FROM Pic ORDER BY CROWDORDER(label, {})",
                quote(ORDER_INSTRUCTION)
            ),
        });
        out
    }
}

/// One crowd statement and what to score its result against.
#[derive(Debug, Clone)]
pub enum CrowdStatement {
    Probe { sql: String },
    Join { sql: String, titles: Vec<String> },
    Resolve { sql: String },
    Order { sql: String },
}

impl CrowdStatement {
    pub fn sql(&self) -> &str {
        match self {
            CrowdStatement::Probe { sql, .. }
            | CrowdStatement::Join { sql, .. }
            | CrowdStatement::Resolve { sql, .. }
            | CrowdStatement::Order { sql } => sql,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_byte_identical_inputs() {
        let render = |seed: u64| {
            let mut rng = SplitMix64::stream(seed, "test");
            let s = sessions(&mut rng, 200);
            let reads = point_reads(&mut rng, &s, 64, 500);
            let dml = dml_stream(&mut rng, &s, 500);
            let world = crowd_world(&mut rng);
            let queries = scan_queries(&mut rng, 50, 100);
            format!(
                "{:?}{:?}{:?}{:?}{:?}{:?}",
                sessions_load_sql(&s, 500),
                reads,
                dml.statements,
                world.load_sql(),
                world
                    .statements()
                    .iter()
                    .map(|s| s.sql().to_string())
                    .collect::<Vec<_>>(),
                queries.iter().map(ScanQuery::sql).collect::<Vec<_>>()
            )
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn named_streams_are_independent() {
        let a = SplitMix64::stream(1, "load").next_u64();
        let b = SplitMix64::stream(1, "ops").next_u64();
        let c = SplitMix64::stream(2, "load").next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut rng = SplitMix64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn point_read_keys_are_uniform() {
        let mut rng = SplitMix64::stream(3, "uniform");
        let s = sessions(&mut rng, 100);
        let reads = point_reads(&mut rng, &s, 64, 50_000);
        let local: Vec<&PointRead> = reads.iter().filter(|r| r.expect.len() == 2).collect();
        let share = 1.0 - local.len() as f64 / reads.len() as f64;
        assert!((share - 0.2).abs() < 0.01, "crowd-read share {share}");
        let mut counts = [0usize; 100];
        for r in &local {
            let k: usize = r.sql.rsplit(' ').next().unwrap().parse().unwrap();
            counts[k] += 1;
        }
        let expect = local.len() as f64 / 100.0;
        for (k, c) in counts.iter().enumerate() {
            assert!(
                (*c as f64 - expect).abs() < expect * 0.2,
                "key {k}: {c} draws, expected about {expect}"
            );
        }
    }

    #[test]
    fn updates_follow_the_80_20_rule() {
        let mut rng = SplitMix64::stream(4, "skew");
        let s = sessions(&mut rng, 1000);
        let dml = dml_stream(&mut rng, &s, 20_000);
        let share = dml.hot_updates as f64 / dml.updates as f64;
        assert!((share - HOT_DRAW_SHARE).abs() < 0.02, "hot share {share}");
        let mix = dml.updates as f64 / dml.statements.len() as f64;
        assert!((mix - 0.5).abs() < 0.02, "update share {mix}");
    }

    #[test]
    fn dml_model_tracks_the_stream() {
        let mut rng = SplitMix64::stream(5, "model");
        let s = sessions(&mut rng, 50);
        let dml = dml_stream(&mut rng, &s, 400);
        let inserts = dml
            .statements
            .iter()
            .filter(|q| q.starts_with("INSERT"))
            .count();
        let deletes = dml
            .statements
            .iter()
            .filter(|q| q.starts_with("DELETE"))
            .count();
        assert_eq!(dml.final_rows.len(), 50 + inserts - deletes);
        assert!(dml.final_rows.windows(2).all(|w| w[0].k < w[1].k));
    }

    #[test]
    fn crowd_pass_has_forty_statements() {
        let world = crowd_world(&mut SplitMix64::stream(6, "crowd"));
        assert_eq!(world.statements().len(), 40);
        assert_eq!(world.professors.len(), 40);
        assert_eq!(world.company_pairs.len(), 30);
        assert_eq!(world.ranked.len(), 12);
    }
}
