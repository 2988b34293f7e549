//! E10 — AMT vs the locality-aware mobile platform (demo paper §4).
//!
//! The demo's distinctive claim is *platform pluggability*: the same
//! CrowdSQL compiles onto Amazon Mechanical Turk (a global paid
//! marketplace) or onto the conference's mobile platform (a small local
//! volunteer crowd). This harness runs an identical probe workload
//! through the full engine on both platforms and contrasts cost, speed,
//! and the effect of the mobile platform's locality filter.

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::{PerfectModel, Platform, SimPlatform};
use crowddb_quality::VoteConfig;

const VENUE: (f64, f64) = (47.6114, -122.3305);

fn run_workload(platform: &mut dyn Platform, reward_cents: u32) -> (usize, u64, u64, f64, usize) {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(2),
        reward_cents,
        ..CrowdConfig::default()
    });
    db.execute_local("CREATE TABLE talk (title STRING PRIMARY KEY, nb_attendees CROWD INTEGER)")
        .expect("ddl");
    for i in 0..40 {
        db.execute_local(&format!("INSERT INTO talk (title) VALUES ('talk-{i:02}')"))
            .expect("insert");
    }
    let r = db
        .execute("SELECT title, nb_attendees FROM talk", platform)
        .expect("query");
    let resolved = r.rows.iter().filter(|row| !row[1].is_cnull()).count();
    (
        resolved,
        r.crowd.tasks_posted,
        r.crowd.cents_spent,
        r.crowd.virtual_secs / 3600.0,
        r.warnings.len(),
    )
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E10",
        "platform pluggability: the same CrowdSQL workload on AMT vs the mobile \
         conference platform (demo paper §4)",
    );
    out.headers = vec![
        "platform".into(),
        "values resolved".into(),
        "tasks".into(),
        "cost (cents)".into(),
        "virtual hours".into(),
        "warnings".into(),
    ];

    let mut amt = SimPlatform::amt(2011, Box::new(PerfectModel));
    let (res, tasks, cents, hours, warns) = run_workload(&mut amt, 2);
    out.rows.push(vec![
        "AMT (paid, global)".into(),
        format!("{res}/40"),
        tasks.to_string(),
        cents.to_string(),
        format!("{hours:.1}"),
        warns.to_string(),
    ]);

    // Conference volunteers are not paid: reward 0.
    let mut mobile = SimPlatform::mobile(2011, VENUE, Box::new(PerfectModel));
    let (res, tasks, cents, hours, warns) = run_workload(&mut mobile, 0);
    out.rows.push(vec![
        "mobile (volunteer, local)".into(),
        format!("{res}/40"),
        tasks.to_string(),
        cents.to_string(),
        format!("{hours:.1}"),
        warns.to_string(),
    ]);

    out.notes.push(
        "expected shape: both platforms complete the workload; AMT costs real money \
         and is gated by reservation wages, while the venue crowd answers for free \
         and fast — but it is small and locality-bound (tasks constrained to a \
         far-away location find no workers at all; see the restaurants example and \
         the mobile locality test)"
            .into(),
    );
    out.print();
}
