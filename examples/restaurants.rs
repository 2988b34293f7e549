//! The locality-aware mobile platform (paper §4): "nearby restaurant
//! recommendations" from the VLDB crowd at the venue.
//!
//! ```text
//! cargo run --example restaurants
//! ```
//!
//! Tasks are constrained to workers near the conference venue; the
//! volunteer crowd contributes restaurant tuples into a CROWD table and
//! ranks them with CROWDORDER. The same query posted with a far-away
//! locality constraint finds no workers — demonstrating what the
//! locality filter does.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crowddb::{Answer, CrowdConfig, CrowdDB, Platform, SimPlatform, TaskKind, VoteConfig};
use crowddb_platform::ClosureModel;

/// Seattle convention center, roughly (the 2011 venue).
const VENUE: (f64, f64) = (47.6114, -122.3305);

fn local_crowd_world() -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    // What conference attendees know about food near the venue.
    let spots = [
        ("Pike Brewery", "pub", 5),
        ("Umi Sake House", "sushi", 9),
        ("Serious Pie", "pizza", 8),
        ("Tilikum Cafe", "cafe", 6),
        ("Dahlia Lounge", "seafood", 7),
    ];
    let rating: HashMap<String, i64> = spots.iter().map(|(n, _, r)| (n.to_string(), *r)).collect();
    ClosureModel::new(move |task: &TaskKind| match task {
        TaskKind::NewTuples { .. } => Answer::Tuples(
            spots
                .iter()
                .map(|(name, cuisine, _)| {
                    vec![
                        ("name".to_string(), name.to_string()),
                        ("cuisine".to_string(), cuisine.to_string()),
                    ]
                })
                .collect(),
        ),
        TaskKind::Order { left, right, .. } => {
            let score = |s: &str| rating.get(s).copied().unwrap_or(0);
            if score(left) >= score(right) {
                Answer::Left
            } else {
                Answer::Right
            }
        }
        _ => Answer::Blank,
    })
}

fn main() -> crowddb::Result<()> {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(2),
        reward_cents: 0, // volunteers at the venue
        ..CrowdConfig::default()
    });
    let mut mobile = SimPlatform::mobile(31, VENUE, Box::new(local_crowd_world()));

    db.execute(
        "CREATE CROWD TABLE Restaurant (
            name STRING PRIMARY KEY,
            cuisine STRING )",
        &mut mobile,
    )?;

    println!("-- asking the VLDB crowd for nearby restaurants (mobile platform)");
    let r = db.execute("SELECT name, cuisine FROM Restaurant LIMIT 5", &mut mobile)?;
    println!("{}", r.to_table());
    println!(
        "crowd: {} task(s), {} answer(s), {:.0} virtual minutes on '{}'\n",
        r.crowd.tasks_posted,
        r.crowd.answers_collected,
        r.crowd.virtual_secs / 60.0,
        mobile.name(),
    );

    // Ranking the whole open world is unbounded; the idiomatic CrowdSQL
    // formulation bounds the candidate set first, then lets the crowd
    // rank it.
    println!("-- which restaurant do attendees actually recommend?");
    let r = db.execute(
        "SELECT name FROM (SELECT name FROM Restaurant LIMIT 5) AS candidates \
         ORDER BY CROWDORDER(name, 'Which restaurant would you recommend?') LIMIT 3",
        &mut mobile,
    )?;
    println!("{}", r.to_table());
    for w in &r.warnings {
        println!("note: {w}");
    }

    println!(
        "\n(the mobile platform only hands tasks to workers within the locality \
              radius; the simulator's volunteer pool lives at the venue)"
    );
    Ok(())
}
