//! Entity resolution with `CROWDEQUAL` (and its `~=` shorthand).
//!
//! ```text
//! cargo run --example entity_resolution
//! ```
//!
//! The paper's second capability: "if given the right context, it is
//! easy for a person to tell whether 'CrowDB' and 'CrowdDB' refer to the
//! same entity." We load company names with spelling variants, dedupe
//! them with a crowd-judged self-join, and compare against what a
//! machine-only matcher achieves.

#![forbid(unsafe_code)]

use crowddb::{CrowdConfig, CrowdDB, SimPlatform, VoteConfig};
use crowddb_bench::workloads;
use crowddb_bench::world::CompanyWorld;
use crowddb_quality::entity;

fn main() -> crowddb::Result<()> {
    let corpus = workloads::companies(12, 3);
    let world = CompanyWorld::new(&corpus);

    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 1,
        ..CrowdConfig::default()
    });
    let mut amt = SimPlatform::amt(99, Box::new(CompanyWorld::new(&corpus)));

    db.execute(
        "CREATE TABLE mention (id INTEGER PRIMARY KEY, name STRING)",
        &mut amt,
    )?;
    // Load each company's canonical name and one variant — the dirty
    // data a real CRM accumulates.
    let mut id = 0;
    let mut mentions: Vec<String> = Vec::new();
    for c in &corpus {
        for name in [c.canonical.as_str()]
            .iter()
            .chain(c.variants.first().map(|v| v.as_str()).iter())
        {
            db.execute(
                &format!(
                    "INSERT INTO mention VALUES ({id}, '{}')",
                    name.replace('\'', "''")
                ),
                &mut amt,
            )?;
            mentions.push(name.to_string());
            id += 1;
        }
    }

    // Crowd-judged duplicate detection: a self-join on ~=.
    println!(
        "-- SELECT a.id, b.id FROM mention a, mention b WHERE a.id < b.id AND a.name ~= b.name"
    );
    let r = db.execute(
        "SELECT a.name, b.name FROM mention a, mention b \
         WHERE a.id < b.id AND a.name ~= b.name ORDER BY a.name",
        &mut amt,
    )?;
    println!("{}", r.to_table());
    println!(
        "crowd: {} comparison task(s), {}¢, {} answer(s)\n",
        r.crowd.tasks_posted, r.crowd.cents_spent, r.crowd.answers_collected
    );

    // Score the crowd vs ground truth and vs a machine matcher.
    let mut crowd_ok = 0usize;
    let mut machine_ok = 0usize;
    let mut total = 0usize;
    let found: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|row| (row[0].to_string(), row[1].to_string()))
        .collect();
    for i in 0..mentions.len() {
        for j in (i + 1)..mentions.len() {
            let (a, b) = (&mentions[i], &mentions[j]);
            let truth = world.same_entity(a, b);
            let crowd_verdict = found
                .iter()
                .any(|(x, y)| (x == a && y == b) || (x == b && y == a));
            let machine_verdict = entity::machine_equal(a, b, 0.92);
            total += 1;
            if crowd_verdict == truth {
                crowd_ok += 1;
            }
            if machine_verdict == truth {
                machine_ok += 1;
            }
        }
    }
    println!(
        "pairwise accuracy over {total} pairs: crowd {:.1}%, machine-only {:.1}%",
        100.0 * crowd_ok as f64 / total as f64,
        100.0 * machine_ok as f64 / total as f64
    );
    println!(
        "(the crowd resolves initialisms like 'A.S. 4' and rejects near-identical \
         siblings — string similarity cannot do both)"
    );
    Ok(())
}
