//! Synthetic workload generators with controllable ground truth.
//!
//! The SIGMOD 2011 evaluation used: simple fact-probe HITs (micro
//! benchmarks), a professor/department table (CrowdProbe quality), a
//! picture–subject corpus (CrowdJoin), a company-name corpus with
//! spelling variants (CROWDEQUAL entity resolution), and picture sets
//! ranked by the crowd (CROWDORDER). These generators produce the
//! equivalents with exact ground truth, so quality can be measured.

use crowddb_common::rng::Rng;

/// One professor with a known department and e-mail (experiment E4: open
/// vs closed probe fields).
#[derive(Debug, Clone, PartialEq)]
pub struct Professor {
    /// Unique name.
    pub name: String,
    /// True department (closed-world field: one of a small set).
    pub department: String,
    /// True e-mail (open-world field: free text).
    pub email: String,
}

/// Departments used by the professor corpus.
pub const DEPARTMENTS: &[&str] = &[
    "Computer Science",
    "Mathematics",
    "Physics",
    "Chemistry",
    "Biology",
    "Economics",
];

/// Generate `n` professors deterministically.
pub fn professors(n: usize, seed: u64) -> Vec<Professor> {
    let mut rng = Rng::seed_from_u64(seed);
    let first = [
        "Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "John", "Leslie", "Frances", "Tony",
    ];
    let last = [
        "Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth", "Backus", "Lamport",
        "Allen", "Hoare",
    ];
    (0..n)
        .map(|i| {
            let f = first[rng.gen_range(0..first.len())];
            let l = last[rng.gen_range(0..last.len())];
            let name = format!("{f} {l} {i}");
            let department = DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())].to_string();
            let email = format!(
                "{}.{}{}@univ{}.edu",
                f.to_lowercase(),
                l.to_lowercase(),
                i,
                rng.gen_range(1..9)
            );
            Professor {
                name,
                department,
                email,
            }
        })
        .collect()
}

/// A company with its canonical name and the spelling variants workers
/// will be shown (experiment E6: entity resolution).
#[derive(Debug, Clone, PartialEq)]
pub struct Company {
    /// Canonical name.
    pub canonical: String,
    /// Spelling/abbreviation variants referring to the same entity.
    pub variants: Vec<String>,
}

/// Generate a company corpus. Each company gets 2–4 variants built from
/// realistic transformations: legal suffixes and typos (machine-
/// matchable), but also **initialisms** ("A.S. 12" for "Acme Systems
/// 12") that no string-similarity measure recovers. Companies come in
/// **sibling pairs** ("Acme Systems 12" / "Acme Systems 13") that are
/// nearly identical strings yet distinct entities — the pairs that make
/// machines false-merge and humans shine (the paper's point).
pub fn companies(n: usize, seed: u64) -> Vec<Company> {
    let mut rng = Rng::seed_from_u64(seed);
    let stems = [
        "Acme",
        "Globex",
        "Initech",
        "Umbrella",
        "Stark",
        "Wayne",
        "Cyberdyne",
        "Tyrell",
        "Wonka",
        "Hooli",
        "Aperture",
        "BlueSun",
        "Gringotts",
        "Monarch",
        "Vandelay",
    ];
    let sectors = [
        "Systems",
        "Industries",
        "Networks",
        "Dynamics",
        "Labs",
        "Software",
        "Analytics",
    ];
    (0..n)
        .map(|i| {
            // Sibling pairs: i and i^1 share stem and sector, and their
            // canonical names differ only in the trailing number.
            let pair = i / 2;
            let stem = stems[pair % stems.len()];
            let sector = sectors[(pair / stems.len()) % sectors.len()];
            let canonical = format!("{stem} {sector} {i}");
            let mut variants = vec![format!("{canonical} Inc.")];
            // Initialism: "A.S. 12" — humans resolve it, machines cannot.
            let initials: String = [stem, sector]
                .iter()
                .filter_map(|w| w.chars().next())
                .flat_map(|c| [c.to_ascii_uppercase(), '.'])
                .collect();
            variants.push(format!("{initials} {i}"));
            // One typo variant (dropped character in the stem).
            if stem.len() > 3 {
                let drop = rng.gen_range(1..stem.len());
                let typo: String = stem
                    .chars()
                    .enumerate()
                    .filter(|(j, _)| *j != drop)
                    .map(|(_, c)| c)
                    .collect();
                variants.push(format!("{typo} {sector} {i}"));
            }
            rng.shuffle(&mut variants);
            Company {
                canonical,
                variants,
            }
        })
        .collect()
}

/// Pairs for the entity-resolution experiment: `(a, b, same_entity)`.
/// True matches pit the canonical name against each variant (including
/// the machine-hostile initialism); non-matches are dominated by the
/// *sibling* companies whose names differ by one digit.
pub fn entity_pairs(corpus: &[Company], seed: u64) -> Vec<(String, String, bool)> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xE17);
    let mut out = Vec::new();
    for (i, c) in corpus.iter().enumerate() {
        for v in c.variants.iter().take(2) {
            out.push((c.canonical.clone(), v.clone(), true));
        }
        // Hard negative: the sibling company (nearly identical string).
        let sibling = i ^ 1;
        if sibling < corpus.len() && sibling != i {
            out.push((
                c.canonical.clone(),
                corpus[sibling].canonical.clone(),
                false,
            ));
        }
        // Easy negative: an unrelated company.
        let j = (i + 1 + rng.gen_range(0..corpus.len().saturating_sub(1).max(1))) % corpus.len();
        if j != i && j != sibling {
            out.push((c.canonical.clone(), corpus[j].canonical.clone(), false));
        }
    }
    rng.shuffle(&mut out);
    out
}

/// An item with a latent quality score, for subjective-ranking
/// experiments (E7). Higher score = better.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedItem {
    /// Display label shown to workers.
    pub label: String,
    /// Latent ground-truth quality in `[0, 1]`.
    pub score: f64,
}

/// Generate `n` ranked items with well-separated latent scores.
pub fn ranked_items(n: usize, seed: u64) -> Vec<RankedItem> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0D);
    let mut items: Vec<RankedItem> = (0..n)
        .map(|i| RankedItem {
            label: format!("picture-{i:03}"),
            score: (i as f64 + rng.gen_range(0.0..0.5)) / n as f64,
        })
        .collect();
    rng.shuffle(&mut items);
    items
}

/// Ground-truth ranking (best first) of a ranked-item corpus, as indexes
/// into the corpus slice.
pub fn true_ranking(items: &[RankedItem]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[b].score.total_cmp(&items[a].score));
    order
}

/// A photo and its true subjects, for the CrowdJoin experiment (E5):
/// join photos against a crowd table of (photo, subject) facts.
#[derive(Debug, Clone, PartialEq)]
pub struct Photo {
    /// Photo identifier.
    pub id: String,
    /// True subjects depicted (what the crowd knows).
    pub subjects: Vec<String>,
}

/// Generate a photo corpus; each photo depicts 0–3 subjects from a small
/// vocabulary.
pub fn photos(n: usize, seed: u64) -> Vec<Photo> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xF0);
    let vocabulary = [
        "dog",
        "cat",
        "car",
        "bridge",
        "sunset",
        "crowd",
        "poster",
        "laptop",
        "coffee",
        "whiteboard",
    ];
    (0..n)
        .map(|i| {
            let k = rng.gen_range(0..=3usize);
            let mut subjects: Vec<String> = rng
                .choose_multiple(&vocabulary, k)
                .into_iter()
                .map(|s| s.to_string())
                .collect();
            subjects.sort();
            Photo {
                id: format!("photo-{i:04}"),
                subjects,
            }
        })
        .collect()
}

/// VLDB-style talks for the conference demo workload (E10).
pub fn conference_talks() -> Vec<(&'static str, &'static str, i64)> {
    vec![
        ("CrowdDB", "Query processing with the VLDB crowd", 220),
        ("Qurk", "A query processor for human operators", 140),
        ("PIQL", "Performance insightful query language", 90),
        ("HyPer", "Hybrid OLTP and OLAP main memory database", 180),
        ("Shark", "SQL and rich analytics at scale", 160),
        ("Spanner", "Globally distributed database", 250),
        ("MonetDB", "Column store pioneering", 120),
        ("C-Store", "A column oriented DBMS", 130),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn professors_deterministic_and_unique() {
        let a = professors(50, 1);
        let b = professors(50, 1);
        assert_eq!(a, b);
        let mut names: Vec<&str> = a.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 50, "names must be unique");
        assert!(a
            .iter()
            .all(|p| DEPARTMENTS.contains(&p.department.as_str())));
        assert!(a.iter().all(|p| p.email.contains('@')));
    }

    #[test]
    fn companies_have_variants() {
        let c = companies(30, 2);
        assert_eq!(c.len(), 30);
        assert!(c.iter().all(|x| !x.variants.is_empty()));
        assert!(c
            .iter()
            .all(|x| x.variants.iter().all(|v| v != &x.canonical)));
    }

    #[test]
    fn entity_pairs_balanced_and_labeled() {
        let corpus = companies(20, 3);
        let pairs = entity_pairs(&corpus, 3);
        let pos = pairs.iter().filter(|(_, _, same)| *same).count();
        let neg = pairs.len() - pos;
        assert!(pos > 0 && neg > 0);
        // True pairs share the canonical prefix family; spot check one.
        let (a, b, same) = pairs.iter().find(|(_, _, s)| *s).unwrap();
        assert!(same);
        assert_ne!(a, b);
    }

    #[test]
    fn ranked_items_have_distinct_scores() {
        let items = ranked_items(25, 4);
        let truth = true_ranking(&items);
        assert_eq!(truth.len(), 25);
        // Scores strictly decreasing along the ranking.
        for w in truth.windows(2) {
            assert!(items[w[0]].score > items[w[1]].score);
        }
    }

    #[test]
    fn photos_deterministic() {
        assert_eq!(photos(10, 5), photos(10, 5));
        let p = photos(100, 6);
        assert!(p.iter().any(|x| !x.subjects.is_empty()));
        assert!(p.iter().any(|x| x.subjects.is_empty()));
    }

    #[test]
    fn conference_talks_nonempty() {
        assert!(conference_talks().len() >= 5);
    }
}
