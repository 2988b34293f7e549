//! Crowd world models over the synthetic workloads: what the simulated
//! workers "know" when asked about professors, companies, photos, or
//! ranked items.

use std::collections::HashMap;

use crowddb_common::rng::Rng;
use crowddb_platform::{Answer, CrowdModel, TaskKind};

use crate::workloads::{Company, Photo, Professor, RankedItem, DEPARTMENTS};

/// World model for the professor corpus (experiment E4).
pub struct ProfessorWorld {
    by_name: HashMap<String, Professor>,
}

impl ProfessorWorld {
    /// Build from a corpus.
    pub fn new(corpus: &[Professor]) -> ProfessorWorld {
        ProfessorWorld {
            by_name: corpus.iter().map(|p| (p.name.clone(), p.clone())).collect(),
        }
    }
}

impl CrowdModel for ProfessorWorld {
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        match task {
            TaskKind::Probe { known, asked, .. } => {
                let name = known
                    .iter()
                    .find(|(k, _)| k == "name")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("");
                let Some(prof) = self.by_name.get(name) else {
                    return Answer::Blank;
                };
                Answer::Form(
                    asked
                        .iter()
                        .map(|(col, _)| {
                            let text = match col.as_str() {
                                "department" => prof.department.clone(),
                                "email" => prof.email.clone(),
                                _ => String::new(),
                            };
                            (col.clone(), text)
                        })
                        .collect(),
                )
            }
            _ => Answer::Blank,
        }
    }

    fn erroneous_answer(&self, task: &TaskKind, rng: &mut Rng) -> Answer {
        // Erring workers confuse *plausible* departments (closed field)
        // and mistype e-mails (open field) — the paper found closed
        // fields much easier to vote into correctness.
        match task {
            TaskKind::Probe { known, asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(col, _)| {
                        let text = match col.as_str() {
                            "department" => {
                                DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())].to_string()
                            }
                            // E-mail errors are partly *systematic*: many
                            // workers guess the same plausible pattern from
                            // the name, so wrong answers can collide and
                            // even outvote the truth — which is why open
                            // fields converge slower in the paper.
                            "email" => {
                                if rng.gen_bool(0.5) {
                                    let guess = known
                                        .iter()
                                        .find(|(k, _)| k == "name")
                                        .map(|(_, v)| {
                                            v.to_lowercase()
                                                .split_whitespace()
                                                .collect::<Vec<_>>()
                                                .join(".")
                                        })
                                        .unwrap_or_default();
                                    format!("{guess}@university.edu")
                                } else {
                                    format!("wrong{}@mail.com", rng.gen_range(0..10_000))
                                }
                            }
                            _ => String::new(),
                        };
                        (col.clone(), text)
                    })
                    .collect(),
            ),
            _ => Answer::Blank,
        }
    }
}

/// World model for entity resolution (experiment E6): workers judge
/// whether two company names refer to the same entity.
pub struct CompanyWorld {
    /// variant or canonical → canonical
    canonical_of: HashMap<String, String>,
}

impl CompanyWorld {
    /// Build from a corpus.
    pub fn new(corpus: &[Company]) -> CompanyWorld {
        let mut canonical_of = HashMap::new();
        for c in corpus {
            canonical_of.insert(c.canonical.clone(), c.canonical.clone());
            for v in &c.variants {
                canonical_of.insert(v.clone(), c.canonical.clone());
            }
        }
        CompanyWorld { canonical_of }
    }

    /// Ground truth for a pair.
    pub fn same_entity(&self, a: &str, b: &str) -> bool {
        match (self.canonical_of.get(a), self.canonical_of.get(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

impl CrowdModel for CompanyWorld {
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        match task {
            TaskKind::Equal { left, right, .. } => {
                if self.same_entity(left, right) {
                    Answer::Yes
                } else {
                    Answer::No
                }
            }
            TaskKind::EqualBatch { pairs, .. } => Answer::Batch(
                pairs
                    .iter()
                    .map(|(l, r)| {
                        if self.same_entity(l, r) {
                            Answer::Yes
                        } else {
                            Answer::No
                        }
                    })
                    .collect(),
            ),
            _ => Answer::Blank,
        }
    }
}

/// World model for subjective ranking (experiment E7): workers compare
/// items by latent score, with *comparison noise* that grows as scores
/// get closer (harder judgments are noisier — the Bradley-Terry shape).
pub struct RankingWorld {
    score_of: HashMap<String, f64>,
    /// Noise temperature: 0 = perfectly reliable judges.
    pub temperature: f64,
}

impl RankingWorld {
    /// Build from a corpus.
    pub fn new(corpus: &[RankedItem], temperature: f64) -> RankingWorld {
        RankingWorld {
            score_of: corpus.iter().map(|i| (i.label.clone(), i.score)).collect(),
            temperature,
        }
    }

    fn prob_left_better(&self, left: &str, right: &str) -> f64 {
        let a = self.score_of.get(left).copied().unwrap_or(0.5);
        let b = self.score_of.get(right).copied().unwrap_or(0.5);
        if self.temperature <= 0.0 {
            return if a >= b { 1.0 } else { 0.0 };
        }
        // Bradley-Terry / logistic choice model.
        1.0 / (1.0 + ((b - a) / self.temperature).exp())
    }
}

impl CrowdModel for RankingWorld {
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        match task {
            TaskKind::Order { left, right, .. } => {
                if self.prob_left_better(left, right) >= 0.5 {
                    Answer::Left
                } else {
                    Answer::Right
                }
            }
            TaskKind::OrderBatch { pairs, .. } => Answer::Batch(
                pairs
                    .iter()
                    .map(|(l, r)| {
                        if self.prob_left_better(l, r) >= 0.5 {
                            Answer::Left
                        } else {
                            Answer::Right
                        }
                    })
                    .collect(),
            ),
            _ => Answer::Blank,
        }
    }

    fn erroneous_answer(&self, task: &TaskKind, rng: &mut Rng) -> Answer {
        match task {
            TaskKind::Order { left, right, .. } => {
                // Sample from the noisy choice model instead of flipping.
                if rng.gen_bool(self.prob_left_better(left, right).clamp(0.01, 0.99)) {
                    Answer::Left
                } else {
                    Answer::Right
                }
            }
            TaskKind::OrderBatch { pairs, .. } => Answer::Batch(
                pairs
                    .iter()
                    .map(|(l, r)| {
                        if rng.gen_bool(self.prob_left_better(l, r).clamp(0.01, 0.99)) {
                            Answer::Left
                        } else {
                            Answer::Right
                        }
                    })
                    .collect(),
            ),
            _ => Answer::Blank,
        }
    }
}

/// World model for the photo–subject join (experiment E5): asked for the
/// subjects of a photo, workers contribute (photo, subject) tuples.
pub struct PhotoWorld {
    subjects_of: HashMap<String, Vec<String>>,
}

impl PhotoWorld {
    /// Build from a corpus.
    pub fn new(corpus: &[Photo]) -> PhotoWorld {
        PhotoWorld {
            subjects_of: corpus
                .iter()
                .map(|p| (p.id.clone(), p.subjects.clone()))
                .collect(),
        }
    }
}

impl CrowdModel for PhotoWorld {
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        match task {
            TaskKind::NewTuples { preset, .. } => {
                let photo = preset
                    .iter()
                    .find(|(k, _)| k == "photo")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("");
                let subjects = self.subjects_of.get(photo).cloned().unwrap_or_default();
                if subjects.is_empty() {
                    Answer::Blank
                } else {
                    Answer::Tuples(
                        subjects
                            .iter()
                            .map(|s| {
                                vec![
                                    ("photo".to_string(), photo.to_string()),
                                    ("subject".to_string(), s.clone()),
                                ]
                            })
                            .collect(),
                    )
                }
            }
            _ => Answer::Blank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn professor_world_answers_probes() {
        let corpus = workloads::professors(5, 1);
        let w = ProfessorWorld::new(&corpus);
        let task = TaskKind::Probe {
            table: "professor".into(),
            known: vec![("name".into(), corpus[0].name.clone())],
            asked: vec![
                ("department".into(), crowddb_common::DataType::Str),
                ("email".into(), crowddb_common::DataType::Str),
            ],
            instructions: String::new(),
        };
        match w.ideal_answer(&task) {
            Answer::Form(fields) => {
                assert_eq!(fields[0].1, corpus[0].department);
                assert_eq!(fields[1].1, corpus[0].email);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn professor_errors_are_plausible() {
        let corpus = workloads::professors(5, 1);
        let w = ProfessorWorld::new(&corpus);
        let task = TaskKind::Probe {
            table: "professor".into(),
            known: vec![("name".into(), corpus[0].name.clone())],
            asked: vec![("department".into(), crowddb_common::DataType::Str)],
            instructions: String::new(),
        };
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..20 {
            match w.erroneous_answer(&task, &mut rng) {
                Answer::Form(fields) => {
                    assert!(DEPARTMENTS.contains(&fields[0].1.as_str()));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn company_world_ground_truth() {
        let corpus = workloads::companies(10, 2);
        let w = CompanyWorld::new(&corpus);
        assert!(w.same_entity(&corpus[0].canonical, &corpus[0].variants[0]));
        assert!(!w.same_entity(&corpus[0].canonical, &corpus[1].canonical));
        let task = TaskKind::Equal {
            left: corpus[0].canonical.clone(),
            right: corpus[0].variants[0].clone(),
            instruction: "same?".into(),
        };
        assert_eq!(w.ideal_answer(&task), Answer::Yes);
    }

    #[test]
    fn ranking_world_choice_model() {
        let corpus = workloads::ranked_items(10, 3);
        let truth = workloads::true_ranking(&corpus);
        let best = &corpus[truth[0]].label;
        let worst = &corpus[truth[9]].label;
        let w = RankingWorld::new(&corpus, 0.1);
        assert!(w.prob_left_better(best, worst) > 0.9);
        assert!(w.prob_left_better(worst, best) < 0.1);
        let deterministic = RankingWorld::new(&corpus, 0.0);
        assert_eq!(deterministic.prob_left_better(best, worst), 1.0);
    }

    #[test]
    fn photo_world_contributes_tuples() {
        let corpus = workloads::photos(20, 4);
        let with_subjects = corpus.iter().find(|p| !p.subjects.is_empty()).unwrap();
        let w = PhotoWorld::new(&corpus);
        let task = TaskKind::NewTuples {
            table: "photosubject".into(),
            columns: vec![("subject".into(), crowddb_common::DataType::Str)],
            preset: vec![("photo".into(), with_subjects.id.clone())],
            max_tuples: 5,
            instructions: String::new(),
        };
        match w.ideal_answer(&task) {
            Answer::Tuples(ts) => assert_eq!(ts.len(), with_subjects.subjects.len()),
            other => panic!("{other:?}"),
        }
    }
}
