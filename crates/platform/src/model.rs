//! The crowd's knowledge model — what simulated workers *know*.
//!
//! A live crowd consults the real world; a simulated crowd consults a
//! [`CrowdModel`]: given a task, it produces the *ideal* answer (what a
//! careful, knowledgeable worker would say) and *erroneous* answers (what
//! a sloppy or confused worker might say). Per-worker error rates decide
//! which one a given assignment returns.
//!
//! Benchmarks and examples construct models over synthetic ground truth;
//! the default [`ClosureModel`] wraps two closures, and [`PerfectModel`]
//! answers every task correctly (useful to isolate marketplace dynamics
//! from answer quality).

use crowddb_common::rng::Rng;

use crate::task::{Answer, TaskKind};

/// The simulated crowd's knowledge of the world.
pub trait CrowdModel: Send {
    /// The answer a diligent worker gives.
    fn ideal_answer(&self, task: &TaskKind) -> Answer;

    /// An answer an erring worker gives. Implementations should return a
    /// *plausible* wrong answer (typo, confusion, opposite verdict), not
    /// necessarily garbage; `rng` provides the noise.
    fn erroneous_answer(&self, task: &TaskKind, rng: &mut Rng) -> Answer {
        default_erroneous(self.ideal_answer(task), task, rng)
    }
}

/// A reasonable default error model: verdict tasks flip their verdict,
/// form tasks get corrupted text, and some answers come back blank.
pub fn default_erroneous(ideal: Answer, _task: &TaskKind, rng: &mut Rng) -> Answer {
    // ~15% of erroneous submissions are blank/spam regardless of kind.
    if rng.gen_bool(0.15) {
        return Answer::Blank;
    }
    match ideal {
        Answer::Yes => Answer::No,
        Answer::No => Answer::Yes,
        Answer::Left => Answer::Right,
        Answer::Right => Answer::Left,
        Answer::Form(fields) => Answer::Form(
            fields
                .into_iter()
                .map(|(k, v)| (k, corrupt_text(&v, rng)))
                .collect(),
        ),
        Answer::Tuples(tuples) => {
            // Wrong new-tuple answers: drop tuples or corrupt fields.
            if tuples.is_empty() || rng.gen_bool(0.3) {
                Answer::Blank
            } else {
                Answer::Tuples(
                    tuples
                        .into_iter()
                        .map(|t| {
                            t.into_iter()
                                .map(|(k, v)| (k, corrupt_text(&v, rng)))
                                .collect()
                        })
                        .collect(),
                )
            }
        }
        // Batched compares: the careless worker's per-item errors are
        // correlated — one bad worker degrades the whole batch, flipping
        // each verdict with high probability rather than independently
        // re-rolling worker quality per item.
        Answer::Batch(items) => Answer::Batch(
            items
                .into_iter()
                .map(|item| {
                    if rng.gen_bool(0.7) {
                        match item {
                            Answer::Yes => Answer::No,
                            Answer::No => Answer::Yes,
                            Answer::Left => Answer::Right,
                            Answer::Right => Answer::Left,
                            _ => Answer::Blank,
                        }
                    } else {
                        item
                    }
                })
                .collect(),
        ),
        // A careless ranking: one adjacent transposition (the classic
        // near-miss), or reversed outright for very short lists.
        Answer::Ranking(mut order) => {
            if order.len() >= 2 {
                let i = rng.gen_range(0..order.len() - 1);
                order.swap(i, i + 1);
            }
            Answer::Ranking(order)
        }
        Answer::Blank => Answer::Blank,
    }
}

/// Corrupt a text answer the way careless workers do: typos (dropped
/// character), digit perturbation for numbers, or an unrelated string.
pub fn corrupt_text(v: &str, rng: &mut Rng) -> String {
    if let Ok(n) = v.trim().parse::<i64>() {
        // Numeric answers drift by a multiplicative error.
        let factor = 1.0 + rng.gen_range(-0.5..0.5f64);
        return ((n as f64 * factor).round() as i64).to_string();
    }
    if v.len() > 2 && rng.gen_bool(0.6) {
        // Drop one character (typo).
        let chars: Vec<char> = v.chars().collect();
        let drop = rng.gen_range(0..chars.len());
        return chars
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, c)| *c)
            .collect();
    }
    format!("wrong-{}", rng.gen_range(0..1000))
}

/// A model built from closures.
pub struct ClosureModel<F>
where
    F: Fn(&TaskKind) -> Answer + Send,
{
    ideal: F,
}

impl<F> ClosureModel<F>
where
    F: Fn(&TaskKind) -> Answer + Send,
{
    /// Wrap an ideal-answer function; errors use [`default_erroneous`].
    pub fn new(ideal: F) -> Self {
        ClosureModel { ideal }
    }
}

impl<F> CrowdModel for ClosureModel<F>
where
    F: Fn(&TaskKind) -> Answer + Send,
{
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        (self.ideal)(task)
    }
}

/// A model whose ideal answer is always "fill every asked field with a
/// deterministic string / say Yes / pick Left". Used to isolate
/// marketplace dynamics (experiments E1–E3) from answer quality.
pub struct PerfectModel;

impl CrowdModel for PerfectModel {
    fn ideal_answer(&self, task: &TaskKind) -> Answer {
        // Answers must parse under the asked column's type, or quality
        // control rightly discards them.
        fn filler(c: &str, ty: &crowddb_common::DataType) -> String {
            match ty {
                crowddb_common::DataType::Int => "42".to_string(),
                crowddb_common::DataType::Float => "3.5".to_string(),
                crowddb_common::DataType::Bool => "yes".to_string(),
                crowddb_common::DataType::Str => format!("answer-for-{c}"),
            }
        }
        match task {
            TaskKind::Probe { asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(c, ty)| (c.clone(), filler(c, ty)))
                    .collect(),
            ),
            TaskKind::NewTuples { columns, .. } => Answer::Tuples(vec![columns
                .iter()
                .map(|(c, ty)| (c.clone(), filler(c, ty)))
                .collect()]),
            TaskKind::Equal { .. } => Answer::Yes,
            TaskKind::Order { .. } => Answer::Left,
            TaskKind::EqualBatch { pairs, .. } => Answer::Batch(vec![Answer::Yes; pairs.len()]),
            TaskKind::OrderBatch { pairs, .. } => Answer::Batch(vec![Answer::Left; pairs.len()]),
            TaskKind::RankGroup { items, .. } => Answer::Ranking((0..items.len() as u32).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::DataType;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    fn equal_task() -> TaskKind {
        TaskKind::Equal {
            left: "IBM".into(),
            right: "I.B.M.".into(),
            instruction: "same?".into(),
        }
    }

    #[test]
    fn perfect_model_answers_all_kinds() {
        let m = PerfectModel;
        assert_eq!(m.ideal_answer(&equal_task()), Answer::Yes);
        let probe = TaskKind::Probe {
            table: "talk".into(),
            known: vec![],
            asked: vec![("abstract".into(), DataType::Str)],
            instructions: String::new(),
        };
        match m.ideal_answer(&probe) {
            Answer::Form(fields) => assert_eq!(fields[0].0, "abstract"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn erroneous_verdicts_flip() {
        let m = PerfectModel;
        let mut r = rng();
        // Over many draws we must see flipped verdicts and occasional blanks.
        let mut saw_no = false;
        let mut saw_blank = false;
        for _ in 0..200 {
            match m.erroneous_answer(&equal_task(), &mut r) {
                Answer::No => saw_no = true,
                Answer::Blank => saw_blank = true,
                Answer::Yes => panic!("erroneous answer equals ideal"),
                _ => {}
            }
        }
        assert!(saw_no && saw_blank);
    }

    #[test]
    fn corrupt_numeric_text_stays_numeric() {
        let mut r = rng();
        for _ in 0..50 {
            let c = corrupt_text("120", &mut r);
            assert!(c.parse::<i64>().is_ok(), "{c}");
        }
    }

    #[test]
    fn corrupt_string_differs_mostly() {
        let mut r = rng();
        let mut differing = 0;
        for _ in 0..100 {
            if corrupt_text("crowd databases", &mut r) != "crowd databases" {
                differing += 1;
            }
        }
        assert!(differing > 90);
    }

    #[test]
    fn perfect_model_answers_batched_kinds() {
        let m = PerfectModel;
        let batch = TaskKind::OrderBatch {
            pairs: vec![("a".into(), "b".into()), ("c".into(), "d".into())],
            instruction: "better?".into(),
        };
        assert_eq!(
            m.ideal_answer(&batch),
            Answer::Batch(vec![Answer::Left, Answer::Left])
        );
        let rank = TaskKind::RankGroup {
            items: vec!["a".into(), "b".into(), "c".into()],
            instruction: "order these".into(),
        };
        assert_eq!(m.ideal_answer(&rank), Answer::Ranking(vec![0, 1, 2]));
    }

    #[test]
    fn erroneous_batches_flip_items_but_keep_arity() {
        let m = PerfectModel;
        let batch = TaskKind::EqualBatch {
            pairs: vec![("a".into(), "b".into()); 6],
            instruction: "same?".into(),
        };
        let mut r = rng();
        let mut saw_flip = false;
        for _ in 0..50 {
            match m.erroneous_answer(&batch, &mut r) {
                Answer::Batch(items) => {
                    assert_eq!(items.len(), 6, "arity preserved");
                    saw_flip |= items.contains(&Answer::No);
                }
                Answer::Blank => {} // whole-batch spam is allowed
                other => panic!("{other:?}"),
            }
        }
        assert!(saw_flip);
    }

    #[test]
    fn erroneous_ranking_is_a_permutation() {
        let m = PerfectModel;
        let rank = TaskKind::RankGroup {
            items: (0..5).map(|i| format!("i{i}")).collect(),
            instruction: "order".into(),
        };
        let mut r = rng();
        for _ in 0..50 {
            match m.erroneous_answer(&rank, &mut r) {
                Answer::Ranking(order) => {
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
                }
                Answer::Blank => {}
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn closure_model_delegates() {
        let m = ClosureModel::new(|_t: &TaskKind| Answer::No);
        assert_eq!(m.ideal_answer(&equal_task()), Answer::No);
        // Erroneous answer of No flips to Yes (or blank).
        let mut r = rng();
        let mut saw_yes = false;
        for _ in 0..100 {
            if m.erroneous_answer(&equal_task(), &mut r) == Answer::Yes {
                saw_yes = true;
            }
        }
        assert!(saw_yes);
    }
}
