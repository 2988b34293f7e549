//! `--compare base.json new.json`: is `new` within the benchmark's bounds
//! of `base`, on every workload × end-to-end metric, and are the exact
//! counts equal?

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// Within the bound, but one side disagrees with itself (the two
    /// halves of its run, or its repetitions) by more than the bound: the
    /// comparison cannot tell.
    Unresolved,
    Regression,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// One side of a comparison: the reported value and its spread.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    /// Disagreement inside the run ÷ `value` (`stats::Summary::spread`).
    pub spread: f64,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(better: Better, bound: f64, base: Reading, new: Reading) -> Verdict {
    let worse = worsening(better, base.value, new.value);
    if worse > bound {
        Verdict::Regression
    } else if base.spread > bound || new.spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn reading(metric: &Json) -> Option<Reading> {
    Some(Reading {
        value: metric.get("value")?.as_f64()?,
        spread: metric.get("spread")?.as_f64()?,
    })
}

/// Compares two records; returns the report and whether `new` passes.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut pass = true;
    let same_seed =
        base.get("seed").and_then(Json::as_f64) == new.get("seed").and_then(Json::as_f64);
    for w in &spec::WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(b), Some(n)) = (side(base), side(new)) else {
            return Err(format!("workload {} is missing from a record", w.name));
        };
        for m in &spec::END_TO_END {
            let read = |doc: &Json| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(reading)
            };
            let (Some(rb), Some(rn)) = (read(&b), read(&n)) else {
                return Err(format!("{}: {} is missing from a record", w.name, m.name));
            };
            let verdict = judge(m.better, m.bound, rb, rn);
            pass &= verdict != Verdict::Regression;
            report.push_str(&format!(
                "{:<15} {:<15} {:>14.3} -> {:>14.3} {:<5} {:>+7.1}% worse (bound {:.0}%, spread {:.1}% / {:.1}%)  {}\n",
                w.name,
                m.name,
                rb.value,
                rn.value,
                m.unit,
                100.0 * worsening(m.better, rb.value, rn.value),
                100.0 * m.bound,
                100.0 * rb.spread,
                100.0 * rn.spread,
                verdict.as_str(),
            ));
        }
        let failed = |doc: &Json| doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        if failed(&n) != 0.0 {
            pass = false;
            report.push_str(&format!(
                "{:<15} failed statements: {}  REGRESSION\n",
                w.name,
                failed(&n)
            ));
        }
        // Exact counts only mean the same thing under the same inputs.
        if !same_seed {
            continue;
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            let read = |doc: &Json| {
                doc.get("per_layer")
                    .and_then(|l| l.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(vb), Some(vn)) = (read(&b), read(&n)) {
                if vb != vn {
                    pass = false;
                    report.push_str(&format!(
                        "{:<15} {:<34} {vb} -> {vn} {}  exact count differs  REGRESSION\n",
                        w.name, m.name, m.unit
                    ));
                }
            }
        }
    }
    if !same_seed {
        report.push_str("seeds differ: exact counts not compared\n");
    }
    report.push_str(if pass {
        "PASS: no end-to-end metric worsened beyond its bound, exact counts equal\n"
    } else {
        "FAIL\n"
    });
    Ok((report, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_either_direction() {
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.0), r(111.0, 0.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.0), r(109.0, 0.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Higher, 0.10, r(100.0, 0.0), r(89.0, 0.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Higher, 0.10, r(100.0, 0.0), r(91.0, 0.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Higher, 0.10, r(100.0, 0.0), r(120.0, 0.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.0), r(80.0, 0.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.3), r(101.0, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.0), r(85.0, 0.2)),
            Verdict::Unresolved
        );
        // A regression stays a regression however noisy the runs were.
        assert_eq!(
            judge(Better::Lower, 0.10, r(100.0, 0.5), r(150.0, 0.5)),
            Verdict::Regression
        );
    }

    fn record(p50: f64, cents: f64, failed: f64) -> Json {
        let workloads = spec::WORKLOADS.iter().map(|w| {
            let e2e = spec::END_TO_END.iter().map(|m| {
                let v = if m.name == "latency_p50_us" {
                    p50
                } else {
                    10.0
                };
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("spread", Json::Num(0.0))]),
                )
            });
            let layers = [(
                "platform.cents_per_stmt",
                Json::obj([("value", Json::Num(cents))]),
            )];
            (
                w.name,
                Json::obj([
                    ("end_to_end", Json::obj(e2e)),
                    ("per_layer", Json::obj(layers)),
                    ("failed", Json::Num(failed)),
                ]),
            )
        });
        Json::obj([
            ("seed", Json::Num(1.0)),
            ("workloads", Json::obj(workloads)),
        ])
    }

    #[test]
    fn records_compare_in_both_directions() {
        let base = record(100.0, 3.5, 0.0);
        assert!(compare(&base, &record(105.0, 3.5, 0.0)).unwrap().1);
        assert!(compare(&record(105.0, 3.5, 0.0), &base).unwrap().1);
        let (report, pass) = compare(&base, &record(130.0, 3.5, 0.0)).unwrap();
        assert!(!pass && report.contains("REGRESSION"), "{report}");
        let (report, pass) = compare(&base, &record(100.0, 3.6, 0.0)).unwrap();
        assert!(!pass && report.contains("exact count differs"), "{report}");
        assert!(!compare(&base, &record(100.0, 3.5, 2.0)).unwrap().1);
        assert!(compare(&base, &Json::obj([("seed", Json::Num(1.0))])).is_err());
    }
}
