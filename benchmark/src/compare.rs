//! `compare A.json B.json`: two result sets side by side, judged by the
//! bounds in `BENCHMARK.json`.

use crate::metrics::{declared, Def};
use crate::stats::Summary;
use serde_json::Value;

/// How one end-to-end metric of one workload moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A repetition-to-repetition spread is wider than the bound, so the
    /// medians cannot tell.
    Unresolved,
}

/// Share of `a` by which `b` is worse, in the metric's own direction.
pub fn worse_by(def: &Def, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

pub fn verdict(def: &Def, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by(def, a.median, b.median) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn summary_of(metric: &Value) -> Option<Summary> {
    Some(Summary {
        median: metric["value"].as_f64()?,
        q1: metric["q1"].as_f64()?,
        q3: metric["q3"].as_f64()?,
        n: metric["n"].as_i64()? as usize,
    })
}

/// The run of `workload` with the given `trace` flag in a result set.
fn find_run<'a>(set: &'a Value, workload: &str, trace: bool) -> Option<&'a Value> {
    set["runs"]
        .as_array()?
        .iter()
        .find(|r| r["workload"].as_str() == Some(workload) && r["trace"].as_bool() == Some(trace))
}

/// Print the comparison; returns how many metrics regressed.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    let d = declared();
    let mut regressed = 0;
    for w in &d.workloads {
        let (Some(ra), Some(rb)) = (find_run(a, w, false), find_run(b, w, false)) else {
            println!("{w}: not in both result sets, skipped");
            continue;
        };
        println!("{w}  (A seed {}, B seed {})", ra["seed"], rb["seed"]);
        for def in &d.end_to_end {
            let get = |run: &Value| {
                summary_of(&run["metrics"][def.name.as_str()])
                    .ok_or_else(|| format!("{w}: metric `{}` missing or malformed", def.name))
            };
            let (sa, sb) = (get(ra)?, get(rb)?);
            let v = verdict(def, &sa, &sb);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "  {:<18} A {:>14.6} [{:.6}, {:.6}] n {:<2}  B {:>14.6} [{:.6}, {:.6}] n {:<2}  \
                 B/A {:.4} of {:.6} {}  bound {:.3}  {}",
                def.name,
                sa.median,
                sa.q1,
                sa.q3,
                sa.n,
                sb.median,
                sb.q1,
                sb.q3,
                sb.n,
                sb.median / sa.median,
                sa.median,
                def.unit,
                def.bound.unwrap_or(f64::NAN),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        println!(
            "  {:<18} A {} failed of {}  B {} failed of {}",
            "operations", ra["failed"], ra["attempted"], rb["failed"], rb["attempted"]
        );
        // Counts made by the program repeat exactly on the same inputs; a
        // difference between two sets of one commit and seed is a defect.
        if let (Some(ta), Some(tb)) = (find_run(a, w, true), find_run(b, w, true)) {
            let exact = |u: &str| matches!(u, "count" | "rows" | "work");
            let differing: Vec<&str> = d
                .per_layer
                .iter()
                .filter(|m| exact(&m.unit))
                .filter(|m| {
                    ta["metrics"][m.name.as_str()]["value"]
                        != tb["metrics"][m.name.as_str()]["value"]
                })
                .map(|m| m.name.as_str())
                .collect();
            let total = d.per_layer.iter().filter(|m| exact(&m.unit)).count();
            println!(
                "  per-layer counts   {} of {} identical {:?}",
                total - differing.len(),
                total,
                differing
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> Def {
        Def { name: "m".into(), unit: "s".into(), higher_is_better: higher, bound: Some(bound) }
    }

    fn tight(median: f64) -> Summary {
        Summary { median, q1: median * 0.99, q3: median * 1.01, n: 7 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = def(false, 0.10);
        assert_eq!(verdict(&lower, &tight(1.0), &tight(1.05)), Verdict::Ok);
        assert_eq!(verdict(&lower, &tight(1.0), &tight(1.2)), Verdict::Regressed);
        assert_eq!(verdict(&lower, &tight(1.0), &tight(0.5)), Verdict::Ok);
        let higher = def(true, 0.05);
        assert_eq!(verdict(&higher, &tight(100.0), &tight(90.0)), Verdict::Regressed);
        assert_eq!(verdict(&higher, &tight(100.0), &tight(120.0)), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_regressed() {
        let lower = def(false, 0.10);
        let noisy = Summary { median: 1.0, q1: 0.8, q3: 1.2, n: 5 };
        assert_eq!(verdict(&lower, &noisy, &tight(2.0)), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &tight(1.0), &noisy), Verdict::Unresolved);
    }
}
