//! `--compare OLD NEW`: two run sets (the JSON lines `--json` appends),
//! compared per workload and metric against the bounds in
//! `BENCHMARK.json`. Report only; the verdict rules follow the
//! repository's benchmarking guide:
//!
//! * `unresolved` — either side's quartile spread exceeds the bound, and
//!   the new runs do not all read better than all the old ones;
//! * `worse` — the new median is worse than the old by more than the
//!   bound;
//! * `better` — the new median is better by more than the old runs'
//!   own spread (or every new run beats every old run);
//! * `within bound` — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};
use crate::workloads::NAMES;

/// (workload, metric) → values, plus the workloads with a failed run.
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: Vec<String>,
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet {
        values: BTreeMap::new(),
        failed: Vec::new(),
    };
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?
            .to_string();
        if v.get("correct") != Some(&Value::Bool(true)) {
            set.failed.push(workload.clone());
        }
        for (metric, m) in v.get("metrics").and_then(Value::obj).into_iter().flatten() {
            if let Some(x) = m.get("value").and_then(Value::num) {
                set.values
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(set)
}

/// (name, better, bound) of each metric `BENCHMARK.json` declares;
/// per-layer metrics have no bound.
fn declared(spec: &Value) -> Vec<(String, String, Option<f64>)> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec.get(key).map_or(&[][..], Value::arr) {
            let name = m.get("name").and_then(Value::str).unwrap_or("").to_string();
            let better = m
                .get("better")
                .and_then(Value::str)
                .unwrap_or("lower")
                .to_string();
            out.push((name, better, m.get("bound").and_then(Value::num)));
        }
    }
    out
}

pub fn run(bench: &Path, old: &Path, new: &Path) -> Result<String, String> {
    let spec_text =
        std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let spec = json::parse(&spec_text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let (old, new) = (load(old)?, load(new)?);
    let mut workloads: Vec<String> = old
        .values
        .keys()
        .chain(new.values.keys())
        .map(|(w, _)| w.clone())
        .collect();
    workloads.sort_by_key(|w| {
        (
            NAMES.iter().position(|n| n == w).unwrap_or(NAMES.len()),
            w.clone(),
        )
    });
    workloads.dedup();

    let mut out = format!(
        "{:<16} {:<26} {:>30} {:>30} {:>9}  verdict\n",
        "workload", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "delta"
    );
    for w in &workloads {
        for (metric, better, bound) in declared(&spec) {
            let key = (w.clone(), metric.clone());
            let (Some(a), Some(b)) = (old.values.get(&key), new.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            let delta = if ma != 0.0 {
                (mb - ma) / ma * 100.0
            } else {
                0.0
            };
            let verdict = bound.map_or("-", |bound| verdict(a, b, &better, bound));
            let _ = writeln!(
                out,
                "{w:<16} {metric:<26} {:>30} {:>30} {delta:>8.2}%  {verdict}",
                summary(a),
                summary(b)
            );
        }
    }
    for (label, set) in [("old", &old), ("new", &new)] {
        if !set.failed.is_empty() {
            let _ = writeln!(
                out,
                "{label} set has failed runs: {}",
                set.failed.join(", ")
            );
        }
    }
    Ok(out)
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!(
        "{} [{}, {}] ({})",
        short(median(xs)),
        short(q1),
        short(q3),
        xs.len()
    )
}

fn short(x: f64) -> String {
    format!("{x:.4}")
}

fn verdict(old: &[f64], new: &[f64], better: &str, bound: f64) -> &'static str {
    let sign = if better == "higher" { -1.0 } else { 1.0 };
    let spread = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        let m = median(xs).abs();
        if m > 0.0 {
            (q3 - q1) / m
        } else {
            0.0
        }
    };
    let (mo, mn) = (median(old), median(new));
    // Relative worsening of the median: positive is worse.
    let worse = if mo != 0.0 {
        sign * (mn - mo) / mo.abs()
    } else {
        0.0
    };
    let all_better = new.iter().all(|n| old.iter().all(|o| sign * (n - o) < 0.0));
    if all_better {
        "better"
    } else if spread(old).max(spread(new)) > bound {
        "unresolved"
    } else if worse > bound {
        "worse"
    } else if -worse > spread(old) {
        "better"
    } else {
        "within bound"
    }
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let old = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&old, &[100.2, 100.8, 99.4, 100.1, 99.9], "lower", 0.1),
            "within bound"
        );
        assert_eq!(
            verdict(&old, &[120.0, 121.0, 119.0, 120.5, 119.5], "lower", 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&old, &[80.0, 81.0, 79.0, 80.5, 79.5], "lower", 0.1),
            "better"
        );
        assert_eq!(
            verdict(&old, &[80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&old, &[50.0, 150.0, 100.0, 60.0, 140.0], "lower", 0.1),
            "unresolved"
        );
    }
}
