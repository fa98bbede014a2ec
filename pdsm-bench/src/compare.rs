//! `pdsm-bench compare A.json B.json`: is B no worse than A?

use crate::report::{load_report, Contract};
use crate::stats::{median, quartile_spread};
use pdsm_bench::print_table;

/// The judgement of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    Regressed,
    /// A side has no supported value, or its repeats spread wider than
    /// the bound: the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared pair: medians, relative change of B against A (positive
/// is worse), widest spread of the two sides, verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub a: f64,
    pub b: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compare the repeats of one metric.
pub fn compare_values(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Option<Comparison> {
    let (ma, mb) = (median(a)?, median(b)?);
    let spread = |v: &[f64]| quartile_spread(v).map_or(0.0, |(_, s)| s);
    let spread = spread(a).max(spread(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Comparison {
        a: ma,
        b: mb,
        worse_by,
        spread,
        verdict,
    })
}

/// Print the comparison of two report files; `Ok(true)` when every pair
/// is `ok`.
pub fn compare_files(a_path: &str, b_path: &str, contract: &Contract) -> Result<bool, String> {
    let (a, b) = (load_report(a_path)?, load_report(b_path)?);
    let mut rows = Vec::new();
    let mut all_ok = true;
    for ((workload, metric), a_values) in &a {
        let Some(spec) = contract.end_to_end_spec(metric) else {
            continue;
        };
        let bound = spec.bound.unwrap_or(0.0);
        let b_values = b
            .get(&(workload.clone(), metric.clone()))
            .map_or(&[][..], Vec::as_slice);
        let cmp = compare_values(a_values, b_values, spec.lower_is_better, bound);
        let verdict = cmp.map_or(Verdict::Unresolved, |c| c.verdict);
        all_ok &= verdict == Verdict::Ok;
        let num = |x: Option<f64>| x.map_or("null".to_string(), |x| format!("{x:.4}"));
        rows.push(vec![
            workload.clone(),
            metric.clone(),
            spec.unit.clone(),
            num(cmp.map(|c| c.a)),
            num(cmp.map(|c| c.b)),
            cmp.map_or("-".into(), |c| format!("{:+.1}%", c.worse_by * 100.0)),
            cmp.map_or("-".into(), |c| format!("{:.1}%", c.spread * 100.0)),
            format!("{:.0}%", bound * 100.0),
            format!("{} / {}", a_values.len(), b_values.len()),
            verdict.label().to_string(),
        ]);
    }
    print_table(
        &[
            "workload", "metric", "unit", "A", "B", "worse by", "spread", "bound", "runs",
            "verdict",
        ],
        &rows,
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0];
        // Lower is better: +20 % against a 10 % bound regresses, +5 % does not.
        let worse = compare_values(&steady, &[120.0, 121.0, 119.0], true, 0.10).unwrap();
        assert_eq!(worse.verdict, Verdict::Regressed);
        assert!((worse.worse_by - 0.20).abs() < 1e-9);
        let fine = compare_values(&steady, &[105.0, 104.0, 106.0], true, 0.10).unwrap();
        assert_eq!(fine.verdict, Verdict::Ok);
        // Higher is better: a drop is what is worse.
        let drop = compare_values(&steady, &[80.0, 80.0, 80.0], false, 0.10).unwrap();
        assert_eq!(drop.verdict, Verdict::Regressed);
        let gain = compare_values(&steady, &[150.0, 150.0, 150.0], false, 0.10).unwrap();
        assert_eq!(gain.verdict, Verdict::Ok);
        // Repeats that spread wider than the bound resolve nothing.
        let noisy = compare_values(&[50.0, 100.0, 150.0], &steady, true, 0.10).unwrap();
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // No supported value on one side.
        assert!(compare_values(&steady, &[], true, 0.10).is_none());
    }
}
