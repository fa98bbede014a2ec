//! # pdsm-bench
//!
//! The benchmark harness: one binary per figure/table of the paper's
//! evaluation (see DESIGN.md §3 for the full index) plus Criterion
//! micro-benchmarks. This library holds the shared measurement utilities
//! and the two processing models the paper only *compares against* —
//! [`BulkEngine`] (MonetDB column-at-a-time, Fig. 3 and the HYRISE-style
//! leg of Fig. 9) and [`VectorizedEngine`] (X100 block-at-a-time, an
//! ablation). Neither serves queries: both read plain resident tables only.

pub mod bulk;
pub mod vectorized;

pub use bulk::BulkEngine;
pub use vectorized::VectorizedEngine;

use std::time::Instant;

/// Read the timestamp counter (cycles); falls back to a scaled nanosecond
/// clock off x86 (see `pdsm_cost::calibrate::read_cycles`).
pub fn cycles_now() -> u64 {
    pdsm_cost::calibrate::read_cycles()
}

/// Measure `f`, returning (median cycles, median wall-nanoseconds) over
/// `reps` repetitions. The measured closure runs once as warm-up first.
pub fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, u64) {
    let mut cycles = Vec::with_capacity(reps);
    let mut nanos = Vec::with_capacity(reps);
    std::hint::black_box(f());
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let c0 = cycles_now();
        std::hint::black_box(f());
        let c1 = cycles_now();
        cycles.push(c1.wrapping_sub(c0));
        nanos.push(t0.elapsed().as_nanos() as u64);
    }
    cycles.sort_unstable();
    nanos.sort_unstable();
    (cycles[cycles.len() / 2], nanos[nanos.len() / 2])
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// The `p`-quantile (0..=1) of an unsorted sample, by nearest-rank on a
/// sorted copy. Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Minimal JSON value builder for the machine-readable bench artifacts
/// (no serde in the offline container). Numbers are emitted with enough
/// precision to round-trip; strings are escaped.
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(i64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        match self {
            Json::Num(x) => {
                if x.is_finite() {
                    format!("{x}")
                } else {
                    "null".into()
                }
            }
            Json::Int(x) => format!("{x}"),
            Json::Bool(b) => format!("{b}"),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).render(), v.render()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// Human format for big numbers (`1.3e9` style stays readable in tables).
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if a >= 1e9 {
        format!("{:.2}e9", x / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", x / 1e3)
    } else if a >= 1.0 {
        format!("{:.1}", x)
    } else {
        format!("{:.4}", x)
    }
}

/// Minimal `--flag value` argument parsing for the harness binaries.
pub struct Args(Vec<String>);

impl Args {
    /// Capture the process arguments.
    pub fn parse() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// Value of `--name <v>`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.0
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.0.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// True iff `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.0.iter().any(|a| a == &flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive() {
        let (cyc, ns) = measure(3, || {
            let mut s = 0u64;
            for i in 0..10_000u64 {
                s = s.wrapping_add(i);
            }
            s
        });
        assert!(cyc > 0);
        assert!(ns > 0);
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(2_500_000.0), "2.50M");
        assert_eq!(fmt_num(3.2e9), "3.20e9");
        assert_eq!(fmt_num(42_000.0), "42.0k");
        assert_eq!(fmt_num(7.5), "7.5");
        assert_eq!(fmt_num(0.01), "0.0100");
    }
}
