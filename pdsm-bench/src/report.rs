//! What a run prints: the header, one row per (workload, metric), the
//! contract's result line, and the report file `compare` reads back.

use crate::e2e::{E2eReport, Tally, CONNECTIONS};
use crate::server::repo_root;
use crate::stats::Summary;
use crate::trace::TraceReport;
use pdsm_bench::{print_table, Json};
use std::collections::BTreeMap;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// The share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
}

/// The benchmark's contract file, the single home of bounds and units.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    /// Read `BENCHMARK.json` from the root of the repository.
    pub fn load() -> Result<Contract, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let json = parse_json(text)?;
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            as_array(field(&json, key)?)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: as_str(field(m, "name")?)?.to_string(),
                        unit: as_str(field(m, "unit")?)?.to_string(),
                        lower_is_better: as_str(field(m, "better")?)? == "lower",
                        bound: field(m, "bound").ok().and_then(as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: as_f64(field(&json, "run_seconds")?).ok_or("run_seconds")? as u64,
            workloads: as_array(field(&json, "workloads")?)?
                .iter()
                .map(|w| Ok(as_str(field(w, "name")?)?.to_string()))
                .collect::<Result<_, String>>()?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }

    pub fn end_to_end_spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    /// As measured, with all its digits.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// False for a tail percentile with fewer than ten samples beyond it:
    /// printed, but `null` in the report file and never compared.
    pub supported: bool,
}

fn measured(name: &str, unit: &str, value: f64, n: usize) -> Measured {
    Measured {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        n,
        supported: true,
    }
}

/// The end-to-end metrics of one run, in `BENCHMARK.json` order.
pub fn end_to_end_metrics(r: &E2eReport) -> Vec<Measured> {
    let latency = |s: Option<Summary>, class: &str| {
        // A class with no completed statement has no latency; the run
        // has then failed its workload definition.
        let s = s.unwrap_or(Summary {
            n: 0,
            p50: f64::NAN,
            tail: f64::NAN,
            beyond: 0,
        });
        [
            measured(&format!("{class}_p50_us"), "us", s.p50, s.n),
            Measured {
                supported: s.supported_tail().is_some(),
                ..measured(&format!("{class}_p95_us"), "us", s.tail, s.n)
            },
        ]
    };
    let [read_p50, read_tail] = latency(r.read_us, "read");
    let [write_p50, write_tail] = latency(r.write_us, "write");
    let completed = r.read_us.map_or(0, |s| s.n) + r.write_us.map_or(0, |s| s.n);
    vec![
        measured("setup_s", "s", r.setup_median(), r.setup_s.len()),
        measured("stmt_per_s", "1/s", r.stmt_per_s, completed),
        read_p50,
        read_tail,
        write_p50,
        write_tail,
        measured("rss_loaded_mb", "MB", r.rss_loaded_mb, 1),
        measured("recovery_s", "s", r.recovery_median(), r.recovery_s.len()),
    ]
}

/// The per-layer metrics of one traced run.
pub fn per_layer_metrics(r: &TraceReport) -> Vec<Measured> {
    r.metrics
        .iter()
        .map(|m| measured(&m.name, m.unit, m.value, m.n))
        .collect()
}

/// What identifies a run: printed above every result.
pub struct Header {
    pub workload: &'static str,
    pub seed: u64,
    pub warmup_s: f64,
    pub timed_s: f64,
    pub knobs: Vec<(&'static str, String)>,
    pub pool_bytes: Option<u64>,
    pub data_dir_bytes: u64,
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The widest SIMD level `PDSM_SIMD=auto` can find on this host.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        if std::is_x86_feature_detected!("sse2") {
            return "sse2";
        }
    }
    "scalar"
}

impl Header {
    pub fn to_json(&self) -> Json {
        let root = repo_root();
        let commit = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".into());
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("host", Json::Str(host)),
            ("nproc", Json::Int(nproc as i64)),
            ("simd", Json::Str(simd_level().into())),
            ("commit", Json::Str(commit)),
            ("seed", Json::Int(self.seed as i64)),
            ("connections", Json::Int(CONNECTIONS as i64)),
            ("loop", Json::Str("closed".into())),
            ("warmup_s", Json::Num(self.warmup_s)),
            ("timed_s", Json::Num(self.timed_s)),
            (
                "knobs",
                Json::Obj(
                    self.knobs
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "pool_budget_bytes",
                self.pool_bytes
                    .map_or(Json::Str("none".into()), |b| Json::Int(b as i64)),
            ),
            ("data_dir_bytes", Json::Int(self.data_dir_bytes as i64)),
            (
                "crash_model",
                Json::Str(
                    "SIGKILL of the server process; the operating system's cache survives".into(),
                ),
            ),
        ])
    }

    pub fn print(&self) {
        if let Json::Obj(fields) = self.to_json() {
            for (k, v) in fields {
                println!("# {k}: {}", v.render());
            }
        }
    }
}

/// Print one row per metric: name, unit, value, sample count, bound.
pub fn print_rows(workload: &str, rows: &[Measured], contract: &Contract) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            let bound = contract
                .end_to_end_spec(&m.name)
                .and_then(|s| s.bound)
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            let value = if m.supported {
                format!("{:.4}", m.value)
            } else {
                format!("null ({:.4}, <10 samples beyond)", m.value)
            };
            vec![
                workload.to_string(),
                m.name.clone(),
                m.unit.clone(),
                value,
                m.n.to_string(),
                bound,
            ]
        })
        .collect();
    print_table(
        &["workload", "metric", "unit", "value", "n", "bound"],
        &table,
    );
}

pub fn print_failures(tally: &Tally) {
    println!(
        "# attempted: {}  failed: {}  fail_ratio: {}",
        tally.attempted,
        tally.failed,
        tally.fail_ratio()
    );
    for m in &tally.messages {
        println!("# failure: {m}");
    }
}

/// The contract's result line.
pub fn result_line(tally: &Tally, metrics: &[Measured]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

/// One run's entry in the report file.
pub fn run_json(run: &crate::suite::RunOutput) -> Json {
    let (tally, metrics) = (&run.tally, &run.metrics);
    Json::obj(vec![
        ("kind", Json::Str(run.kind.into())),
        ("header", run.header.to_json()),
        (
            "notes",
            Json::Arr(run.notes.iter().cloned().map(Json::Str).collect()),
        ),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                (
                                    "value",
                                    // NaN renders as null too.
                                    Json::Num(if m.supported { m.value } else { f64::NAN }),
                                ),
                                ("unit", Json::Str(m.unit.clone())),
                                ("n", Json::Int(m.n as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Per workload, per end-to-end metric: the supported values of every
/// `end_to_end` run in a report file.
pub fn load_report(path: &str) -> Result<ReportValues, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_report(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(workload, metric)` → the values of its runs.
pub type ReportValues = BTreeMap<(String, String), Vec<f64>>;

fn parse_report(text: &str) -> Result<ReportValues, String> {
    let json = parse_json(text)?;
    let mut out = ReportValues::new();
    for run in as_array(field(&json, "runs")?)? {
        if as_str(field(run, "kind")?)? != "end_to_end" {
            continue;
        }
        let workload = as_str(field(field(run, "header")?, "workload")?)?.to_string();
        let Json::Obj(metrics) = field(run, "metrics")? else {
            return Err("metrics is not an object".into());
        };
        for (name, m) in metrics {
            let values = out.entry((workload.clone(), name.clone())).or_default();
            // An unsupported tail was written as `null`.
            values.extend(as_f64(field(m, "value")?).filter(|v| v.is_finite()));
        }
    }
    Ok(out)
}

// ---- a JSON reader for the two files this harness reads back ----

pub fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    match json {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}")),
        _ => Err(format!("{key:?} looked up in a non-object")),
    }
}

pub fn as_array(json: &Json) -> Result<&[Json], String> {
    match json {
        Json::Arr(items) => Ok(items),
        other => Err(format!("expected an array, found {}", other.render())),
    }
}

pub fn as_str(json: &Json) -> Result<&str, String> {
    match json {
        Json::Str(s) => Ok(s),
        other => Err(format!("expected a string, found {}", other.render())),
    }
}

pub fn as_f64(json: &Json) -> Option<f64> {
    match json {
        Json::Num(x) => Some(*x),
        Json::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// Parse JSON text into a [`Json`]; `null` becomes a NaN number (which
/// renders back as `null`).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected {lit:?} at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(":")?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(",")?;
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Num(f64::NAN)),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                let tok = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                if let Ok(i) = tok.parse::<i64>() {
                    Ok(Json::Int(i))
                } else {
                    tok.parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token at offset {start}"))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(b) => {
                    out.push(*b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_what_the_harness_writes() {
        let j = Json::obj(vec![
            ("a", Json::Int(-3)),
            ("b", Json::Num(1.25e-3)),
            ("c", Json::Str("x\"y\n".into())),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
            ("e", Json::Obj(vec![])),
        ]);
        let text = j.render();
        assert_eq!(parse_json(&text).unwrap().render(), text);
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
    }

    #[test]
    fn report_values_skip_nulls_and_traced_runs() {
        let run = |kind: &str, v: &str| {
            format!(
                r#"{{"kind":"{kind}","header":{{"workload":"w"}},"metrics":{{"m":{{"value":{v},"unit":"us","n":3}}}}}}"#
            )
        };
        let text = format!(
            r#"{{"runs":[{},{},{}]}}"#,
            run("end_to_end", "1.5"),
            run("end_to_end", "null"),
            run("per_layer", "9")
        );
        let values = parse_report(&text).unwrap();
        assert_eq!(values[&("w".to_string(), "m".to_string())], vec![1.5]);
    }
}
