//! `pdsm-bench` — see `README.md` beside this package.
//!
//! ```text
//! pdsm-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload: end to end (--trace 0, the default) or
//!     traced (--trace 1); the last line of output is the result object
//! pdsm-bench --all [--seed N] [--seconds S] [--repeat R] [--json OUT]
//!            [--baseline A.json]
//!     every workload end to end and traced, R times over; OUT can be
//!     compared later, --baseline compares straight away
//! pdsm-bench --smoke
//!     every workload end to end and traced at tiny scale
//! pdsm-bench compare A.json B.json
//! ```

use pdsm_bench::{Args, Json};
use pdsm_perfbench::compare::compare_files;
use pdsm_perfbench::report::{print_failures, print_rows, result_line, run_json, Contract};
use pdsm_perfbench::server::build_server;
use pdsm_perfbench::suite::{pin_process_env, run_e2e, run_traced, Phases, RunOutput};
use pdsm_perfbench::workload::Workload;
use std::process::ExitCode;

fn print_run(out: &RunOutput, contract: &Contract) {
    println!("# run: {}", out.kind);
    out.header.print();
    print_rows(out.header.workload, &out.metrics, contract);
    for note in &out.notes {
        println!("# {note}");
    }
    print_failures(&out.tally);
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load()?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: pdsm-bench compare A.json B.json".into());
        };
        return compare_files(a, b, &contract);
    }

    let args = Args::parse();
    let seed: u64 = args.get("seed", 1);
    let seconds: u64 = args.get("seconds", contract.run_seconds);
    pin_process_env();
    let server_bin = build_server().map_err(|e| e.to_string())?;

    if args.has("workload") {
        let name: String = args.get("workload", String::new());
        let w = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let phases = Phases::full(seconds.max(1));
        let out = if args.get("trace", 0u8) == 1 {
            run_traced(w, seed, &phases, &server_bin)?
        } else {
            run_e2e(w, seed, &phases, &server_bin)?
        };
        print_run(&out, &contract);
        println!("{}", result_line(&out.tally, &out.metrics));
        return Ok(out.tally.failed == 0);
    }

    let smoke = args.has("smoke");
    if !smoke && !args.has("all") {
        return Err("nothing to do: give --workload NAME, --all, --smoke or compare".into());
    }
    let phases = if smoke {
        Phases::smoke()
    } else {
        Phases::full(seconds.max(1))
    };
    let repeat: usize = if smoke { 1 } else { args.get("repeat", 1) };
    let mut runs = Vec::new();
    let mut all_ok = true;
    for r in 0..repeat {
        for w in Workload::ALL {
            for out in [
                run_e2e(w, seed, &phases, &server_bin)?,
                run_traced(w, seed, &phases, &server_bin)?,
            ] {
                println!("# repeat: {r}");
                print_run(&out, &contract);
                all_ok &= out.tally.failed == 0;
                runs.push(run_json(&out));
            }
        }
    }
    let json_path: String = args.get("json", String::new());
    if !json_path.is_empty() {
        let text = Json::obj(vec![("runs", Json::Arr(runs))]).render();
        std::fs::write(&json_path, text + "\n").map_err(|e| format!("{json_path}: {e}"))?;
        let baseline: String = args.get("baseline", String::new());
        if !baseline.is_empty() {
            all_ok &= compare_files(&baseline, &json_path, &contract)?;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pdsm-bench: {e}");
            ExitCode::from(2)
        }
    }
}
