//! `--smoke` end to end: every workload against a spawned `pdsm-server`,
//! its traced run, and the correctness gate, at tiny scale.

use pdsm_perfbench::report::Contract;
use pdsm_perfbench::server::build_server;
use pdsm_perfbench::suite::{pin_process_env, run_e2e, run_traced, Phases, RunOutput};
use pdsm_perfbench::workload::Workload;

fn value(out: &RunOutput, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn all_workloads_end_to_end_and_traced() {
    pin_process_env();
    let contract = Contract::load().expect("BENCHMARK.json");
    assert_eq!(
        contract.workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json lists the harness's workloads"
    );
    let server = build_server().expect("pdsm-server builds");
    let phases = Phases::smoke();
    for w in Workload::ALL {
        let e2e = run_e2e(w, 1, &phases, &server).expect("end-to-end run");
        assert_eq!(
            e2e.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            e2e.tally.messages
        );
        assert!(
            e2e.tally.attempted > 16,
            "{}: probes and statements ran",
            w.name()
        );
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, declared, "end-to-end metrics are BENCHMARK.json's");
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }

        let traced = run_traced(w, 1, &phases, &server).expect("traced run");
        assert_eq!(
            traced.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            traced.tally.messages
        );
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = contract.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared, "per-layer metrics are BENCHMARK.json's");
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
        // The pool is exercised on cold_pool and nowhere else.
        assert_eq!(
            value(&traced, "pool.faults") > 0.0,
            w == Workload::ColdPool,
            "{}",
            w.name()
        );

        // Counters of the traced run repeat exactly under the same seed.
        let again = run_traced(w, 1, &phases, &server).expect("traced run, again");
        for name in [
            "store.wal_appends",
            "txn.merge_count",
            "pool.faults",
            "exec.blocks_scanned",
            "core.recovery_replay_ops",
            "trace.statements",
        ] {
            assert_eq!(
                value(&traced, name),
                value(&again, name),
                "{} {name}",
                w.name()
            );
        }
    }
}
