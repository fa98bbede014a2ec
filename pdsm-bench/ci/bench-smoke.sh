#!/usr/bin/env bash
# Smoke-run the end-to-end benchmark: build the server and the harness,
# run every workload end to end plus its traced run at tiny scale, and
# fail when a single statement or check failed (a non-zero fail_ratio).
# For a CI job to call; run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo build --release -p pdsm-sql --bin pdsm-server
cargo build --release --manifest-path pdsm-bench/Cargo.toml --bin pdsm-bench
# --smoke exits 1 when any workload reports a failure, 2 when it cannot run.
cargo run --release --quiet --manifest-path pdsm-bench/Cargo.toml --bin pdsm-bench -- --smoke
