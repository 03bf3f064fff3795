#!/usr/bin/env bash
# Runs every benchmark workload once with tracing, printing each one's
# end-to-end table and per-layer ledger.
# Usage: perfbench/all.sh [SEED] [SECONDS]   (from the repository root)
set -euo pipefail
seed="${1:-2005}"
seconds="${2:-30}"
for workload in fleet_clean fleet_worst_mixed ckpt_churn; do
    echo "== $workload =="
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1
done
