#!/usr/bin/env bash
# The tier-1 byte-identity, throughput and crash-resume gates, shared
# verbatim between CI (the tier1 job) and local runs
# (`scripts/tier1.sh --gates`). Everything the gates produce — reports,
# timing dumps, checkpoints — lives in a private temp directory removed
# on exit, so an aborted gate never litters the working tree the way
# the old inline ci.yml steps littered the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

SEED="${SEED:-2005}"
PHONES="${PHONES:-250}"
DAYS="${DAYS:-60}"
WORKERS="${WORKERS:-13}"
# 2x the pre-sharding 250-phone parse rate (40.26 MB/s at PR 5) — the
# anti-cliff contract inherited from the sharded-merger PR.
MBPS_FLOOR="${MBPS_FLOOR:-80.52}"

cargo build --release -p symfail-bench --bin repro >/dev/null
BIN="$ROOT/target/release/repro"

TMP="$(mktemp -d "${TMPDIR:-/tmp}/symfail-gates.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

echo "ci_gates: 1 vs $WORKERS workers byte identity ($PHONES phones, worst corruption)" >&2
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers 1 > report_one_worker.txt
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" > report_stream.txt
cmp report_one_worker.txt report_stream.txt

echo "ci_gates: --run-len 1 vs automatic run length byte identity" >&2
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" --run-len 1 > report_run_len_1.txt
cmp report_stream.txt report_run_len_1.txt

echo "ci_gates: streaming parse throughput floor ($MBPS_FLOOR MB/s)" >&2
"$BIN" --exp defects --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --workers 1 --timing-json stream_250.json > /dev/null
awk -F'[:,]' -v floor="$MBPS_FLOOR" '/"parse_seconds":/ { s = $2 + 0 }
    /"parse_bytes":/ { b = $2 + 0 }
    END {
      mbps = (s > 0) ? b / s / 1048576 : 0
      printf "ci_gates: streaming parse: %.2f MB/s (floor %s)\n", mbps, floor
      exit !(mbps >= floor)
    }' stream_250.json >&2

echo "ci_gates: damaged-flash allocation budget (worst vs clean campaign)" >&2
# Worst-profile corruption may cost at most 64 allocations per phone
# over the clean campaign: the injector edits a line index over each
# file's own bytes and never copies a line into a String. `ablations`
# takes the staged path, whose "campaign" stage is simulation plus
# injection, without the parse. Allocation counts repeat exactly run
# to run.
ALLOC_PHONES=25
for c in none worst; do
    "$BIN" --exp ablations --seed "$SEED" --phones "$ALLOC_PHONES" --days 425 \
        --workers 1 --corruption "$c" \
        --timing-json "allocs_$c.json" > /dev/null
done
campaign_allocs() {
    awk -F'"allocs": ' '/"stage": "campaign"/ { split($2, a, ","); print a[1] }' "$1"
}
clean_allocs="$(campaign_allocs allocs_none.json)"
worst_allocs="$(campaign_allocs allocs_worst.json)"
alloc_limit=$((clean_allocs + 64 * ALLOC_PHONES))
echo "ci_gates: campaign allocs: clean $clean_allocs, worst $worst_allocs (limit $alloc_limit)" >&2
if [ "$worst_allocs" -gt "$alloc_limit" ]; then
    echo "ci_gates: worst corruption exceeds the per-phone allocation budget" >&2
    exit 1
fi

echo "ci_gates: checkpoint interrupt/resume byte identity (kill at phone 97)" >&2
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --checkpoint ckpt.bin --checkpoint-every 10 --stop-after 97 > /dev/null
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --checkpoint ckpt.bin --mtbf-trace-json mtbf_trace.json > report_resumed.txt
cmp report_stream.txt report_resumed.txt
grep -q '"resumed_from": 97' mtbf_trace.json

echo "ci_gates: 4-process cost-balanced shard merge byte identity" >&2
for i in 0 1 2 3; do
    "$BIN" --exp targets --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
        --corruption worst \
        --shard "$i/4" --balance static --checkpoint "shard$i.bin" > /dev/null
done
"$BIN" merge-checkpoints merged.bin shard0.bin shard1.bin shard2.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    > report_merged.txt
cmp report_stream.txt report_merged.txt

echo "ci_gates: mixed-fleet --run-len 1 vs automatic run length byte identity" >&2
# Heterogeneous composition: the device-class dimension must survive
# any run partition bit for bit, and the report must actually carry
# the device-class breakdown.
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --fleet mixed > report_mixed_auto.txt
"$BIN" --exp all --seed "$SEED" --phones "$PHONES" --days "$DAYS" \
    --corruption worst --workers "$WORKERS" \
    --fleet mixed --run-len 1 > report_mixed_run_len_1.txt
cmp report_mixed_auto.txt report_mixed_run_len_1.txt
grep -q "device class" report_mixed_auto.txt
# And the default composition must NOT grow the section: the
# homogeneous report stays byte-compatible with the pre-fleet output.
if grep -q "device class" report_stream.txt; then
    echo "ci_gates: default fleet unexpectedly renders device classes" >&2
    exit 1
fi

echo "ci_gates: partial merge smoke (shard 2 withheld)" >&2
# One shard file missing: strict merge must refuse; --partial must
# exit zero, fold the present shards, and name the hole.
if "$BIN" merge-checkpoints partial.bin shard0.bin shard1.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    > /dev/null 2>&1; then
    echo "ci_gates: strict merge accepted an incomplete cover" >&2
    exit 1
fi
"$BIN" merge-checkpoints partial.bin shard0.bin shard1.bin shard3.bin \
    --seed "$SEED" --phones "$PHONES" --days "$DAYS" --corruption worst \
    --partial > report_partial.txt
grep -q "missing phone interval" report_partial.txt
if cmp -s report_stream.txt report_partial.txt; then
    echo "ci_gates: partial report impossibly matches the full fleet" >&2
    exit 1
fi

echo "ci_gates: all gates passed" >&2
