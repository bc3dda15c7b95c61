#!/usr/bin/env bash
# cluster_smoke.sh — multi-process cluster smoke test.
#
# Builds amc-node, then runs four scenarios over loopback TCP:
#   1. clean:     3 nodes run a stencil graph to completion (exit 0 each)
#   2. fail-fast: node 2 is hard-killed mid-run; survivors must detect it
#                 via gossiped membership and exit with code 3
#   3. recover:   same kill with -recover; survivors re-home the dead
#                 node's partition and exit 0 with the full graph done
#   4. partition-heal: node 2 is fully partitioned for 1.2s; the
#                 cluster convicts it, the partition heals, the node
#                 refutes its obituary (a rebirth) and every node
#                 converges back before running the graph to completion
#                 (exit 0 each)
#
# Exits non-zero on the first scenario that misbehaves.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"; kill $(jobs -p) 2>/dev/null || true' EXIT
BIN="$WORK/amc-node"
go build -o "$BIN" ./cmd/amc-node

# run_cluster <name> <common flags...> — starts node 0 on an ephemeral
# port, seeds nodes 1 and 2 from its address file, waits for all three,
# and records exit codes in CODES[] and per-node logs in $WORK/<name>.N.log.
run_cluster() {
    local name=$1; shift
    local dir="$WORK/$name"
    mkdir -p "$dir"
    local addr_file="$dir/node0.addr"

    "$BIN" -id 0 -n 3 -bind 127.0.0.1:0 -addr-file "$addr_file" \
        -result "$dir/cluster.json" -join-timeout 30s "$@" ${NODE0_EXTRA:-} \
        >"$dir/node0.log" 2>&1 &
    local pid0=$!
    for _ in $(seq 1 300); do
        [ -s "$addr_file" ] && break
        sleep 0.05
    done
    [ -s "$addr_file" ] || { echo "FAIL($name): node 0 never published its address"; exit 1; }
    local seed="0@$(head -n1 "$addr_file")"

    "$BIN" -id 1 -n 3 -bind 127.0.0.1:0 -seeds "$seed" -join-timeout 30s \
        "$@" ${NODE1_EXTRA:-} >"$dir/node1.log" 2>&1 &
    local pid1=$!
    "$BIN" -id 2 -n 3 -bind 127.0.0.1:0 -seeds "$seed" -join-timeout 30s \
        "$@" ${NODE2_EXTRA:-} >"$dir/node2.log" 2>&1 &
    local pid2=$!

    CODES=()
    for pid in $pid0 $pid1 $pid2; do
        local code=0
        wait "$pid" || code=$?
        CODES+=("$code")
    done
}

expect_code() { # <name> <node> <want>
    local got=${CODES[$2]}
    if [ "$got" != "$3" ]; then
        echo "FAIL($1): node $2 exited $got, want $3"
        sed "s/^/  node$2| /" "$WORK/$1/node$2.log" | tail -20
        exit 1
    fi
}

GRAPH=(-pattern stencil_1d -width 6 -timeout 60s)

echo "== scenario 1: clean 3-node run =="
run_cluster clean "${GRAPH[@]}" -steps 32
expect_code clean 0 0; expect_code clean 1 0; expect_code clean 2 0
grep -q '"completed": true' "$WORK/clean/cluster.json" \
    || { echo "FAIL(clean): result not completed"; cat "$WORK/clean/cluster.json"; exit 1; }
echo "ok: completed, all nodes exit 0"

echo "== scenario 2: kill node 2, fail-fast =="
NODE2_EXTRA="-crash-after 500ms" \
    run_cluster failfast "${GRAPH[@]}" -steps 100000 -iterations 500
expect_code failfast 0 3; expect_code failfast 1 3
for n in 0 1; do
    grep -q 'locality 2 confirmed down' "$WORK/failfast/node$n.log" \
        || { echo "FAIL(failfast): node $n never logged the membership verdict"; exit 1; }
done
echo "ok: survivors detected the crash via gossip and failed fast (exit 3)"

echo "== scenario 3: kill node 2, recover =="
NODE2_EXTRA="-crash-after 500ms" \
    run_cluster recover -pattern stencil_1d -width 12 -steps 8000 \
    -iterations 2000 -recover -timeout 90s
expect_code recover 0 0; expect_code recover 1 0
grep -q '"completed": true' "$WORK/recover/cluster.json" \
    || { echo "FAIL(recover): result not completed"; cat "$WORK/recover/cluster.json"; exit 1; }
echo "ok: survivors re-homed the dead partition and completed (exit 0)"

echo "== scenario 4: partition node 2, heal, rejoin =="
run_cluster partition "${GRAPH[@]}" -steps 32 \
    -partition-node 2 -partition-after 300ms -partition-for 1200ms -partition-mode full
expect_code partition 0 0; expect_code partition 1 0; expect_code partition 2 0
grep -q '"completed": true' "$WORK/partition/cluster.json" \
    || { echo "FAIL(partition): result not completed"; cat "$WORK/partition/cluster.json"; exit 1; }
for n in 0 1 2; do
    grep -q 'rejoin converged' "$WORK/partition/node$n.log" \
        || { echo "FAIL(partition): node $n never logged rejoin convergence"; exit 1; }
done
grep -q '"rebirths": [1-9]' "$WORK/partition/cluster.json" \
    || { echo "FAIL(partition): no rebirth recorded — the outage never convicted anyone"; exit 1; }
echo "ok: conviction, heal, rebirth, convergence, full graph (exit 0)"

echo "cluster smoke: all scenarios passed"
