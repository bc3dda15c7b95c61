// Command amc-node runs one locality of a multi-process AMC cluster
// over real TCP sockets: it listens on -bind, joins the cluster through
// the -seeds contacts (node 0 conventionally runs with none and is
// everyone else's seed), gossips SWIM-style membership over the
// phi-accrual failure detector, and executes its partition of a Task
// Bench-style dependency graph. Node 0 aggregates every node's result
// into one JSON report.
//
// Exit codes: 0 success, 1 error, 3 clean fail-fast on a detected peer
// crash.
//
// A three-node cluster on one machine:
//
//	amc-node -id 0 -n 3 -bind 127.0.0.1:9100 -result cluster.json &
//	amc-node -id 1 -n 3 -bind 127.0.0.1:9101 -seeds 0@127.0.0.1:9100 &
//	amc-node -id 2 -n 3 -bind 127.0.0.1:9102 -seeds 0@127.0.0.1:9100 &
package main

import (
	"os"

	"repro/internal/cluster"
)

func main() {
	os.Exit(cluster.NodeMain(os.Args[1:], os.Stderr))
}
