package serve

import (
	"encoding/json"
	"fmt"

	"flash"
	"flash/graph"
)

// clusterAlgos are the algorithms whose drivers are cluster-safe: decisions
// branch only on subset sizes and Gather/Fold results (both replicated
// deterministically across worker processes), no driver-side Get of remote
// masters, no driver-side state carried between supersteps (BCC's and MSF's
// DSU), no FullMirrors requirement.
var clusterAlgos = map[string]bool{
	"bfs":      true,
	"cc":       true,
	"pagerank": true,
	"sssp":     true,
}

// ClusterSafe reports whether algo may run as a multi-process cluster job.
func ClusterSafe(algo string) bool { return clusterAlgos[algo] }

// ClusterAlgos lists the cluster-safe algorithm names.
func ClusterAlgos() []string {
	names := make([]string, 0, len(clusterAlgos))
	for name := range clusterAlgos {
		names = append(names, name)
	}
	return names
}

// RunAlgo executes a registered algorithm directly — no server, queue, or
// job machinery — and returns its result as JSON. The encoding is
// deterministic for a deterministic run (slices marshal in order), which is
// what lets the cluster layer compare cross-process results byte-for-byte
// against an in-process golden run.
func RunAlgo(algo string, g *graph.Graph, p JobParams, opts ...flash.Option) ([]byte, error) {
	spec, ok := algoRegistry[algo]
	if !ok {
		return nil, &UnknownAlgoError{Algo: algo}
	}
	if spec.needsRoot && p.Root == nil {
		return nil, &RequestError{Field: "root", Reason: fmt.Sprintf("required by algo %q", algo)}
	}
	if err := validateAgainstGraph(&JobRequest{Algo: algo, Params: p}, g); err != nil {
		return nil, err
	}
	values, err := spec.run(g, p, opts)
	if err != nil {
		return nil, err
	}
	return json.Marshal(values)
}
