package algo

import (
	"errors"
	"testing"

	"flash"
	"flash/graph"
	"flash/internal/comm"
)

// TestEveryAlgorithmReturnsErrorOnUnrecoveredFault: every engine-driven entry
// point runs its driver under Engine.Run (the run helper), so a worker crash
// with no checkpointing to absorb it comes back as an error — never as a
// panic carrying the runtime's internal failure type.
func TestEveryAlgorithmReturnsErrorOnUnrecoveredFault(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenErdosRenyi(60, 240, 3), 1)
	discard := func(_ any, err error) error { return err }
	algos := map[string]func(opts ...flash.Option) error{
		"Assortativity": func(o ...flash.Option) error { return discard(Assortativity(g, o...)) },
		"BC":            func(o ...flash.Option) error { return discard(BC(g, 0, o...)) },
		"BCC":           func(o ...flash.Option) error { return discard(BCC(g, o...)) },
		"BFS":           func(o ...flash.Option) error { return discard(BFS(g, 0, o...)) },
		"Bipartite":     func(o ...flash.Option) error { return discard(Bipartite(g, o...)) },
		"MultiBFS":      func(o ...flash.Option) error { return discard(MultiBFS(g, []graph.VID{0, 7}, o...)) },
		"MSFBoruvka":    func(o ...flash.Option) error { return discard(MSFBoruvka(g, o...)) },
		"CC":            func(o ...flash.Option) error { return discard(CC(g, o...)) },
		"CCOpt":         func(o ...flash.Option) error { return discard(CCOpt(g, o...)) },
		"CL":            func(o ...flash.Option) error { return discard(CL(g, 3, o...)) },
		"Clustering":    func(o ...flash.Option) error { return discard(ClusteringCoefficient(g, o...)) },
		"Diameter":      func(o ...flash.Option) error { return discard(DiameterEstimate(g, o...)) },
		"GC":            func(o ...flash.Option) error { return discard(GC(g, o...)) },
		"KC":            func(o ...flash.Option) error { return discard(KC(g, o...)) },
		"KCOpt":         func(o ...flash.Option) error { return discard(KCOpt(g, o...)) },
		"KTruss":        func(o ...flash.Option) error { return discard(KTruss(g, 3, o...)) },
		"LPA":           func(o ...flash.Option) error { return discard(LPA(g, 5, o...)) },
		"MIS":           func(o ...flash.Option) error { return discard(MIS(g, o...)) },
		"MM":            func(o ...flash.Option) error { return discard(MM(g, o...)) },
		"MMActiveTrace": func(o ...flash.Option) error { return discard(MMActiveTrace(g, o...)) },
		"MMOpt":         func(o ...flash.Option) error { return discard(MMOpt(g, o...)) },
		"PageRank":      func(o ...flash.Option) error { return discard(PageRank(g, 5, 0, o...)) },
		"RC":            func(o ...flash.Option) error { return discard(RC(g, o...)) },
		"SCC":           func(o ...flash.Option) error { return discard(SCC(g, o...)) },
		"SSSP":          func(o ...flash.Option) error { return discard(SSSP(g, 0, o...)) },
		"TC":            func(o ...flash.Option) error { return discard(TC(g, o...)) },
	}
	for name, run := range algos {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			err := run(flash.WithWorkers(2), flash.WithFaultPlan(flash.FaultPlan{
				Crashes: []flash.WorkerCrash{{Worker: 1, Round: 1}},
			}))
			var crash *comm.CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("err=%v, want the unrecovered worker crash", err)
			}
		})
	}
}
