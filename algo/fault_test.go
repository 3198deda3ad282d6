package algo

import (
	"errors"
	"reflect"
	"testing"

	"flash"
	"flash/graph"
	"flash/internal/comm"
)

// anyResult widens an entry point's typed result for the tables below.
func anyResult[R any](r R, err error) (any, error) { return r, err }

// entryPoints lists every engine-driven algo entry point over g.
func entryPoints(g *graph.Graph) map[string]func(opts ...flash.Option) (any, error) {
	return map[string]func(opts ...flash.Option) (any, error){
		"Assortativity": func(o ...flash.Option) (any, error) { return anyResult(Assortativity(g, o...)) },
		"BC":            func(o ...flash.Option) (any, error) { return anyResult(BC(g, 0, o...)) },
		"BCC":           func(o ...flash.Option) (any, error) { return anyResult(BCC(g, o...)) },
		"BFS":           func(o ...flash.Option) (any, error) { return anyResult(BFS(g, 0, o...)) },
		"Bipartite":     func(o ...flash.Option) (any, error) { return anyResult(Bipartite(g, o...)) },
		"MultiBFS":      func(o ...flash.Option) (any, error) { return anyResult(MultiBFS(g, []graph.VID{0, 7}, o...)) },
		"MSFBoruvka":    func(o ...flash.Option) (any, error) { return anyResult(MSFBoruvka(g, o...)) },
		"CC":            func(o ...flash.Option) (any, error) { return anyResult(CC(g, o...)) },
		"CCOpt":         func(o ...flash.Option) (any, error) { return anyResult(CCOpt(g, o...)) },
		"CL":            func(o ...flash.Option) (any, error) { return anyResult(CL(g, 3, o...)) },
		"Clustering":    func(o ...flash.Option) (any, error) { return anyResult(ClusteringCoefficient(g, o...)) },
		"Diameter":      func(o ...flash.Option) (any, error) { return anyResult(DiameterEstimate(g, o...)) },
		"GC":            func(o ...flash.Option) (any, error) { return anyResult(GC(g, o...)) },
		"KC":            func(o ...flash.Option) (any, error) { return anyResult(KC(g, o...)) },
		"KCOpt":         func(o ...flash.Option) (any, error) { return anyResult(KCOpt(g, o...)) },
		"KTruss":        func(o ...flash.Option) (any, error) { return anyResult(KTruss(g, 3, o...)) },
		"LPA":           func(o ...flash.Option) (any, error) { return anyResult(LPA(g, 5, o...)) },
		"MIS":           func(o ...flash.Option) (any, error) { return anyResult(MIS(g, o...)) },
		"MM":            func(o ...flash.Option) (any, error) { return anyResult(MM(g, o...)) },
		"MMActiveTrace": func(o ...flash.Option) (any, error) { return anyResult(MMActiveTrace(g, o...)) },
		"MMOpt":         func(o ...flash.Option) (any, error) { return anyResult(MMOpt(g, o...)) },
		"PageRank":      func(o ...flash.Option) (any, error) { return anyResult(PageRank(g, 5, 0, o...)) },
		"RC":            func(o ...flash.Option) (any, error) { return anyResult(RC(g, o...)) },
		"SCC":           func(o ...flash.Option) (any, error) { return anyResult(SCC(g, o...)) },
		"SSSP":          func(o ...flash.Option) (any, error) { return anyResult(SSSP(g, 0, o...)) },
		"TC":            func(o ...flash.Option) (any, error) { return anyResult(TC(g, o...)) },
	}
}

// TestEveryAlgorithmReturnsErrorOnUnrecoveredFault: every engine-driven entry
// point runs its driver under Engine.Run (the run helper), so a worker crash
// with no checkpointing to absorb it comes back as an error — never as a
// panic carrying the runtime's internal failure type.
func TestEveryAlgorithmReturnsErrorOnUnrecoveredFault(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenErdosRenyi(60, 240, 3), 1)
	for name, run := range entryPoints(g) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			_, err := run(flash.WithWorkers(2), flash.WithFaultPlan(flash.FaultPlan{
				Crashes: []flash.WorkerCrash{{Worker: 1, Round: 1}},
			}))
			var crash *comm.CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("err=%v, want the unrecovered worker crash", err)
			}
		})
	}
}

// TestRecoveredRunMatchesFaultFree sweeps one crash of worker 1 over every
// round a run can reach, at three checkpoint cadences, through every entry
// point: recovery restores an image and re-runs the driver over the outcome
// log, so the result must equal the fault-free run's exactly — including
// drivers that seed vertices with Set between supersteps (MultiBFS,
// Bipartite), whose writes the restored image must not lose.
func TestRecoveredRunMatchesFaultFree(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenErdosRenyi(60, 90, 3), 1)
	for name, run := range entryPoints(g) {
		t.Run(name, func(t *testing.T) {
			want, err := run(flash.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			for _, every := range []int{1, 2, 3} {
				for round := uint32(1); round <= 40; round++ {
					got, err := run(flash.WithWorkers(2), flash.WithCheckpointEvery(every),
						flash.WithFaultPlan(flash.FaultPlan{
							Crashes: []flash.WorkerCrash{{Worker: 1, Round: round}},
						}))
					if err != nil {
						t.Fatalf("checkpoint every %d, crash in round %d: %v", every, round, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("checkpoint every %d, crash in round %d: result differs from the fault-free run", every, round)
					}
				}
			}
		})
	}
}
