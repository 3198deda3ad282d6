// Benchmarks regenerating every table and figure of the paper at bench
// scale. `go test -bench=. -benchmem` runs them all; cmd/flashbench prints
// the full paper-shaped tables. One top-level benchmark exists per table /
// figure, with sub-benchmarks per (application, system) or parameter point.
package flash_test

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"flash"
	"flash/algo"
	"flash/bench"
	"flash/graph"
	"flash/internal/core"
	"flash/metrics"
)

// benchGraphs caches the dataset analogs across benchmarks.
var (
	benchOnce   sync.Once
	benchGraphs map[string]*graph.Graph
)

func getGraph(b *testing.B, abbr string) *graph.Graph {
	b.Helper()
	benchOnce.Do(func() {
		benchGraphs = map[string]*graph.Graph{}
		for _, abbr := range []string{"OR", "TW", "US", "EU", "UK", "SK"} {
			d, _ := bench.DatasetByAbbr(abbr)
			benchGraphs[abbr] = d.Build(1)
		}
		// A smaller social graph for the slow baseline paths.
		benchGraphs["OR-small"] = graph.GenRMAT(1024, 12288, 101)
	})
	return benchGraphs[abbr]
}

// BenchmarkTableV measures the eight core applications across all five
// systems on the OR analog (cmd/flashbench -exp tableV covers all six
// datasets).
func BenchmarkTableV(b *testing.B) {
	rc := bench.RunConfig{Workers: 4, LPAIter: 10, CLK: 4}
	for _, app := range bench.TableVApps {
		for _, sys := range bench.Systems {
			if !bench.Supports(sys, app) {
				continue
			}
			abbr := "OR"
			if sys != bench.Flash && (app == bench.AppKC || app == bench.AppTC || app == bench.AppBC) {
				abbr = "OR-small" // message-heavy baseline paths
			}
			g := getGraph(b, abbr)
			b.Run(string(app)+"/"+string(sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := bench.RunApp(sys, app, g, rc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableVI measures the six advanced applications (FLASH vs the one
// baseline that expresses each, per the paper).
func BenchmarkTableVI(b *testing.B) {
	rc := bench.RunConfig{Workers: 4, LPAIter: 10, CLK: 4}
	for _, app := range bench.TableVIApps {
		for _, sys := range bench.Systems {
			if !bench.Supports(sys, app) {
				continue
			}
			abbr := "OR"
			if sys != bench.Flash {
				abbr = "OR-small"
			}
			g := getGraph(b, abbr)
			b.Run(string(app)+"/"+string(sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := bench.RunApp(sys, app, g, rc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig1 exercises the heat-map derivation (the data comes from the
// Table V cells; this measures the fastest-vs-FLASH pair on one cell).
func BenchmarkFig1(b *testing.B) {
	g := getGraph(b, "US")
	for _, sys := range []bench.System{bench.Flash, bench.LigraSM} {
		b.Run("BFS/"+string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bench.RunApp(sys, bench.AppBFS, g, bench.RunConfig{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// withMode forces every EdgeMap into one propagation mode: a core.Config
// field with no public option (bench.Fig3 sets it the same way).
func withMode(m flash.Mode) flash.Option { return func(c *core.Config) { c.Mode = m } }

// BenchmarkFig3_BFSModes measures BFS under forced sparse, forced dense and
// the adaptive dual mode on the Fig. 3 datasets.
func BenchmarkFig3_BFSModes(b *testing.B) {
	for _, abbr := range []string{"TW", "US", "UK"} {
		g := getGraph(b, abbr)
		for _, m := range []struct {
			name string
			mode flash.Mode
		}{{"sparse", flash.Push}, {"dense", flash.Pull}, {"dual", flash.Auto}} {
			b.Run(abbr+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := algo.BFS(g, 0, flash.WithWorkers(4), withMode(m.mode)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4a_MM measures MM-basic vs MM-opt on the TW analog (the
// frontier traces behind Fig. 4(a) print via cmd/flashbench -exp fig4a).
func BenchmarkFig4a_MM(b *testing.B) {
	g := getGraph(b, "TW")
	b.Run("MM-basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.MM(g, flash.WithWorkers(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MM-opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.MMOpt(g, flash.WithWorkers(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4b_TCCores measures TC with varying intra-worker threads.
func BenchmarkFig4b_TCCores(b *testing.B) {
	g := getGraph(b, "TW")
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.TC(g, flash.WithWorkers(1), flash.WithThreads(threads)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4cd_Workers measures TC on TW and CL on UK with varying
// worker counts (the inter-node scaling experiment).
func BenchmarkFig4cd_Workers(b *testing.B) {
	gTW := getGraph(b, "TW")
	gUK := getGraph(b, "UK")
	for _, workers := range []int{1, 2, 4} {
		b.Run("TC-TW/"+benchName("w", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.TC(gTW, flash.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("CL-UK/"+benchName("w", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.CL(gUK, 4, flash.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeBreakdown measures CC-opt while collecting the §V-E
// computation/communication/serialization split (reported by flashbench).
func BenchmarkTimeBreakdown(b *testing.B) {
	g := getGraph(b, "TW")
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("w", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col := metrics.New()
				if _, err := algo.CCOpt(g, flash.WithWorkers(workers), flash.WithCollector(col)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation measures the §IV-C optimization toggles on CC.
func BenchmarkAblation(b *testing.B) {
	g := getGraph(b, "OR")
	overlap := flash.Option(func(c *core.Config) { c.BatchBytes = 1 << 16 })
	cases := []struct {
		name string
		opts []flash.Option
	}{
		{"baseline", []flash.Option{overlap}},
		{"broadcast-sync", []flash.Option{overlap, func(c *core.Config) { c.DisableNecessaryMirrors = true }}},
		{"no-overlap", nil},
		{"hash-placement", []flash.Option{overlap, func(c *core.Config) { c.UseHashPlacement = true }}},
	}
	for _, c := range cases {
		opts := append([]flash.Option{flash.WithWorkers(4)}, c.opts...)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.CC(g, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI_LLoC measures the Table I generation itself (parsing and
// counting every algorithm implementation).
func BenchmarkTableI_LLoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.TableI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCCOptRounds measures the Appendix B comparison on the
// large-diameter US analog: CC-basic vs CC-opt end to end.
func BenchmarkCCOptRounds(b *testing.B) {
	g := getGraph(b, "US")
	b.Run("CC-basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.CC(g, flash.WithWorkers(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CC-opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algo.CCOpt(g, flash.WithWorkers(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}
