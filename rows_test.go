package flash_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/metrics"
)

// rowProps records what the per-edge callbacks saw: in pull mode how many
// times M ran on the target and the source and weight of its last run, in
// push mode the reduced count, source-id sum and largest weight of the
// partials. Blocked targets fail C from the start.
type rowProps struct {
	Count   int32
	Last    int32
	Sum     int64
	W       float32
	Blocked int32
}

// pullCap is how many times a pulled target may take M before C turns false.
const pullCap = 2

// rowSet is one edge set under test: how to build it on an engine, its row
// of v in each direction as the CSR gives it (the reference), and the length
// of the stored row a push from v reads.
type rowSet struct {
	name    string
	build   func(e *flash.Engine[rowProps]) flash.EdgeSet[rowProps]
	in      func(v graph.VID) ([]graph.VID, []float32)
	out     func(v graph.VID) ([]graph.VID, []float32)
	pushDeg func(v graph.VID) int
}

// TestBlockRowSourcesKeepEdgeContract runs both EdgeMap kernels over every
// row source a kernel reads — the CSR, a block graph whose cache holds one
// block per worker, and derived sets collected through their iterators
// (JoinEU over either, InEdges) — and over ReverseE of the CSR and of the
// block graph, in both callback forms, on a frontier that is all of V and on
// one that is not. Every result must equal a serial walk of the CSR rows
// with the same per-edge contract: in pull mode C before each edge and a
// stop at the first failure, then the frontier, then F, then M; in push mode
// a target failing C or F is skipped. M must never run on a target whose C
// is false. Every pull also runs without C, taking M on each edge the
// frontier and F let through: over the block graph that pull reads whole
// blocks, which the one-block cache must recycle, where a pull with C reads
// rows. Under -tags flashdebug a row slice read after its block was released
// reads the arena poison.
//
// A block graph's push step reads each non-resident source as a single row,
// so it decodes at most the active sources' rows (a source whose block an
// earlier pull left resident decodes nothing). Each push case also runs on a
// fresh engine over a fresh copy of the file, whose empty caches hold no
// block: it decodes exactly the active rows.
func TestBlockRowSourcesKeepEdgeContract(t *testing.T) {
	const n, workers = 600, 2
	g := graph.WithRandomWeights(graph.GenRandomDirected(n, n*8, 31), 5)
	bg := openXLBlock(t, g, 1<<10)
	image := graph.EncodeBlockFile(g, 1<<10)

	var oneBlock int64
	for _, dir := range []int{graph.BlockIn, graph.BlockOut} {
		for i := 0; i < bg.NumBlocks(dir); i++ {
			dec, err := bg.ReadBlock(dir, i)
			if err != nil {
				t.Fatalf("ReadBlock(%d, %d): %v", dir, i, err)
			}
			oneBlock = max(oneBlock, dec.Bytes())
		}
	}
	if bg.NumBlocks(graph.BlockIn) < 4 {
		t.Fatalf("%d in-blocks: too few for the cache to recycle", bg.NumBlocks(graph.BlockIn))
	}
	width := []flash.Option{flash.WithWorkers(workers), flash.WithThreads(2)}
	blockOpts := func(bg *graph.BlockGraph) []flash.Option {
		return append([]flash.Option{
			flash.WithGraphHandle(flash.NewBlockGraphHandle(bg)),
			flash.WithBlockCacheBytes(workers * oneBlock),
		}, width...)
	}
	engines := map[string][]flash.Option{
		"csr":      width,
		"block":    blockOpts(bg),
		"csr-full": append([]flash.Option{flash.WithFullMirrors()}, width...),
	}
	// coldPush runs one push case on a fresh engine over a fresh copy of the
	// file and returns the edges its step decoded.
	coldPush := func(name string, set rowSet, inU func(graph.VID) bool, weighted bool) uint64 {
		cold, err := graph.OpenBlockReader(bytes.NewReader(image), int64(len(image)))
		if err != nil {
			t.Fatalf("OpenBlockReader: %v", err)
		}
		e, err := flash.NewEngine[rowProps](cold.Skeleton(), blockOpts(cold)...)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", name, err)
		}
		defer e.Close()
		checkPushRows(t, name, e, set, inU, weighted)
		return e.Metrics().BlockDecodedEdges
	}

	joined := func(v graph.VID) bool { return v%3 != 2 }
	inRow := func(v graph.VID) ([]graph.VID, []float32) { return g.InNeighbors(v), g.InWeights(v) }
	outRow := func(v graph.VID) ([]graph.VID, []float32) { return g.OutNeighbors(v), g.OutWeights(v) }
	filtered := func(row func(graph.VID) ([]graph.VID, []float32)) func(graph.VID) ([]graph.VID, []float32) {
		return func(v graph.VID) ([]graph.VID, []float32) {
			adj, ws := row(v)
			var fa []graph.VID
			var fw []float32
			for i, d := range adj {
				if joined(d) {
					fa, fw = append(fa, d), append(fw, ws[i])
				}
			}
			return fa, fw
		}
	}
	unweightedIn := func(v graph.VID) ([]graph.VID, []float32) {
		return g.InNeighbors(v), make([]float32, len(g.InNeighbors(v)))
	}
	sets := []rowSet{
		{"E", func(e *flash.Engine[rowProps]) flash.EdgeSet[rowProps] { return e.E() }, inRow, outRow, g.OutDegree},
		{"Reverse(E)", func(e *flash.Engine[rowProps]) flash.EdgeSet[rowProps] { return flash.Reverse(e.E()) }, outRow, inRow, g.InDegree},
		{"JoinEU(E)", func(e *flash.Engine[rowProps]) flash.EdgeSet[rowProps] {
			var ids []graph.VID
			for v := graph.VID(0); v < n; v++ {
				if joined(v) {
					ids = append(ids, v)
				}
			}
			return e.JoinEU(e.E(), e.FromIDs(ids...))
		}, func(v graph.VID) ([]graph.VID, []float32) {
			if !joined(v) {
				return nil, nil
			}
			return inRow(v)
		}, filtered(outRow), g.OutDegree},
	}
	inEdges := rowSet{"InEdges", func(*flash.Engine[rowProps]) flash.EdgeSet[rowProps] {
		return flash.InEdges(func(_ *flash.Ctx[rowProps], d graph.VID) []graph.VID { return g.InNeighbors(d) })
	}, unweightedIn, nil, nil}

	frontiers := map[string]func(graph.VID) bool{
		"all":     func(graph.VID) bool { return true },
		"partial": func(v graph.VID) bool { return v%4 != 1 },
	}
	for _, eng := range []string{"csr", "block", "csr-full"} {
		eg := g
		if eng == "block" {
			eg = bg.Skeleton()
		}
		e, err := flash.NewEngine[rowProps](eg, engines[eng]...)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", eng, err)
		}
		cases := sets
		if eng == "csr-full" {
			cases = []rowSet{inEdges}
		}
		for _, set := range cases {
			for fname, inU := range frontiers {
				for _, weighted := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/weighted=%v", eng, set.name, fname, weighted)
					checkPullRows(t, name, e, set, inU, weighted, true)
					checkPullRows(t, name, e, set, inU, weighted, false)
					if set.out == nil {
						continue
					}
					before := e.Metrics().BlockDecodedEdges
					checkPushRows(t, name, e, set, inU, weighted)
					if eng != "block" {
						continue
					}
					warm := e.Metrics().BlockDecodedEdges - before
					cold := coldPush(name+"/cold", set, inU, weighted)
					active := uint64(0)
					for v := graph.VID(0); v < n; v++ {
						if inU(v) {
							active += uint64(set.pushDeg(v))
						}
					}
					if warm > active || cold != active {
						t.Errorf("%s push: decoded %d edges after pulls, %d through empty caches; active rows hold %d",
							name, warm, cold, active)
					}
				}
			}
		}
		if eng == "block" && e.Metrics().BlockEvictions == 0 {
			t.Errorf("a one-block cache recorded no evictions: no block was recycled under a row")
		}
		e.Close()
	}
}

// resetRows seeds every vertex: zero counts, every seventh target blocked.
func resetRows(e *flash.Engine[rowProps]) {
	e.VertexMap(e.All(), nil, func(v flash.Vertex[rowProps]) rowProps {
		return rowProps{Blocked: int32(v.ID % 7 / 6), Last: -1}
	})
}

func rowFrontier(e *flash.Engine[rowProps], inU func(graph.VID) bool) *flash.VertexSubset {
	n := e.Graph().NumVertices()
	var ids []graph.VID
	for v := graph.VID(0); int(v) < n; v++ {
		if inU(v) {
			ids = append(ids, v)
		}
	}
	if len(ids) == n {
		return e.All()
	}
	return e.FromIDs(ids...)
}

func rowGuard(s, d graph.VID) bool { return (s+d)%3 != 0 }

// checkPullRows runs one forced pull step, with C or without, and compares
// every vertex's value and the output set against the serial walk of set.in.
func checkPullRows(t *testing.T, name string, e *flash.Engine[rowProps], set rowSet, inU func(graph.VID) bool, weighted, withC bool) {
	t.Helper()
	resetRows(e)
	var late atomic.Int64
	C := func(d flash.Vertex[rowProps]) bool { return d.Val.Blocked == 0 && d.Val.Count < pullCap }
	if !withC {
		name += "/no-C"
		C = nil
	}
	M := func(s, d flash.Vertex[rowProps], w float32) rowProps {
		if C != nil && !C(d) {
			late.Add(1)
		}
		nv := *d.Val
		nv.Count++
		nv.Last, nv.W = int32(s.ID), w
		return nv
	}
	F := func(s, d flash.Vertex[rowProps], _ float32) bool { return rowGuard(s.ID, d.ID) }
	U, H := rowFrontier(e, inU), set.build(e)
	var out *flash.VertexSubset
	if weighted {
		out = e.EdgeMapDenseW(U, H, F, M, C)
	} else {
		out = e.EdgeMapDense(U, H,
			func(s, d flash.Vertex[rowProps]) bool { return F(s, d, 0) },
			func(s, d flash.Vertex[rowProps]) rowProps { return M(s, d, 0) }, C)
	}
	if late.Load() != 0 {
		t.Errorf("%s pull: M ran %d times on a target whose C was false", name, late.Load())
	}

	n := e.Graph().NumVertices()
	want := make([]rowProps, n)
	var wantOut []graph.VID
	for d := graph.VID(0); int(d) < n; d++ {
		v := rowProps{Blocked: int32(d % 7 / 6), Last: -1}
		adj, ws := set.in(d)
		for i, s := range adj {
			if withC && (v.Blocked != 0 || v.Count >= pullCap) {
				break
			}
			if !inU(s) || !rowGuard(s, d) {
				continue
			}
			v.Count++
			v.Last = int32(s)
			if weighted {
				v.W = ws[i]
			}
		}
		want[d] = v
		if v.Count > 0 {
			wantOut = append(wantOut, d)
		}
	}
	compareRows(t, name+" pull", e, out, want, wantOut)
}

// checkPushRows runs one forced push step and compares every vertex's value
// and the output set against the serial walk of set.out.
func checkPushRows(t *testing.T, name string, e *flash.Engine[rowProps], set rowSet, inU func(graph.VID) bool, weighted bool) {
	t.Helper()
	resetRows(e)
	var late atomic.Int64
	C := func(d flash.Vertex[rowProps]) bool { return d.Val.Blocked == 0 }
	M := func(s, d flash.Vertex[rowProps], w float32) rowProps {
		if d.Val.Blocked != 0 {
			late.Add(1)
		}
		return rowProps{Count: 1, Sum: int64(s.ID), W: w}
	}
	R := func(t, cur rowProps) rowProps {
		cur.Count += t.Count
		cur.Sum += t.Sum
		cur.W = max(cur.W, t.W)
		return cur
	}
	F := func(s, d flash.Vertex[rowProps], _ float32) bool { return rowGuard(s.ID, d.ID) }
	U, H := rowFrontier(e, inU), set.build(e)
	var out *flash.VertexSubset
	if weighted {
		out = e.EdgeMapSparseW(U, H, F, M, C, R)
	} else {
		out = e.EdgeMapSparse(U, H,
			func(s, d flash.Vertex[rowProps]) bool { return F(s, d, 0) },
			func(s, d flash.Vertex[rowProps]) rowProps { return M(s, d, 0) }, C, R)
	}
	if late.Load() != 0 {
		t.Errorf("%s push: M ran %d times on a target whose C was false", name, late.Load())
	}

	n := e.Graph().NumVertices()
	want := make([]rowProps, n)
	for d := range want {
		want[d] = rowProps{Blocked: int32(d % 7 / 6), Last: -1}
	}
	for s := graph.VID(0); int(s) < n; s++ {
		if !inU(s) {
			continue
		}
		adj, ws := set.out(s)
		for i, d := range adj {
			if want[d].Blocked != 0 || !rowGuard(s, d) {
				continue
			}
			want[d].Count++
			want[d].Sum += int64(s)
			if weighted {
				want[d].W = max(want[d].W, ws[i])
			}
		}
	}
	var wantOut []graph.VID
	for d := range want {
		if want[d].Count > 0 {
			wantOut = append(wantOut, graph.VID(d))
		}
	}
	compareRows(t, name+" push", e, out, want, wantOut)
}

func compareRows(t *testing.T, name string, e *flash.Engine[rowProps], out *flash.VertexSubset, want []rowProps, wantOut []graph.VID) {
	t.Helper()
	got := make([]rowProps, len(want))
	e.Gather(func(v graph.VID, val *rowProps) { got[v] = *val })
	bad := 0
	for v := range want {
		if got[v] != want[v] {
			if bad < 3 {
				t.Errorf("%s: vertex %d = %+v, want %+v", name, v, got[v], want[v])
			}
			bad++
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d vertices differ in all", name, bad)
	}
	if ids := e.IDs(out); !reflect.DeepEqual(ids, wantOut) && !(len(ids) == 0 && len(wantOut) == 0) {
		t.Errorf("%s: output has %d targets, want %d", name, len(ids), len(wantOut))
	}
}

// TestBlockSharedGraphReadsRowsConcurrently runs two engines over one
// shared block graph at once — a BFS and a weighted SSSP, each at w2 t2 with
// the cache at one block per worker — so both read rows and whole blocks from
// the one file and leave arenas to the graph's one spare while the other
// runs. Both results must equal the CSR runs, and be -race clean.
func TestBlockSharedGraphReadsRowsConcurrently(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenRMAT(2048, 2048*10, 13), 7)
	bg := openXLBlock(t, g, 1<<10)
	var oneBlock int64
	for i := 0; i < bg.NumBlocks(graph.BlockOut); i++ {
		dec, err := bg.ReadBlock(graph.BlockOut, i)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		oneBlock = max(oneBlock, dec.Bytes())
	}
	width := []flash.Option{flash.WithWorkers(2), flash.WithThreads(2)}
	handle := flash.NewBlockGraphHandle(bg)
	block := append([]flash.Option{flash.WithGraphHandle(handle), flash.WithBlockCacheBytes(2 * oneBlock)}, width...)

	wantBFS, err := algo.BFS(g, 5, width...)
	if err != nil {
		t.Fatal(err)
	}
	wantSSSP, err := algo.SSSP(g, 9, width...)
	if err != nil {
		t.Fatal(err)
	}
	var gotBFS []int32
	var gotSSSP []float32
	var bfsErr, ssspErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotBFS, bfsErr = algo.BFS(bg.Skeleton(), 5, block...) }()
	go func() { defer wg.Done(); gotSSSP, ssspErr = algo.SSSP(bg.Skeleton(), 9, block...) }()
	wg.Wait()
	if bfsErr != nil || ssspErr != nil {
		t.Fatalf("block runs: BFS %v, SSSP %v", bfsErr, ssspErr)
	}
	if !reflect.DeepEqual(gotBFS, wantBFS) {
		t.Errorf("BFS over the shared block graph differs from the CSR")
	}
	for v := range wantSSSP {
		if math.Float32bits(gotSSSP[v]) != math.Float32bits(wantSSSP[v]) {
			t.Fatalf("SSSP dist[%d] = %v over the shared block graph, %v over the CSR", v, gotSSSP[v], wantSSSP[v])
		}
	}
}

// TestBlockDensePullReadsPassingRows covers pull steps over a block graph,
// which read rows when they have a C and whole blocks when they have none.
//
// Mechanism, at w1/w2 × t1/t2 on a fresh engine whose caches are big enough
// for every block: a pull over all of V with C decodes exactly the in-rows of
// the targets that pass C and counts no hit; it admits nothing, so a second
// such pull decodes them all again. A pull without C decodes every in-edge,
// in whole blocks that stay resident, so a second one decodes nothing. Every
// pull is a dense step and files its misses' bytes as dense.
//
// Results: BFS (whose pulls have a C), CC, SSSP and PageRank (whose pulls
// have none) over the block graph, with the cache at one block per worker,
// are byte-identical to the same runs over the CSR.
func TestBlockDensePullReadsPassingRows(t *testing.T) {
	g := graph.WithRandomWeights(graph.GenRandomDirected(1500, 12000, 43), 7)
	bg := openXLBlock(t, g, 1<<10)
	var oneBlock int64
	for _, dir := range []int{graph.BlockIn, graph.BlockOut} {
		for i := 0; i < bg.NumBlocks(dir); i++ {
			dec, err := bg.ReadBlock(dir, i)
			if err != nil {
				t.Fatalf("ReadBlock(%d, %d): %v", dir, i, err)
			}
			oneBlock = max(oneBlock, dec.Bytes())
		}
	}
	passes := func(d flash.Vertex[rowProps]) bool { return d.ID%3 == 0 && d.Val.Count == 0 }
	passRows := uint64(0)
	for v := graph.VID(0); int(v) < g.NumVertices(); v += 3 {
		passRows += uint64(g.InDegree(v))
	}
	M := func(s, d flash.Vertex[rowProps]) rowProps { return rowProps{Count: d.Val.Count + 1} }

	for _, workers := range []int{1, 2} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("w%dt%d", workers, threads), func(t *testing.T) {
				width := []flash.Option{flash.WithWorkers(workers), flash.WithThreads(threads)}
				handle := flash.WithGraphHandle(flash.NewBlockGraphHandle(bg))

				// pulls runs two pulls over all of V on a fresh engine and
				// returns the engine's counters after each.
				pulls := func(C func(d flash.Vertex[rowProps]) bool) [2]metrics.Counters {
					e, err := flash.NewEngine[rowProps](bg.Skeleton(),
						append([]flash.Option{handle, flash.WithBlockCacheBytes(1 << 30)}, width...)...)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					var got [2]metrics.Counters
					for i := range got {
						e.VertexMap(e.All(), nil, func(v flash.Vertex[rowProps]) rowProps { return rowProps{} })
						e.EdgeMapDense(e.All(), e.E(), nil, M, C)
						got[i] = e.Metrics().Counters
					}
					return got
				}
				rows := pulls(passes)
				if c := rows[1]; c.BlockDecodedEdges != 2*passRows || c.BlockHits != 0 {
					t.Errorf("two pulls with C decoded %d edges and counted %d hits; the passing targets' in-rows hold %d",
						c.BlockDecodedEdges, c.BlockHits, passRows)
				}
				if c := rows[1]; c.BlockStepsDense != 2 || c.BlockBytesDense == 0 || c.BlockBytesSparse != 0 {
					t.Errorf("two pulls with C counted %d dense steps, %d dense and %d sparse bytes",
						c.BlockStepsDense, c.BlockBytesDense, c.BlockBytesSparse)
				}
				whole := pulls(nil)
				if c := whole[0]; c.BlockDecodedEdges < uint64(g.NumEdges()) || c.BlockStepsDense != 1 ||
					c.BlockBytesDense == 0 || c.BlockBytesSparse != 0 {
					t.Errorf("a pull without C decoded %d edges of %d, counted %d dense steps, %d dense and %d sparse bytes",
						c.BlockDecodedEdges, g.NumEdges(), c.BlockStepsDense, c.BlockBytesDense, c.BlockBytesSparse)
				}
				if first, c := whole[0], whole[1]; c.BlockDecodedEdges != first.BlockDecodedEdges || c.BlockHits == first.BlockHits {
					t.Errorf("a second pull without C decoded %d edges and counted %d hits: its blocks were not resident",
						c.BlockDecodedEdges-first.BlockDecodedEdges, c.BlockHits-first.BlockHits)
				}

				block := append([]flash.Option{handle, flash.WithBlockCacheBytes(int64(workers) * oneBlock)}, width...)
				sk := bg.Skeleton()
				for _, root := range []graph.VID{0, 700} {
					want, err := algo.BFS(g, root, width...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := algo.BFS(sk, root, block...)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("BFS from %d over blocks differs from the CSR", root)
					}
				}
				wantCC, err := algo.CC(g, width...)
				if err != nil {
					t.Fatal(err)
				}
				gotCC, err := algo.CC(sk, block...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotCC, wantCC) {
					t.Errorf("CC over blocks differs from the CSR")
				}
				wantSSSP, err := algo.SSSP(g, 9, width...)
				if err != nil {
					t.Fatal(err)
				}
				gotSSSP, err := algo.SSSP(sk, 9, block...)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if math.Float32bits(gotSSSP[v]) != math.Float32bits(wantSSSP[v]) {
						t.Fatalf("SSSP dist[%d] = %v over blocks, %v over the CSR", v, gotSSSP[v], wantSSSP[v])
					}
				}
				wantPR, err := algo.PageRank(g, 5, 0, width...)
				if err != nil {
					t.Fatal(err)
				}
				gotPR, err := algo.PageRank(sk, 5, 0, block...)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantPR {
					if math.Float64bits(gotPR[v]) != math.Float64bits(wantPR[v]) {
						t.Fatalf("PageRank[%d] = %v over blocks, %v over the CSR", v, gotPR[v], wantPR[v])
					}
				}
			})
		}
	}
}
