package serve

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flash/algo"
	"flash/graph"
)

// TestCatalogAccounting pins the memory model of the engine split at the
// catalog level: the CSR and partition bytes of a graph are paid once when
// it is loaded/first partitioned, and do not grow as more jobs run over it —
// each job pays only its own StateBytes.
func TestCatalogAccounting(t *testing.T) {
	spec := GraphSpec{Name: "g", Gen: "er", N: 256, M: 1024, Seed: 4}
	srv, err := NewServer(ServerConfig{
		Scheduler: SchedulerConfig{MaxConcurrent: 4, Workers: 3},
		Preload:   []GraphSpec{spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cat := srv.Catalog()

	// Graph bytes equal the standalone CSR footprint; nothing partitioned yet.
	g, err := BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	gb, sb := cat.Bytes()
	if gb != g.MemBytes() {
		t.Fatalf("catalog graph bytes %d != CSR bytes %d", gb, g.MemBytes())
	}
	if sb != 0 {
		t.Fatalf("catalog shared bytes %d before any job, want 0", sb)
	}

	runJobs := func(n int) []uint64 {
		t.Helper()
		state := make([]uint64, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				job, err := srv.SubmitRequest(&JobRequest{Graph: "g", Algo: "cc"})
				if err != nil {
					t.Error(err)
					return
				}
				<-job.Done()
				res, err := job.Result()
				if err != nil {
					t.Error(err)
					return
				}
				state[i] = res.StateBytes
			}(i)
		}
		wg.Wait()
		return state
	}

	// First job populates the partition cache: shared bytes become non-zero.
	if state := runJobs(1); state[0] == 0 {
		t.Fatal("job reports zero StateBytes")
	}
	_, sbAfterOne := cat.Bytes()
	if sbAfterOne == 0 {
		t.Fatal("shared partition bytes still zero after a job")
	}

	// More concurrent jobs at the same configuration: every one pays its own
	// StateBytes, but the catalog-side immutable footprint must not move.
	for _, s := range runJobs(4) {
		if s == 0 {
			t.Fatal("concurrent job reports zero StateBytes")
		}
	}
	gbAfter, sbAfter := cat.Bytes()
	if gbAfter != gb {
		t.Fatalf("graph bytes grew with jobs: %d -> %d", gb, gbAfter)
	}
	if sbAfter != sbAfterOne {
		t.Fatalf("shared partition bytes grew with jobs: %d -> %d", sbAfterOne, sbAfter)
	}
	h, err := cat.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Partitions(); n != 1 {
		t.Fatalf("%d partitions cached for one configuration, want 1", n)
	}

	// Eviction removes the graph's footprint from the catalog totals.
	if err := cat.Evict("g"); err != nil {
		t.Fatal(err)
	}
	gbFinal, sbFinal := cat.Bytes()
	if gbFinal != 0 || sbFinal != 0 {
		t.Fatalf("bytes after eviction = %d/%d, want 0/0", gbFinal, sbFinal)
	}
}

func TestCatalogLifecycle(t *testing.T) {
	cat := NewCatalog()
	if _, err := cat.Load(GraphSpec{Name: "a", Gen: "path", N: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Load(GraphSpec{Name: "b", Gen: "tree", N: 31, Seed: 2, Weighted: true}); err != nil {
		t.Fatal(err)
	}

	// Duplicate name is a typed conflict.
	_, err := cat.Load(GraphSpec{Name: "a", Gen: "path", N: 8})
	var dup *DuplicateGraphError
	if !errors.As(err, &dup) || dup.Graph != "a" {
		t.Fatalf("duplicate load: %v", err)
	}

	infos := cat.List()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("List() = %+v", infos)
	}
	if !infos[1].Weighted {
		t.Fatal("weighted spec did not produce a weighted graph")
	}
	if infos[0].GraphBytes == 0 {
		t.Fatal("listing reports zero GraphBytes")
	}

	if err := cat.Evict("a"); err != nil {
		t.Fatal(err)
	}
	var ug *UnknownGraphError
	if err := cat.Evict("a"); !errors.As(err, &ug) || ug.Graph != "a" {
		t.Fatalf("second evict: %v", err)
	}
	if _, err := cat.Get("a"); !errors.As(err, &ug) {
		t.Fatalf("Get after evict: %v", err)
	}
}

func TestBuildGraphGenerators(t *testing.T) {
	for _, gen := range []string{"rmat", "grid", "web", "er", "path", "cycle", "star", "tree", "randdir"} {
		g, err := BuildGraph(GraphSpec{Gen: gen, N: 100, M: 300, Rows: 10, Cols: 10, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s: empty graph", gen)
		}
	}
}

func TestBuildGraphFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(GraphSpec{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("n=%d", g.NumVertices())
	}
}

func TestBuildGraphRejections(t *testing.T) {
	cases := []struct {
		name  string
		spec  GraphSpec
		field string
	}{
		{"unknown generator", GraphSpec{Name: "x", Gen: "nope", N: 10}, "gen"},
		{"no gen or path", GraphSpec{Name: "x", N: 10}, "gen"},
		{"bad n", GraphSpec{Name: "x", Gen: "rmat", N: 0}, "n"},
		{"grid without dims", GraphSpec{Name: "x", Gen: "grid", N: 10}, "rows"},
		{"missing file", GraphSpec{Name: "x", Path: "/nonexistent/g.txt"}, "path"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildGraph(tc.spec)
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want RequestError", err)
			}
			if re.Field != tc.field {
				t.Fatalf("RequestError.Field = %q, want %q", re.Field, tc.field)
			}
		})
	}
	// Load propagates spec validation, including the missing name.
	cat := NewCatalog()
	_, err := cat.Load(GraphSpec{Gen: "path", N: 4})
	var re *RequestError
	if !errors.As(err, &re) || re.Field != "name" {
		t.Fatalf("nameless load: %v", err)
	}
}

// TestCatalogBlockFile loads a FLASHBLK file through the catalog's path
// sniffing and checks that (a) the listing marks the graph out-of-core with
// only the skeleton resident, (b) a served job over it returns the same
// values as the in-memory graph, and (c) weight demands the file cannot meet
// are rejected at load time.
func TestCatalogBlockFile(t *testing.T) {
	g := graph.GenRMAT(512, 512*8, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "rmat.blk")
	if err := graph.WriteBlockFile(g, path, 8<<10); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerConfig{
		Scheduler: SchedulerConfig{MaxConcurrent: 2, Workers: 2},
		Preload:   []GraphSpec{{Name: "blk", Path: path}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	infos := srv.Catalog().List()
	if len(infos) != 1 || !infos[0].Ooc {
		t.Fatalf("listing does not mark the block graph ooc: %+v", infos)
	}
	if infos[0].Edges != g.NumEdges() || infos[0].Vertices != g.NumVertices() {
		t.Fatalf("listing shape wrong: %+v", infos[0])
	}
	// Skeleton-only residency: far below the full CSR footprint.
	if infos[0].GraphBytes >= g.MemBytes() {
		t.Fatalf("ooc graph bytes %d not below CSR bytes %d", infos[0].GraphBytes, g.MemBytes())
	}

	job, err := srv.SubmitRequest(&JobRequest{Graph: "blk", Algo: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil {
		t.Fatalf("block job failed: %v", err)
	}
	want, err := algo.CC(g)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Values.([]uint32)
	if !ok {
		t.Fatalf("cc values have type %T", res.Values)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cc[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// An unweighted block file cannot serve a weighted spec.
	if _, err := srv.Catalog().Load(GraphSpec{Name: "wblk", Path: path, Weighted: true}); err == nil {
		t.Fatalf("weighted spec over unweighted block file accepted")
	}
}
