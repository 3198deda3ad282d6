package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flash/graph"
	"flash/internal/comm"
)

// clusterFleet runs one engine per worker over a real loopback cluster mesh,
// each in its own goroutine (standing in for a separate OS process), and
// returns each process's driver result. cfg is cloned per process with
// Transport and Cluster filled in.
func clusterFleet(t *testing.T, g *graph.Graph, m int, epoch uint32, cfg Config,
	stores []*WorkerStore, resumeSeq uint64, driver func(e *Engine[bfsProps]) []int32) [][]int32 {
	t.Helper()
	eps := make([]*comm.TCP, m)
	addrs := make([]string, m)
	for i := 0; i < m; i++ {
		ep, err := comm.ListenTCPCluster(comm.ClusterConfig{Workers: m, Self: i, Listen: "127.0.0.1:0", Epoch: epoch})
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	results := make([][]int32, m)
	errs := make([]error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eps[i].ConnectPeers(addrs, 10*time.Second); err != nil {
				errs[i] = err
				return
			}
			pcfg := cfg
			pcfg.Workers = m
			pcfg.Transport = eps[i]
			pcfg.Collector = nil
			spec := &ClusterSpec{Resident: i, ResumeSeq: resumeSeq}
			if stores != nil {
				spec.Store = stores[i]
			}
			pcfg.Cluster = spec
			e, err := NewEngine[bfsProps](g, pcfg)
			if err != nil {
				eps[i].Close()
				errs[i] = err
				return
			}
			defer e.Close()
			_, err = e.Run(func() error {
				results[i] = driver(e)
				return nil
			})
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
	return results
}

// TestClusterBFSMatchesInProcess runs BFS as a three-process SPMD fleet over
// a real TCP mesh and checks every process extracts the identical, correct
// distance array (the replicated-driver + allgather invariants).
func TestClusterBFSMatchesInProcess(t *testing.T) {
	g := graph.GenErdosRenyi(150, 700, 3)
	want := seqBFS(g, 0)
	for _, mode := range []Mode{Push, Pull, Auto} {
		results := clusterFleet(t, g, 3, 1, Config{}, nil, 0, func(e *Engine[bfsProps]) []int32 {
			return runBFS(e, 0, mode)
		})
		for p, got := range results {
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("mode=%v process %d: dist[%d]=%d want %d", mode, p, v, got[v], want[v])
				}
			}
		}
	}
}

// TestClusterFoldIsReplicated checks a driver-side Fold mid-run (the pattern
// PageRank's convergence test uses) computes the identical value in every
// process: the allgather applies values in ascending vertex order regardless
// of placement.
func TestClusterFoldIsReplicated(t *testing.T) {
	g := graph.GenRMAT(128, 512, 4)
	results := clusterFleet(t, g, 2, 1, Config{UseHashPlacement: true}, nil, 0, func(e *Engine[bfsProps]) []int32 {
		dists := runBFS(e, 0, Auto)
		sum := Fold(e, int32(0), func(acc int32, _ graph.VID, val *bfsProps) int32 {
			if val.Dis < inf {
				acc += val.Dis
			}
			return acc
		})
		return append(dists, sum)
	})
	if got0, got1 := results[0], results[1]; fmt.Sprint(got0) != fmt.Sprint(got1) {
		t.Fatalf("processes diverged:\n p0=%v\n p1=%v", got0, got1)
	}
	want := seqBFS(g, 0)
	for v := range want {
		if results[0][v] != want[v] {
			t.Fatalf("dist[%d]=%d want %d", v, results[0][v], want[v])
		}
	}
}

// TestClusterCheckpointResume exercises the durable cycle: a fleet runs BFS
// with checkpointing, is torn down, and a second fleet (fresh transports,
// bumped epoch — as after a coordinator restart-all) resumes from an earlier
// checkpoint, fast-forwards through the log, live-executes the tail, and
// produces the identical result.
func TestClusterCheckpointResume(t *testing.T) {
	g := graph.GenErdosRenyi(120, 600, 5)
	want := seqBFS(g, 0)
	dir := t.TempDir()
	const m = 2
	openStores := func() []*WorkerStore { return openWorkerStores(t, dir, m) }
	cfg := Config{CheckpointEvery: 2}

	stores := openStores()
	first := clusterFleet(t, g, m, 1, cfg, stores, 0, func(e *Engine[bfsProps]) []int32 {
		return runBFS(e, 0, Auto)
	})
	for v := range want {
		if first[0][v] != want[v] {
			t.Fatalf("first run: dist[%d]=%d want %d", v, first[0][v], want[v])
		}
	}
	latest := stores[0].LatestSeq()
	for i, s := range stores {
		if ls := s.LatestSeq(); ls != latest {
			t.Fatalf("worker %d latest seq %d, worker 0 has %d (cadence must be aligned)", i, ls, latest)
		}
	}
	if latest < 2 {
		t.Fatalf("latest checkpoint seq %d, want >= 2 (initial + at least one periodic)", latest)
	}

	// Resume from the previous image: part replay, part live execution.
	stores2 := openStores()
	second := clusterFleet(t, g, m, 2, cfg, stores2, latest-1, func(e *Engine[bfsProps]) []int32 {
		return runBFS(e, 0, Auto)
	})
	for p := range second {
		for v := range want {
			if second[p][v] != first[p][v] {
				t.Fatalf("resumed run process %d: dist[%d]=%d want %d", p, v, second[p][v], first[p][v])
			}
		}
	}
}

// openWorkerStores opens the durable stores of an m-process fleet under dir.
func openWorkerStores(t *testing.T, dir string, m int) []*WorkerStore {
	t.Helper()
	stores := make([]*WorkerStore, m)
	for i := range stores {
		s, err := OpenWorkerStore(dir, i)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
		t.Cleanup(func() { s.Close() })
	}
	return stores
}

// TestClusterResumeKeepsDriverSet resumes a fleet from an image taken after
// a driver-side Set and a superstep that builds on it: fast-forward must not
// re-apply the Set on top of the restored image, which already holds its
// effect, so every process returns the first run's dist[0] = 5.
func TestClusterResumeKeepsDriverSet(t *testing.T) {
	g := graph.GenErdosRenyi(40, 120, 5)
	dir := t.TempDir()
	const m = 2
	cfg := Config{CheckpointEvery: 1}
	driver := func(e *Engine[bfsProps]) []int32 {
		e.VertexMap(e.All(), nil, func(Vtx[bfsProps]) bfsProps { return bfsProps{Dis: inf} }, StepOpts{})
		e.Set(0, bfsProps{Dis: 0})
		e.VertexMap(e.FromIDs(0), nil, func(v Vtx[bfsProps]) bfsProps { return bfsProps{Dis: v.Val.Dis + 5} }, StepOpts{})
		for i := 0; i < 4; i++ {
			e.VertexMap(e.All(), nil, func(v Vtx[bfsProps]) bfsProps { return *v.Val }, StepOpts{})
		}
		out := make([]int32, g.NumVertices())
		e.Gather(func(v graph.VID, val *bfsProps) { out[v] = val.Dis })
		return out
	}
	stores := openWorkerStores(t, dir, m)
	first := clusterFleet(t, g, m, 1, cfg, stores, 0, driver)
	if first[0][0] != 5 {
		t.Fatalf("first run: dist[0]=%d want 5", first[0][0])
	}
	second := clusterFleet(t, g, m, 2, cfg, openWorkerStores(t, dir, m), stores[0].LatestSeq()-1, driver)
	for p := range second {
		if !slices.Equal(second[p], first[p]) {
			t.Fatalf("resumed process %d: dist[0]=%d, result differs from the first run (dist[0]=%d)", p, second[p][0], first[p][0])
		}
	}
}

// TestClusterConfigRejections pins the validation surface: cluster mode
// refuses the features that assume all worker state is local.
func TestClusterConfigRejections(t *testing.T) {
	g := graph.GenPath(8)
	mem := comm.NewMem(2)
	defer mem.Close()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no transport", Config{Workers: 2, Cluster: &ClusterSpec{Resident: 0}}},
		{"resident range", Config{Workers: 2, Transport: mem, Cluster: &ClusterSpec{Resident: 2}}},
		{"resume without store", Config{Workers: 2, Transport: mem, Cluster: &ClusterSpec{Resident: 0, ResumeSeq: 3}}},
		{"fault plan", Config{Workers: 2, Transport: mem, FaultPlan: &comm.FaultPlan{}, Cluster: &ClusterSpec{Resident: 0}}},
		{"resize policy", Config{Workers: 2, Transport: mem, ResizePolicy: func(StepInfo) int { return 2 }, Cluster: &ClusterSpec{Resident: 0}}},
	}
	for _, tc := range cases {
		if _, err := NewEngine[bfsProps](g, tc.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", tc.name)
		}
	}
}

// TestWorkerStoreLog pins the log format: append, replay-with-truncate, and
// the corrupt-tail path.
func TestWorkerStoreLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWorkerStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.appendRecord(logKindStep, []byte{byte(i), 0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	if s.records() != 5 {
		t.Fatalf("records() = %d, want 5", s.records())
	}
	// Reopen and replay a prefix: the tail must be truncated.
	s.Close()
	s, err = OpenWorkerStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.replay(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].payload[0] != 2 {
		t.Fatalf("replay(3) = %v", recs)
	}
	if err := s.appendRecord(logKindGather, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = OpenWorkerStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err = s.replay(4)
	if err != nil {
		t.Fatal(err)
	}
	if recs[3].kind != logKindGather || string(recs[3].payload) != "tail" {
		t.Fatalf("replayed tail record = %+v", recs[3])
	}
	// Asking for more records than the log holds is an error, not a hang —
	// and not a makeslice panic when the count (taken from a checkpoint
	// image's metadata) is absurd.
	for _, n := range []uint64{9, 1 << 62} {
		s.Close()
		s, err = OpenWorkerStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.replay(n); !errors.Is(err, io.EOF) {
			t.Fatalf("replay(%d) past the end of the log: err=%v, want io.EOF", n, err)
		}
	}
}

// TestDecodeStepRecordRejectsHostileLengths feeds decodeStepRecord payloads
// whose per-worker length varints lie. A logged record is CRC-valid bytes
// from disk, so every lie must come back as an error; 1<<63 in particular
// used to wrap int negative, pass the bounds check and panic in the slice.
func TestDecodeStepRecordRejectsHostileLengths(t *testing.T) {
	e := mustEngine(t, graph.GenPath(40), Config{Workers: 2})
	good := e.encodeStepRecord(e.All())
	if err := e.decodeStepRecord(good, e.newSubset()); err != nil {
		t.Fatalf("round trip of a valid record: %v", err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"length 1<<63", binary.AppendUvarint(nil, 1<<63)},
		{"length MaxUint64", binary.AppendUvarint(nil, math.MaxUint64)},
		{"length one past the payload", append(binary.AppendUvarint(nil, 3), 1, 2)},
		{"unterminated length varint", []byte{0x80}},
		{"second worker missing", binary.AppendUvarint(nil, 0)},
		{"trailing bytes", append(slices.Clone(good), 0)},
	} {
		if err := e.decodeStepRecord(tc.payload, e.newSubset()); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestWorkerStoreRejectsOversizeRecord: replay refuses any record above
// comm.MaxFrameSize, so append must refuse it too — before writing a byte. A
// record that is logged but can never be read back would let the checkpoint
// that references it succeed and every later resume fail.
func TestWorkerStoreRejectsOversizeRecord(t *testing.T) {
	s, err := OpenWorkerStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.appendRecord(logKindStep, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		st, err := s.log.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	before := size()
	err = s.appendRecord(logKindGather, make([]byte, comm.MaxFrameSize+1))
	if !errors.Is(err, comm.ErrFrameTooLarge) {
		t.Fatalf("append of MaxFrameSize+1 bytes: err=%v, want ErrFrameTooLarge", err)
	}
	if after := size(); after != before || s.records() != 1 {
		t.Fatalf("rejected append left %d log bytes and %d records, want %d and 1", after, s.records(), before)
	}
	// The bound is replay's own: the largest accepted record reads back.
	if err := s.appendRecord(logKindGather, make([]byte, comm.MaxFrameSize)); err != nil {
		t.Fatalf("append of exactly MaxFrameSize bytes: %v", err)
	}
	if recs, err := s.replay(2); err != nil || len(recs[1].payload) != comm.MaxFrameSize {
		t.Fatalf("replay of a MaxFrameSize record: %v", err)
	}
}

// TestWorkerStoreRefusesVersion1Log checks the step log's version gate: a
// FLSHLOG1 log was written under vertex-count ranges and must not be opened.
func TestWorkerStoreRefusesVersion1Log(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "w000")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "steps.flashlog"), []byte("FLSHLOG1"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenWorkerStore(dir, 0)
	if err == nil {
		s.Close()
		t.Fatal("FLSHLOG1 log opened")
	}
	if !strings.Contains(err.Error(), "is not a step log") {
		t.Fatalf("FLSHLOG1 log: err = %v, want not a step log", err)
	}
}
