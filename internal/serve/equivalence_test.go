package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"flash"
	"flash/internal/comm"
)

// Golden service equivalence: every algorithm served by flashd must return
// results byte-identical (as canonical JSON) to calling the algo package
// directly at the same engine configuration — through the in-process submit
// path and through real HTTP, on both the in-memory and TCP transports. The
// direct baseline reuses the registry adapters, so sentinel transforms
// (sssp's +Inf→-1) apply to both sides.

type equivCase struct {
	name   string
	graph  string
	algo   string
	params JobParams
}

func equivGraphSpecs() []GraphSpec {
	return []GraphSpec{
		{Name: "er", Gen: "er", N: 48, M: 180, Seed: 5},
		{Name: "wer", Gen: "er", N: 48, M: 180, Seed: 5, Weighted: true},
		{Name: "dir", Gen: "randdir", N: 40, M: 140, Seed: 7},
	}
}

func equivCases() []equivCase {
	root := uint64(0)
	iters := 10
	eps := 0.0
	lpaIters := 5
	return []equivCase{
		{"bfs", "er", "bfs", JobParams{Root: &root}},
		{"cc", "er", "cc", JobParams{}},
		{"ccopt", "er", "ccopt", JobParams{}},
		{"pagerank", "er", "pagerank", JobParams{MaxIters: &iters, Eps: &eps}},
		{"sssp", "wer", "sssp", JobParams{Root: &root}},
		{"kcore", "er", "kcore", JobParams{}},
		{"gc", "er", "gc", JobParams{}},
		{"mis", "er", "mis", JobParams{}},
		{"lpa", "er", "lpa", JobParams{MaxIters: &lpaIters}},
		{"tc", "er", "tc", JobParams{}},
		{"scc", "dir", "scc", JobParams{}},
	}
}

// directJSON runs the registry adapter against a privately built copy of the
// catalog graph at the same engine configuration and marshals the result.
func directJSON(t *testing.T, specs []GraphSpec, c equivCase, workers int, tcp bool) []byte {
	t.Helper()
	var spec *GraphSpec
	for i := range specs {
		if specs[i].Name == c.graph {
			spec = &specs[i]
		}
	}
	g, err := BuildGraph(*spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := []flash.Option{flash.WithWorkers(workers), flash.WithThreads(1)}
	if tcp {
		opts = append(opts, flash.WithTCP())
	}
	val, err := algoRegistry[c.algo].run(g, c.params, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(val)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func equivServer(t *testing.T, workers int) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Scheduler: SchedulerConfig{MaxConcurrent: 2, Workers: workers, Threads: 1},
		Preload:   equivGraphSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestServiceEquivalenceInProcess(t *testing.T) {
	const workers = 2
	srv := equivServer(t, workers)
	for _, c := range equivCases() {
		for _, tcp := range []bool{false, true} {
			name := fmt.Sprintf("%s/mem", c.name)
			if tcp {
				name = fmt.Sprintf("%s/tcp", c.name)
			}
			t.Run(name, func(t *testing.T) {
				req := &JobRequest{Graph: c.graph, Algo: c.algo, Params: c.params}
				if tcp {
					v := true
					req.Params.TCP = &v
				}
				job, err := srv.SubmitRequest(req)
				if err != nil {
					t.Fatal(err)
				}
				<-job.Done()
				res, err := job.Result()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(res.Values)
				if err != nil {
					t.Fatal(err)
				}
				want := directJSON(t, equivGraphSpecs(), c, workers, tcp)
				if !bytes.Equal(got, want) {
					t.Fatalf("service result differs from direct run\nservice: %.200s\ndirect:  %.200s", got, want)
				}
				if res.StateBytes == 0 {
					t.Fatal("job reports zero StateBytes")
				}
				if res.Supersteps == 0 {
					t.Fatal("job reports zero supersteps")
				}
			})
		}
	}
}

func TestServiceEquivalenceHTTP(t *testing.T) {
	const workers = 2
	srv := equivServer(t, workers)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, c := range equivCases() {
		for _, tcp := range []bool{false, true} {
			name := fmt.Sprintf("%s/mem", c.name)
			if tcp {
				name = fmt.Sprintf("%s/tcp", c.name)
			}
			t.Run(name, func(t *testing.T) {
				params := c.params
				if tcp {
					v := true
					params.TCP = &v
				}
				body, err := json.Marshal(JobRequest{Graph: c.graph, Algo: c.algo, Params: params})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				accepted, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: %d %s", resp.StatusCode, accepted)
				}
				var sub struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(accepted, &sub); err != nil {
					t.Fatal(err)
				}
				resp, err = http.Get(hs.URL + "/v1/jobs/" + sub.ID + "?wait=60s")
				if err != nil {
					t.Fatal(err)
				}
				statusBody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var status struct {
					State  JobState `json:"state"`
					Result *struct {
						Values json.RawMessage `json:"values"`
					} `json:"result"`
				}
				if err := json.Unmarshal(statusBody, &status); err != nil {
					t.Fatal(err)
				}
				if status.State != JobDone || status.Result == nil {
					t.Fatalf("job state %q (%s)", status.State, statusBody)
				}
				want := directJSON(t, equivGraphSpecs(), c, workers, tcp)
				got := bytes.TrimSpace(status.Result.Values)
				if !bytes.Equal(got, want) {
					t.Fatalf("HTTP result differs from direct run\nservice: %.200s\ndirect:  %.200s", got, want)
				}
			})
		}
	}
}

// TestEveryRegistryAlgoReturnsErrorOnUnrecoveredFault: a job whose engine
// loses a worker with no checkpointing to absorb it must end as a failed job
// with an error — for every name the registry serves, not only the
// cluster-safe four — never as a panic that takes the daemon down.
func TestEveryRegistryAlgoReturnsErrorOnUnrecoveredFault(t *testing.T) {
	g, err := BuildGraph(GraphSpec{Name: "wer", Gen: "er", N: 48, M: 180, Seed: 5, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	root := uint64(0)
	for _, name := range Algos() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			_, err := RunAlgo(name, g, JobParams{Root: &root}, flash.WithWorkers(2),
				flash.WithFaultPlan(flash.FaultPlan{Crashes: []flash.WorkerCrash{{Worker: 1, Round: 1}}}))
			var crash *comm.CrashError
			if !errors.As(err, &crash) {
				t.Fatalf("err=%v, want the unrecovered worker crash", err)
			}
		})
	}
}
