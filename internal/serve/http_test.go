package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// do issues one request against the test server and returns the status and
// the raw body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestHTTPReadAndEvictRoutes covers the routes no other test reaches: the
// graph and job listings, the metrics snapshot, and graph eviction — status,
// envelope shape, and evict-then-404.
func TestHTTPReadAndEvictRoutes(t *testing.T) {
	srv := admissionServer(t, SchedulerConfig{MaxConcurrent: 1})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	code, body := do(t, http.MethodPost, hs.URL+"/v1/jobs", `{"graph":"g","algo":"cc","tenant":"a"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if code, body = do(t, http.MethodGet, hs.URL+"/v1/jobs/"+submitted.ID+"?wait=30s", ""); code != http.StatusOK {
		t.Fatalf("wait for the job: %d %s", code, body)
	}

	for _, tc := range []struct {
		name, method, path string
		want               int
		check              func(t *testing.T, body []byte)
	}{
		{"list graphs", http.MethodGet, "/v1/graphs", http.StatusOK, func(t *testing.T, body []byte) {
			var infos []GraphInfo
			if err := json.Unmarshal(body, &infos); err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Name != "g" || infos[0].Vertices != 64 || infos[0].GraphBytes == 0 {
				t.Fatalf("graphs = %+v", infos)
			}
		}},
		{"list jobs", http.MethodGet, "/v1/jobs", http.StatusOK, func(t *testing.T, body []byte) {
			var jobs []jobStatus
			if err := json.Unmarshal(body, &jobs); err != nil {
				t.Fatal(err)
			}
			if len(jobs) != 1 || jobs[0].ID != submitted.ID || jobs[0].Tenant != "a" ||
				jobs[0].Algo != "cc" || jobs[0].State != JobDone || jobs[0].Result == nil {
				t.Fatalf("jobs = %+v", jobs)
			}
		}},
		{"metrics", http.MethodGet, "/v1/metrics", http.StatusOK, func(t *testing.T, body []byte) {
			var snap MetricsSnapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			// Completed is counted after Done closes, so it may still read 0.
			if snap.Submitted != 1 || snap.Failed != 0 || snap.Graphs != 1 || snap.GraphBytes == 0 {
				t.Fatalf("metrics = %+v", snap)
			}
		}},
		{"evict", http.MethodDelete, "/v1/graphs/g", http.StatusNoContent, func(t *testing.T, body []byte) {
			if len(body) != 0 {
				t.Fatalf("204 with a body: %q", body)
			}
		}},
		{"evict again", http.MethodDelete, "/v1/graphs/g", http.StatusNotFound, func(t *testing.T, body []byte) {
			var env errorBody
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.Code != "unknown_graph" || env.Graph != "g" {
				t.Fatalf("envelope = %+v", env)
			}
		}},
		{"list graphs after evict", http.MethodGet, "/v1/graphs", http.StatusOK, func(t *testing.T, body []byte) {
			var infos []GraphInfo
			if err := json.Unmarshal(body, &infos); err != nil || len(infos) != 0 {
				t.Fatalf("graphs after evict = %s (%v)", body, err)
			}
		}},
	} {
		code, body := do(t, tc.method, hs.URL+tc.path, "")
		if code != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
		tc.check(t, body)
	}
}

// TestSchedulerForgetsOldestFinishedJobs: a long-lived daemon must not hold
// every result it ever produced. Past maxFinishedJobs the earliest finished
// job is dropped — its id then answers 404 like any unknown id — while the
// newest stays retrievable and the listing stays in submission order.
func TestSchedulerForgetsOldestFinishedJobs(t *testing.T) {
	srv := admissionServer(t, SchedulerConfig{MaxConcurrent: 1})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	const extra = 5
	var first, last string
	for i := 0; i < maxFinishedJobs+extra; i++ {
		job, err := srv.Submit([]byte(`{"graph":"g","algo":"cc"}`))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-job.Done()
		if i == 0 {
			first = job.ID
		}
		last = job.ID
	}
	srv.sched.Close() // the last run loop has let go of the scheduler lock
	if n := len(srv.sched.jobs); n != maxFinishedJobs {
		t.Fatalf("scheduler remembers %d jobs with none in flight, want %d", n, maxFinishedJobs)
	}
	jobs := srv.sched.List()
	if len(jobs) != maxFinishedJobs || jobs[0].ID != fmt.Sprintf("job-%d", extra+1) || jobs[len(jobs)-1].ID != last {
		t.Fatalf("List() holds %d jobs, %s..%s", len(jobs), jobs[0].ID, jobs[len(jobs)-1].ID)
	}
	code, body := do(t, http.MethodGet, hs.URL+"/v1/jobs/"+first, "")
	var env errorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusNotFound || env.Code != ErrorCode(&UnknownJobError{}) || env.Job != first {
		t.Fatalf("forgotten job %s: %d %+v", first, code, env)
	}
	if code, body = do(t, http.MethodGet, hs.URL+"/v1/jobs/"+last, ""); code != http.StatusOK {
		t.Fatalf("newest job %s: %d %s", last, code, body)
	}
}
