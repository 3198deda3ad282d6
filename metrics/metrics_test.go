package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAndBreakdown(t *testing.T) {
	c := New()
	c.Add(Compute, 3*time.Second)
	c.Add(Communication, time.Second)
	if c.Total() != 4*time.Second {
		t.Fatalf("total %v", c.Total())
	}
	bd := c.Breakdown()
	if bd[Compute] != 0.75 || bd[Communication] != 0.25 {
		t.Fatalf("breakdown %v", bd)
	}
	if bd[Serialization] != 0 || bd[Other] != 0 {
		t.Fatalf("breakdown %v", bd)
	}
}

func TestEmptyBreakdown(t *testing.T) {
	if bd := New().Breakdown(); bd != [4]float64{} {
		t.Fatalf("breakdown of empty collector: %v", bd)
	}
}

// TestTimeHelper times work into a record's category, as the kernels do,
// and checks the fold carries it to the collector.
func TestTimeHelper(t *testing.T) {
	c := New()
	var r Record
	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	r.Durations[Serialization] += time.Since(t0)
	c.Fold(&r)
	if c.Duration(Serialization) < time.Millisecond {
		t.Fatalf("folded time %v", c.Duration(Serialization))
	}
}

func TestStepsAndTraffic(t *testing.T) {
	c := New()
	c.Step(10)
	c.Step(5)
	c.Fold(&Record{Counters: Counters{Messages: 3, Bytes: 300}})
	if c.Supersteps != 2 || len(c.Frontier) != 2 || c.Frontier[1] != 5 {
		t.Fatalf("steps %d frontier %v", c.Supersteps, c.Frontier)
	}
	if c.Messages != 3 || c.Bytes != 300 {
		t.Fatalf("traffic %d/%d", c.Messages, c.Bytes)
	}
}

// TestMerge folds two workers' records into one collector: durations and
// counters sum.
func TestMerge(t *testing.T) {
	c := New()
	c.Step(1)
	a := Record{Counters: Counters{Messages: 2, Checkpoints: 1}}
	a.Durations[Compute] = time.Second
	b := Record{Counters: Counters{Messages: 1, BlockHits: 4}}
	b.Durations[Compute] = time.Second
	b.Durations[Other] = time.Second
	c.Fold(&a)
	c.Fold(&b)
	if c.Duration(Compute) != 2*time.Second || c.Duration(Other) != time.Second {
		t.Fatalf("merge durations: %v", c)
	}
	if c.Messages != 3 || c.Checkpoints != 1 || c.BlockHits != 4 || c.Supersteps != 1 {
		t.Fatalf("merge counters: %v", c)
	}
}

// TestReset checks Fold leaves its record zeroed, so a worker refills it
// from nothing each superstep, and a refold adds only the new counts.
func TestReset(t *testing.T) {
	c := New()
	r := Record{Counters: Counters{Messages: 1, Bytes: 1, Supersteps: 1}}
	r.Durations[Compute] = time.Second
	c.Fold(&r)
	if r != (Record{}) {
		t.Fatalf("Fold left state: %+v", r)
	}
	r.Messages++
	c.Fold(&r)
	if c.Total() != time.Second || c.Supersteps != 1 || c.Messages != 2 || c.Bytes != 1 {
		t.Fatalf("refold: %v", c)
	}
}

// TestConcurrentAdds drives the collector's remaining locked writers, Add
// and Step, from concurrent goroutines.
func TestConcurrentAdds(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				c.Add(Compute, time.Millisecond)
				c.Step(1)
			}
		}()
	}
	wg.Wait()
	if c.Duration(Compute) != 800*time.Millisecond || c.Supersteps != 800 || len(c.Frontier) != 800 {
		t.Fatalf("concurrent adds lost updates: %v", c)
	}
}

// TestCollectorFold folds records from concurrent owners: the sums are
// exact, each Fold zeroes its record, and the breakdown is the one Add
// gives for the same durations.
func TestCollectorFold(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r Record
			for range 100 {
				r.Durations[Compute] += 3 * time.Millisecond
				r.Durations[Communication] += time.Millisecond
				r.Messages++
				r.Bytes += 2
				r.BlockStepsSparse++
				c.Fold(&r)
				if r != (Record{}) {
					t.Errorf("Fold left %+v in the record", r)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Duration(Compute) != 2400*time.Millisecond || c.Duration(Communication) != 800*time.Millisecond {
		t.Fatalf("folded durations: %v", c)
	}
	if c.Messages != 800 || c.Bytes != 1600 || c.BlockStepsSparse != 800 {
		t.Fatalf("folded counters: %v", c)
	}
	if bd := c.Breakdown(); bd != [4]float64{0.75, 0.25, 0, 0} {
		t.Fatalf("breakdown %v", bd)
	}
	c.Step(5)
	if c.Supersteps != 1 || len(c.Frontier) != 1 || c.Frontier[0] != 5 {
		t.Fatalf("steps %d frontier %v", c.Supersteps, c.Frontier)
	}
}

func TestString(t *testing.T) {
	c := New()
	c.Step(1)
	s := c.String()
	for _, want := range []string{"steps=1", "computation=", "communication=", "serialization=", "other="} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category string empty")
	}
}
