package comm

import (
	"fmt"
	"sync"
	"testing"
)

// runRounds drives `rounds` exchange rounds on tr with `m` worker goroutines.
// In each round every worker sends one frame "r<round>:w<from>" to every
// worker (including itself) and verifies it receives exactly m frames.
func runRounds(t *testing.T, tr Transport, m, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, m)
	for w := 0; w < m; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for to := 0; to < m; to++ {
					tr.Send(w, to, []byte(fmt.Sprintf("r%d:w%d", r, w)))
				}
				tr.EndRound(w)
				got := map[string]int{}
				tr.Drain(w, func(from int, data []byte) {
					got[string(data)]++
				})
				if len(got) != m {
					errs <- fmt.Errorf("worker %d round %d: got %d distinct frames, want %d (%v)", w, r, len(got), m, got)
					return
				}
				for from := 0; from < m; from++ {
					key := fmt.Sprintf("r%d:w%d", r, from)
					if got[key] != 1 {
						errs <- fmt.Errorf("worker %d round %d: frame %q count %d", w, r, key, got[key])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMemExchange(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5} {
		tr := NewMem(m)
		runRounds(t, tr, m, 4)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemDeliversFrame(t *testing.T) {
	tr := NewMem(2)
	tr.Send(0, 1, []byte("abcd"))
	tr.EndRound(0)
	tr.EndRound(1)
	tr.Drain(0, func(int, []byte) {})
	got := 0
	tr.Drain(1, func(from int, data []byte) {
		got++
		if from != 0 || string(data) != "abcd" {
			t.Fatalf("frame from=%d data=%q", from, data)
		}
	})
	if got != 1 {
		t.Fatalf("got %d frames", got)
	}
}

func TestMemNilDataIsNotEOR(t *testing.T) {
	tr := NewMem(1)
	tr.Send(0, 0, nil)
	tr.EndRound(0)
	n := 0
	tr.Drain(0, func(from int, data []byte) { n++ })
	if n != 1 {
		t.Fatalf("nil-data frame lost: n=%d", n)
	}
}

// TestMemRunAheadInterleaved verifies a fast sender's next-round frames do
// not corrupt a receiver still draining the previous round.
func TestMemRunAheadInterleaved(t *testing.T) {
	tr := NewMem(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 3; r++ {
			tr.Send(0, 1, []byte{byte('a' + r)})
			tr.EndRound(0)
			tr.Drain(0, func(int, []byte) {})
		}
	}()
	for r := 0; r < 3; r++ {
		var got []byte
		tr.EndRound(1)
		tr.Drain(1, func(from int, data []byte) {
			if from == 0 {
				got = append(got, data...)
			}
		})
		if len(got) != 1 || got[0] != byte('a'+r) {
			t.Fatalf("round %d: got %q", r, got)
		}
	}
	<-done
}

func TestTCPExchange(t *testing.T) {
	for _, m := range []int{1, 2, 4} {
		tr, err := NewTCP(m)
		if err != nil {
			t.Fatal(err)
		}
		runRounds(t, tr, m, 3)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPLargeFrames(t *testing.T) {
	tr, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Send(w, 1-w, big)
			tr.EndRound(w)
			tr.Drain(w, func(from int, data []byte) {
				if len(data) != len(big) {
					t.Errorf("worker %d: got %d bytes", w, len(data))
					return
				}
				for i := 0; i < len(big); i += 4099 {
					if data[i] != big[i] {
						t.Errorf("worker %d: corrupt at %d", w, i)
						return
					}
				}
			})
		}()
	}
	wg.Wait()
}

func BenchmarkMemExchange4(b *testing.B) {
	tr := NewMem(4)
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for to := 0; to < 4; to++ {
					tr.Send(w, to, payload)
				}
				tr.EndRound(w)
				tr.Drain(w, func(int, []byte) {})
			}()
		}
		wg.Wait()
	}
}
