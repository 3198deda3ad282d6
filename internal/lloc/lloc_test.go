package lloc

import "testing"

func TestCountSource(t *testing.T) {
	src := []byte(`package x

// comment lines don't count
import "fmt"

type S struct{ A int } // data structure definitions don't count

func F(a int) int {
	// a comment
	b := a + 1

	if b > 2 {
		b++
	} else {
		b--
	}
	for i := 0; i < 3; i++ {
		fmt.Println(i)
	}
	switch b {
	case 1:
		b = 0
	default:
		b = 9
	}
	return b
}

func G() {}
`)
	rep, err := CountSource("x.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Funcs) != 2 {
		t.Fatalf("funcs: %+v", rep.Funcs)
	}
	// F: sig(1) + assign(1) + if(1)+inc(1)+dec(1) + for(1)+call(1) +
	// switch(1)+2 cases(2)+2 bodies(2) + return(1) = 13
	var f, g int
	for _, fc := range rep.Funcs {
		switch fc.Name {
		case "F":
			f = fc.Lines
		case "G":
			g = fc.Lines
		}
	}
	if f != 13 {
		t.Fatalf("F lines = %d, want 13", f)
	}
	if g != 1 {
		t.Fatalf("G lines = %d, want 1", g)
	}
	if rep.Total != 14 {
		t.Fatalf("total = %d", rep.Total)
	}
}

func TestCountFileErrors(t *testing.T) {
	if _, err := CountFile("/nonexistent.go"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := CountSource("bad.go", []byte("not go code")); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestCountRealAlgorithm(t *testing.T) {
	rep, err := CountFile("../../algo/bfs.go")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total < 10 || rep.Total > 60 {
		t.Fatalf("BFS LLoC = %d out of plausible range", rep.Total)
	}
}

// TestWrappedDriverCountsAsUnwrapped pins the wrapper rule: a driver whose
// body only returns a call handing on a function literal counts the
// literal's statements, the same as the driver written out unwrapped, while
// a literal anywhere else stays part of the statement that holds it.
func TestWrappedDriverCountsAsUnwrapped(t *testing.T) {
	src := []byte(`package x

func Unwrapped(g int) (int, error) {
	u := g + 1
	for u > 0 {
		u = step(u, func(v int) int { return v - 1 })
	}
	return u, nil
}

func Wrapped(g int) (int, error) {
	return run(g, func(e int) (int, error) {
		u := e + 1
		for u > 0 {
			u = step(u, func(v int) int { return v - 1 })
		}
		return u, nil
	})
}

func NotAWrapper(g int) (int, error) {
	f := func(e int) (int, error) {
		u := e + 1
		return u, nil
	}
	return f(g)
}
`)
	rep, err := CountSource("x.go", src)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, fc := range rep.Funcs {
		got[fc.Name] = fc.Lines
	}
	// sig + assign + for + assign + return = 5; the step literal is part of
	// its assignment in both.
	if got["Unwrapped"] != 5 || got["Wrapped"] != 5 {
		t.Fatalf("Unwrapped = %d, Wrapped = %d, want 5 and 5", got["Unwrapped"], got["Wrapped"])
	}
	if got["NotAWrapper"] != 3 {
		t.Fatalf("NotAWrapper = %d, want 3 (sig + assign + return)", got["NotAWrapper"])
	}
}
