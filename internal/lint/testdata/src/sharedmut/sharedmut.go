// Fixture for the sharedmut analyzer: types marked //flash:immutable are
// shared read-only once published (the core.SharedGraph contract), so no
// write may reach them unless the written value was freshly built in the
// same function. No function marker exempts a body.
package sharedmut

// Part mirrors partition.Part: one worker's published partition view.
//
//flash:immutable
type Part struct {
	Worker        int
	MirrorWorkers [][]int
}

// Partitioned mirrors partition.Partitioned: the shared per-worker bundle.
//
//flash:immutable
type Partitioned struct {
	Parts []*Part
}

// Fork returns a private shallow copy whose Parts slice may be swapped: its
// summary says it returns fresh memory.
func (p *Partitioned) Fork() *Partitioned {
	return &Partitioned{Parts: append([]*Part(nil), p.Parts...)}
}

// Rebuild repopulates one worker's part in place: the write is reported
// where it happens, whoever calls it.
func (p *Partitioned) Rebuild(w int) *Part {
	part := &Part{Worker: w}
	p.Parts[w] = part // want `write through //flash:immutable Partitioned after publish`
	return part
}

type engine struct {
	part   *Partitioned
	shared bool
}

// privatizePart swaps a fork in for the shared partition. Calling it first
// does not sanction a later write through e.part: the analyzer cannot see
// that e.part is private afterwards.
func (e *engine) privatizePart() {
	if e.shared {
		e.part = e.part.Fork()
		e.shared = false
	}
}

// The bug class the contract exists for: a cold-restart recovery path
// rebuilding through a still-shared partition clobbers the layout under every
// other engine borrowing the same catalog entry, fork swapped in or not.
func (e *engine) coldRestartForked(victim int) {
	e.privatizePart()
	e.part.Parts[victim] = &Part{Worker: victim} // want `write through //flash:immutable Partitioned after publish`
}

// Forking into a local sanctions the write: the local is fresh memory.
func (e *engine) coldRestartInlineFork(victim int) {
	mine := e.part.Fork()
	mine.Parts[victim] = &Part{Worker: victim} // no diagnostic: Fork returns fresh memory
	e.part = mine
}

func (e *engine) clobberMirrors(victim int) {
	e.part.Parts[victim].MirrorWorkers = nil // want `write through //flash:immutable Part after publish`
}

// scrubPart writes through the shared value it is handed.
func scrubPart(p *Part) {
	p.MirrorWorkers = nil // want `write through //flash:immutable Part after publish`
}

// Construction-time writes are private until the value is published.
func build(n int) *Partitioned {
	p := &Partitioned{Parts: make([]*Part, n)}
	for w := range p.Parts {
		p.Parts[w] = &Part{Worker: w} // no diagnostic: p is still private
	}
	return p
}

// Reads through shared immutable state are always free.
func readShared(e *engine, victim int) int {
	return e.part.Parts[victim].Worker
}
