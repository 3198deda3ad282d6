//go:build !flashdebug

package core

// debugChecks is off in release builds: the sampling in syncMasters, the
// coherence check and the superstep-boundary check compile away.
const debugChecks = false

func (w *worker[V]) debugCheckMirrorSamples([]int) {}

func (w *worker[V]) debugSampleSlots([]byte) {}

func (e *Engine[V]) debugCheckBoundary(*Subset) {}
