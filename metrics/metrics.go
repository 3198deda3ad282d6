// Package metrics collects the runtime measurements the paper's evaluation
// reports: a piecewise breakdown of execution time (computation,
// communication incl. waiting, serialization, other; §V-E), message/byte
// counters, and the per-iteration active-vertex trace used by Fig. 4(a).
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Category labels one slice of the execution-time breakdown.
type Category int

const (
	Compute Category = iota
	Communication
	Serialization
	Other
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Compute:
		return "computation"
	case Communication:
		return "communication"
	case Serialization:
		return "serialization"
	case Other:
		return "other"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Counters is the plain counter set of a run. It is embedded in Record and
// Collector, so every counter is a field of both, and it is what a finished
// run hands back (flash.RunResult).
type Counters struct {
	Supersteps int
	Messages   uint64
	Bytes      uint64

	// Robustness counters (fault-tolerant runtime): Recoveries counts
	// checkpoint restores; Checkpoints counts snapshots taken at superstep
	// barriers.
	Recoveries  uint64
	Checkpoints uint64
	// Restarts counts recoveries caused by a permanent worker loss;
	// CheckpointBytes is the total encoded checkpoint payload handed to the
	// store; RecoveryTime is the wall time spent inside recovery (membership
	// swap and restore; the re-run that follows is ordinary superstep time).
	Restarts        uint64
	CheckpointBytes uint64
	RecoveryTime    time.Duration
	// Elasticity counters: Resizes counts completed membership changes,
	// MigratedBytes the encoded master state that restores of an image taken
	// at another worker count re-homed, and ResizeTime the wall time runs
	// spent paused at resize barriers (image through resume, including any
	// recovery inside the resize).
	Resizes       uint64
	MigratedBytes uint64
	ResizeTime    time.Duration
	// Out-of-core block backend counters: block-cache hits, misses, and
	// evictions; edges decoded from read blocks (whole blocks, or only the
	// rows a sparse step reads); encoded bytes read from disk split by the
	// scheduling mode (dense = sequential stream, sparse = frontier-resident
	// blocks only); and how many EdgeMap supersteps ran in each mode. All
	// zero for in-memory runs.
	BlockHits         uint64
	BlockMisses       uint64
	BlockEvictions    uint64
	BlockDecodedEdges uint64
	BlockBytesDense   uint64
	BlockBytesSparse  uint64
	BlockStepsDense   uint64
	BlockStepsSparse  uint64
}

// add folds o into c: the one place that knows every counter is a sum.
func (c *Counters) add(o Counters) {
	c.Supersteps += o.Supersteps
	c.Messages += o.Messages
	c.Bytes += o.Bytes
	c.Recoveries += o.Recoveries
	c.Checkpoints += o.Checkpoints
	c.Restarts += o.Restarts
	c.CheckpointBytes += o.CheckpointBytes
	c.RecoveryTime += o.RecoveryTime
	c.Resizes += o.Resizes
	c.MigratedBytes += o.MigratedBytes
	c.ResizeTime += o.ResizeTime
	c.BlockHits += o.BlockHits
	c.BlockMisses += o.BlockMisses
	c.BlockEvictions += o.BlockEvictions
	c.BlockDecodedEdges += o.BlockDecodedEdges
	c.BlockBytesDense += o.BlockBytesDense
	c.BlockBytesSparse += o.BlockBytesSparse
	c.BlockStepsDense += o.BlockStepsDense
	c.BlockStepsSparse += o.BlockStepsSparse
}

// Record is one unit of counting: the time per category and the counters
// of one worker over one superstep, or of one driver-side event (a
// checkpoint, a recovery, a resize). Its owner adds to the fields directly,
// without a lock, and hands it to Collector.Fold.
type Record struct {
	Durations [numCategories]time.Duration
	Counters
}

// Collector accumulates measurements for one run: the fold of every record
// handed to it, plus the superstep trace. The zero value is unusable; call
// New.
type Collector struct {
	mu        sync.Mutex
	durations [numCategories]time.Duration
	Counters
	// Frontier[i] is the number of active vertices entering superstep i.
	Frontier []int
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add records d under category c.
func (col *Collector) Add(c Category, d time.Duration) {
	col.mu.Lock()
	col.durations[c] += d
	col.mu.Unlock()
}

// Fold adds r into the collector and zeroes r, so its owner can fill it
// again.
func (col *Collector) Fold(r *Record) {
	col.mu.Lock()
	for c, d := range r.Durations {
		col.durations[c] += d
	}
	col.Counters.add(r.Counters)
	col.mu.Unlock()
	*r = Record{}
}

// Step records one superstep with the given entering frontier size.
func (col *Collector) Step(frontier int) {
	col.mu.Lock()
	col.Supersteps++
	col.Frontier = append(col.Frontier, frontier)
	col.mu.Unlock()
}

// Duration returns the accumulated time for c.
func (col *Collector) Duration(c Category) time.Duration {
	col.mu.Lock()
	defer col.mu.Unlock()
	return col.durations[c]
}

// Total returns the sum over all categories.
func (col *Collector) Total() time.Duration {
	col.mu.Lock()
	defer col.mu.Unlock()
	var t time.Duration
	for _, d := range col.durations {
		t += d
	}
	return t
}

// Breakdown returns the per-category shares (0..1). All zeros when nothing
// was recorded.
func (col *Collector) Breakdown() [4]float64 {
	col.mu.Lock()
	defer col.mu.Unlock()
	var total time.Duration
	for _, d := range col.durations {
		total += d
	}
	var out [4]float64
	if total == 0 {
		return out
	}
	for i, d := range col.durations {
		out[i] = float64(d) / float64(total)
	}
	return out
}

// String formats the collector as a one-line report.
func (col *Collector) String() string {
	col.mu.Lock()
	defer col.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "steps=%d msgs=%d bytes=%d", col.Supersteps, col.Messages, col.Bytes)
	for c := Category(0); c < numCategories; c++ {
		fmt.Fprintf(&sb, " %s=%s", c, col.durations[c].Round(time.Microsecond))
	}
	if col.Recoveries+col.Checkpoints > 0 {
		fmt.Fprintf(&sb, " recoveries=%d checkpoints=%d", col.Recoveries, col.Checkpoints)
	}
	if col.Restarts+col.CheckpointBytes > 0 || col.RecoveryTime > 0 {
		fmt.Fprintf(&sb, " restarts=%d ckpt_bytes=%d recovery_time=%s",
			col.Restarts, col.CheckpointBytes, col.RecoveryTime.Round(time.Microsecond))
	}
	if col.Resizes > 0 {
		fmt.Fprintf(&sb, " resizes=%d migrated_bytes=%d resize_time=%s",
			col.Resizes, col.MigratedBytes, col.ResizeTime.Round(time.Microsecond))
	}
	if col.BlockHits+col.BlockMisses > 0 {
		fmt.Fprintf(&sb, " blk_hits=%d blk_misses=%d blk_evicts=%d blk_bytes_dense=%d blk_bytes_sparse=%d blk_decoded=%d",
			col.BlockHits, col.BlockMisses, col.BlockEvictions, col.BlockBytesDense, col.BlockBytesSparse, col.BlockDecodedEdges)
	}
	return sb.String()
}
