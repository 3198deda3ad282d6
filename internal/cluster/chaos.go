package cluster

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// FaultKind names a process-level fault the chaos injector can deliver.
type FaultKind string

const (
	// FaultKill SIGKILLs the victim: no drain, no flush, no goodbye — the
	// hardest loss the coordinator must survive.
	FaultKill FaultKind = "kill"
	// FaultStall SIGSTOPs the victim: the process stays in the table but
	// stops sending and draining, so peers see a stall and the
	// coordinator's /proc monitor sees state 'T'.
	FaultStall FaultKind = "stall"
	// FaultPartition makes the victim drop every mesh socket (the worker
	// calls DropPeers on its transport). Nothing redials: the broken links
	// fail the round on both sides, and the coordinator restarts the fleet.
	FaultPartition FaultKind = "partition"
)

// ChaosPlan injects one process-level fault into a running fleet. The fault
// fires once per Coordinator.Run, even across restarts: the point is to
// prove one loss is survivable, not to starve the job forever.
type ChaosPlan struct {
	Worker   int           // victim worker id
	Kind     FaultKind     // what to inject
	AwaitSeq uint64        // wait until the victim's store holds checkpoint seq >= this (0 = no wait)
	Delay    time.Duration // extra delay after the await condition
}

// runChaos waits for the plan's trigger condition and delivers the fault to
// the victim process of the current epoch. If the epoch ends first (done
// closes), the injection is abandoned un-fired and the next epoch re-arms.
func (c *Coordinator) runChaos(victim *workerProc, done <-chan struct{}) {
	plan := c.cfg.Chaos
	if plan.AwaitSeq > 0 {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for maxCheckpointSeq(c.cfg.StoreDir, plan.Worker) < plan.AwaitSeq {
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}
	if plan.Delay > 0 {
		select {
		case <-done:
			return
		case <-time.After(plan.Delay):
		}
	}
	select {
	case <-done:
		return
	default:
	}
	// Mark fired before delivering: if the kill races the epoch teardown the
	// job still completes, and a double injection would prove nothing more.
	c.chaosFired.Store(true)
	switch plan.Kind {
	case FaultKill:
		_ = victim.cmd.Process.Kill()
	case FaultStall:
		_ = victim.cmd.Process.Signal(syscall.SIGSTOP)
	case FaultPartition:
		_ = victim.send(&Message{Type: MsgChaos, Fault: "partition"})
	}
}

// maxCheckpointSeq scans a worker's store directory for the newest durable
// checkpoint image. It reads only file names (the save path renames images
// into place atomically), so it never races the worker's writes.
func maxCheckpointSeq(storeDir string, worker int) uint64 {
	pattern := filepath.Join(storeDir, fmt.Sprintf("w%03d", worker), "ckpt-*.flashckp")
	names, err := filepath.Glob(pattern)
	if err != nil {
		return 0
	}
	var maxSeq uint64
	for _, name := range names {
		base := strings.TrimSuffix(filepath.Base(name), ".flashckp")
		seqStr := strings.TrimPrefix(base, "ckpt-")
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	return maxSeq
}
