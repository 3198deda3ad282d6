package comm

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// FaultPlan scripts deterministic fault injection for a Faulty transport.
// Probabilistic faults draw from per-sender PRNGs seeded with Seed+sender,
// so a plan replays identically for a fixed per-worker send sequence no
// matter how worker goroutines interleave. Scripted events (Stalls, Crashes,
// Kills, Corrupts) are one-shot: once fired they are consumed, which is what
// makes faults *transient* — a checkpoint replay runs fault-free. A failed
// Send fails the round, so a lost frame is scripted as a Crash at that round.
type FaultPlan struct {
	// Seed seeds the per-sender PRNGs for probabilistic faults.
	Seed int64
	// DelayProb is the per-frame probability that a cross-worker frame is
	// held back and delivered at the sender's EndRound instead — delaying it
	// to the end of the round without violating BSP round boundaries.
	DelayProb float64
	// Reorder shuffles the delivery order of held-back frames within each
	// (sender, round) batch. BSP rounds are order-insensitive across a round,
	// so a correct engine must tolerate this.
	Reorder bool
	// Stalls makes a worker sleep inside EndRound of the given round,
	// exercising peers' drain-timeout stall detection.
	Stalls []WorkerStall
	// Crashes makes a worker's EndRound (or Send) of the given round fail
	// with CrashError, simulating a mid-superstep worker failure.
	Crashes []WorkerCrash
	// Kills hard-kills a worker at its first transport operation (Send or
	// EndRound) at or after the given round: its receive endpoint is closed
	// for real and every transport call it makes fails with KillError for the
	// rest of the incarnation. Unlike Crashes, the death outlasts the round:
	// peers see it as a drain deadline that expires, and the engine starts a
	// fresh incarnation (Resize) from a checkpoint.
	Kills []WorkerKill
	// Corrupts scripts single-bit payload flips (seeded position) on the
	// given edge, exercising the receive-side integrity/decode hardening.
	Corrupts []FrameCorrupt
	// CorruptProb is the per-frame probability that a cross-worker payload
	// gets one seeded bit flip before delivery.
	CorruptProb float64
	// MaxCorrupts caps the probabilistic corruptions (0 = unlimited).
	MaxCorrupts int
}

// WorkerStall scripts worker Worker sleeping Delay inside EndRound of round
// Round.
type WorkerStall struct {
	Worker int
	Round  uint32
	Delay  time.Duration
}

// WorkerCrash scripts worker Worker failing at round Round.
type WorkerCrash struct {
	Worker int
	Round  uint32
}

// WorkerKill scripts the permanent death of worker Worker at its first
// transport operation at or after round Round. Rounds are numbered across
// incarnations (see Faulty.Resize), so a Kill scripted for a round after a
// recovery or a membership swap fires at that absolute round.
type WorkerKill struct {
	Worker int
	Round  uint32
}

// FrameCorrupt scripts one single-bit flip in the next cross-worker payload
// on the From→To edge at or after the sender's round Round.
type FrameCorrupt struct {
	From, To int
	Round    uint32
}

// FaultCounts reports how many faults a Faulty transport has injected.
type FaultCounts struct {
	Delays   int
	Stalls   int
	Crashes  int
	Kills    int
	Corrupts int
}

// Faulty wraps any Transport and injects the faults of a FaultPlan. It is
// the runtime's test double for a lossy, laggy, crashy wire: every
// robustness behavior (stall detection, worker loss, checkpoint recovery) can be
// exercised deterministically in-process.
type Faulty struct {
	inner Transport
	plan  FaultPlan

	mu       sync.Mutex
	rng      []*rand.Rand
	round    []uint32      // per-sender round address; runs on across Resize
	held     [][]heldFrame // per-sender frames delayed to EndRound
	stalls   []WorkerStall
	crashes  []WorkerCrash
	kills    []WorkerKill
	corrupts []FrameCorrupt
	killed   []bool // death flags of this incarnation; cleared by Resize
	counts   FaultCounts
}

// heldFrame is a delayed frame awaiting delivery at its sender's EndRound.
type heldFrame struct {
	to   int
	data []byte
}

// NewFaulty wraps inner with the given fault plan.
func NewFaulty(inner Transport, plan FaultPlan) *Faulty {
	m := inner.Workers()
	f := &Faulty{
		inner: inner,
		plan:  plan,
		rng:   make([]*rand.Rand, m),
		round: make([]uint32, m),
		held:  make([][]heldFrame, m),
	}
	for i := range f.rng {
		f.rng[i] = rand.New(rand.NewSource(plan.Seed + int64(i)))
	}
	f.stalls = append([]WorkerStall(nil), plan.Stalls...)
	f.crashes = append([]WorkerCrash(nil), plan.Crashes...)
	f.kills = append([]WorkerKill(nil), plan.Kills...)
	f.corrupts = append([]FrameCorrupt(nil), plan.Corrupts...)
	f.killed = make([]bool, m)
	return f
}

// Counts returns the faults injected so far.
func (f *Faulty) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

func (f *Faulty) Workers() int { return f.inner.Workers() }

// crashLocked consumes a pending crash for (from, round) if one is scripted.
func (f *Faulty) crashLocked(from int, r uint32) error {
	for i, c := range f.crashes {
		if c.Worker == from && c.Round == r {
			f.crashes = append(f.crashes[:i], f.crashes[i+1:]...)
			f.counts.Crashes++
			return &CrashError{Worker: from}
		}
	}
	return nil
}

// killLocked enforces permanent deaths: a dead worker's transport calls fail
// with KillError, and a pending scripted kill for (from, round>=Round) fires
// here — tearing the victim's receive endpoint down for real when the inner
// transport supports it, so the victim's mailbox state is genuinely gone.
func (f *Faulty) killLocked(from int, r uint32) error {
	if f.killed[from] {
		return &KillError{Worker: from}
	}
	for i, k := range f.kills {
		if k.Worker == from && r >= k.Round {
			f.kills = append(f.kills[:i], f.kills[i+1:]...)
			f.killed[from] = true
			f.counts.Kills++
			if ec, ok := f.inner.(EndpointCloser); ok {
				ec.CloseEndpoint(from, &KillError{Worker: from})
			}
			return &KillError{Worker: from}
		}
	}
	return nil
}

// corruptLocked applies a scripted or probabilistic single-bit flip to data.
func (f *Faulty) corruptLocked(from, to int, r uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	hit := false
	for i, c := range f.corrupts {
		if c.From == from && c.To == to && r >= c.Round {
			f.corrupts = append(f.corrupts[:i], f.corrupts[i+1:]...)
			hit = true
			break
		}
	}
	if !hit && f.plan.CorruptProb > 0 &&
		(f.plan.MaxCorrupts == 0 || f.counts.Corrupts < f.plan.MaxCorrupts) {
		hit = f.rng[from].Float64() < f.plan.CorruptProb
	}
	if !hit {
		return
	}
	rng := f.rng[from]
	data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
	f.counts.Corrupts++
}

func (f *Faulty) Send(from, to int, data []byte) error {
	f.mu.Lock()
	r := f.round[from]
	if err := f.killLocked(from, r); err != nil {
		f.mu.Unlock()
		return err
	}
	if from == to {
		f.mu.Unlock()
		return f.inner.Send(from, to, data)
	}
	if err := f.crashLocked(from, r); err != nil {
		f.mu.Unlock()
		return err
	}
	f.corruptLocked(from, to, r, data)
	if p := f.plan.DelayProb; p > 0 && f.rng[from].Float64() < p {
		f.counts.Delays++
		f.held[from] = append(f.held[from], heldFrame{to: to, data: data})
		f.mu.Unlock()
		return nil // delivered at EndRound
	}
	f.mu.Unlock()
	return f.inner.Send(from, to, data)
}

func (f *Faulty) EndRound(from int) error {
	f.mu.Lock()
	r := f.round[from]
	if err := f.killLocked(from, r); err != nil {
		f.mu.Unlock()
		return err
	}
	if err := f.crashLocked(from, r); err != nil {
		f.mu.Unlock()
		return err
	}
	held := f.held[from]
	f.held[from] = nil
	if f.plan.Reorder && len(held) > 1 {
		f.rng[from].Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	}
	var stall time.Duration
	for i, s := range f.stalls {
		if s.Worker == from && s.Round == r {
			stall = s.Delay
			f.stalls = append(f.stalls[:i], f.stalls[i+1:]...)
			f.counts.Stalls++
			break
		}
	}
	f.round[from] = r + 1
	f.mu.Unlock()

	if stall > 0 {
		time.Sleep(stall)
	}
	// Flush held frames before the marker so the round stays complete.
	for _, h := range held {
		if err := f.inner.Send(from, h.to, h.data); err != nil {
			return err
		}
	}
	return f.inner.EndRound(from)
}

func (f *Faulty) Drain(to int, h func(from int, data []byte)) error {
	return f.inner.Drain(to, h)
}

// Resize starts the wrapper's next incarnation alongside the inner
// transport's: killed flags are cleared (a dead worker comes back), held
// frames are dropped, and joining workers get fresh PRNGs seeded Seed+i so
// fault schedules stay deterministic across membership changes. Scripted
// events stay consumed and surviving PRNGs keep their state: a replay must
// not re-fire the fault that triggered it.
//
// Round addresses run on, one rule for every incarnation: all workers restart
// one past the lowest counter. The lowest counter is the round the old
// incarnation stopped in — the worker that failed a round never completes it,
// while peers may or may not have moved on before the abort reached them —
// so the next address is deterministic and no round of a run is addressed
// twice. (At a barrier all counters are equal and one address goes unused.)
func (f *Faulty) Resize(n int) error {
	f.mu.Lock()
	next := slices.Min(f.round) + 1
	rng := make([]*rand.Rand, n)
	for i := range rng {
		if i < len(f.rng) {
			rng[i] = f.rng[i]
		} else {
			rng[i] = rand.New(rand.NewSource(f.plan.Seed + int64(i)))
		}
	}
	f.rng = rng
	f.killed = make([]bool, n)
	f.round = make([]uint32, n)
	for i := range f.round {
		f.round[i] = next
	}
	f.held = make([][]heldFrame, n)
	f.mu.Unlock()
	return f.inner.Resize(n)
}

func (f *Faulty) Abort(err error) { f.inner.Abort(err) }

func (f *Faulty) SetDrainTimeout(d time.Duration) { f.inner.SetDrainTimeout(d) }

func (f *Faulty) Close() error { return f.inner.Close() }
