package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flash/internal/serve"
)

// Config shapes one cluster job: which binary to spawn, the fleet size, the
// work to run, and the supervision budgets.
type Config struct {
	BinPath string          // path to the flashd binary (spawned as `flashd worker ...`)
	Workers int             // fleet size, >= 2
	Graph   serve.GraphSpec // deterministic spec every process rebuilds identically
	Algo    string          // must be serve.ClusterSafe
	Params  serve.JobParams // algorithm knobs; topology fields are ignored

	StoreDir        string // durable worker-store root ("" disables checkpoint/resume)
	CheckpointEvery int    // superstep cadence passed to workers (0 = off)

	MaxRestarts  int           // fleet respawn budget after retryable failures
	StartTimeout time.Duration // registration deadline per epoch (default 30s)
	DrainTimeout time.Duration // worker drain budget (default 5s)

	Chaos  *ChaosPlan // optional test-only fault injection
	Stderr io.Writer  // workers' stderr sink (default os.Stderr)
}

// Coordinator spawns and supervises a fleet of `flashd worker` processes.
// One Coordinator runs one job: Run blocks until the job produces a verified
// result, exhausts its restart budget, or hits a permanent failure.
type Coordinator struct {
	cfg        Config
	stopping   atomic.Bool
	chaosFired atomic.Bool
	restarts   atomic.Int32

	mu    sync.Mutex
	procs []*workerProc
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.BinPath == "" {
		return nil, fmt.Errorf("cluster: BinPath required")
	}
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("cluster: Workers must be >= 2, got %d", cfg.Workers)
	}
	if !serve.ClusterSafe(cfg.Algo) {
		return nil, fmt.Errorf("cluster: algo %q is not cluster-safe (allowed: %v)", cfg.Algo, serve.ClusterAlgos())
	}
	if cfg.Chaos != nil {
		if cfg.Chaos.Worker < 0 || cfg.Chaos.Worker >= cfg.Workers {
			return nil, fmt.Errorf("cluster: chaos victim %d out of range [0,%d)", cfg.Chaos.Worker, cfg.Workers)
		}
		if cfg.Chaos.AwaitSeq > 0 && cfg.StoreDir == "" {
			return nil, fmt.Errorf("cluster: chaos AwaitSeq needs a StoreDir to watch")
		}
	}
	if cfg.StartTimeout <= 0 {
		cfg.StartTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	return &Coordinator{cfg: cfg}, nil
}

// Restarts reports how many fleet respawns have happened so far.
func (c *Coordinator) Restarts() int { return int(c.restarts.Load()) }

// Stop requests a graceful shutdown: every live worker gets SIGTERM and one
// drain budget to finish; Run then returns a WorkerError with the "drained"
// verdict (or the job's result, if it won the race).
func (c *Coordinator) Stop() {
	c.stopping.Store(true)
	c.mu.Lock()
	procs := c.procs
	c.mu.Unlock()
	for _, p := range procs {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
}

// Run executes the job to completion: spawn the fleet at epoch 1, supervise,
// and on a retryable loss (SIGKILL, stall, dead peer) respawn everything at
// the next epoch — resuming from the newest checkpoint sequence every
// surviving store holds — until the restart budget runs out. The returned
// payload is the JSON result, verified byte-identical across all workers.
func (c *Coordinator) Run() ([]byte, error) {
	epoch := uint32(1)
	for {
		payload, failure := c.runEpoch(epoch)
		if failure == nil {
			return payload, nil
		}
		if c.stopping.Load() || !retryableVerdict(failure.Verdict) {
			return nil, failure
		}
		n := c.restarts.Add(1)
		if int(n) > c.cfg.MaxRestarts {
			return nil, failure
		}
		// Exponential backoff before the respawn, capped: a crash loop must
		// not hammer the machine, but a one-shot chaos kill should recover
		// fast.
		backoff := 50 * time.Millisecond << uint(n-1)
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
		time.Sleep(backoff)
		epoch++
	}
}

// workerProc is one spawned worker process plus its control streams.
type workerProc struct {
	id      int
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdinMu sync.Mutex
}

// send writes one control message to the worker's stdin.
func (p *workerProc) send(m *Message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	p.stdinMu.Lock()
	defer p.stdinMu.Unlock()
	_, err = p.stdin.Write(append(b, '\n'))
	return err
}

// event is one supervision observation from a worker.
type event struct {
	worker   int
	msg      *Message // register/result/fail line, nil for process events
	exited   bool
	exitCode int // -1 when killed by signal
	signaled bool
	stalled  bool // /proc state T: SIGSTOPed but not dead
}

// runEpoch spawns the whole fleet once and supervises it to a terminal
// outcome: (payload, nil) on verified success, (nil, failure) otherwise.
func (c *Coordinator) runEpoch(epoch uint32) ([]byte, *WorkerError) {
	m := c.cfg.Workers
	graphJSON, err := json.Marshal(c.cfg.Graph)
	if err != nil {
		return nil, &WorkerError{Worker: -1, ExitCode: -1, Verdict: VerdictConfig, Err: err}
	}
	paramsJSON, err := json.Marshal(c.cfg.Params)
	if err != nil {
		return nil, &WorkerError{Worker: -1, ExitCode: -1, Verdict: VerdictConfig, Err: err}
	}

	events := make(chan event, 4*m)
	procs := make([]*workerProc, m)
	for i := 0; i < m; i++ {
		args := []string{"worker",
			"-worker", strconv.Itoa(i),
			"-workers", strconv.Itoa(m),
			"-epoch", strconv.FormatUint(uint64(epoch), 10),
			"-graph", string(graphJSON),
			"-algo", c.cfg.Algo,
			"-params", string(paramsJSON),
			"-drain-timeout", c.cfg.DrainTimeout.String(),
		}
		if c.cfg.StoreDir != "" {
			args = append(args, "-store", c.cfg.StoreDir)
		}
		if c.cfg.CheckpointEvery > 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(c.cfg.CheckpointEvery))
		}
		cmd := exec.Command(c.cfg.BinPath, args...)
		cmd.Stderr = c.cfg.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			c.killAll(procs[:i])
			return nil, &WorkerError{Worker: i, ExitCode: -1, Verdict: VerdictProtocol, Err: err}
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			c.killAll(procs[:i])
			return nil, &WorkerError{Worker: i, ExitCode: -1, Verdict: VerdictProtocol, Err: err}
		}
		if err := cmd.Start(); err != nil {
			c.killAll(procs[:i])
			return nil, &WorkerError{Worker: i, ExitCode: -1, Verdict: VerdictProtocol, Err: err}
		}
		p := &workerProc{id: i, cmd: cmd, stdin: stdin}
		procs[i] = p
		go readWorker(p, stdout, events)
	}
	c.mu.Lock()
	c.procs = procs
	c.mu.Unlock()

	done := make(chan struct{})
	defer close(done)
	if runtime.GOOS == "linux" {
		go c.monitorStalls(procs, events, done)
	}

	// exitsSeen counts every process exit observed so far (clean or not), so
	// abort knows how many reap events are still owed.
	exitsSeen := 0

	// Phase 1: registration. Every worker reports its mesh address and the
	// newest checkpoint sequence its store holds.
	addrs := make([]string, m)
	latest := make([]uint64, m)
	registered := 0
	deadline := time.NewTimer(c.cfg.StartTimeout)
	defer deadline.Stop()
	for registered < m {
		select {
		case ev := <-events:
			if ev.exited {
				exitsSeen++
			}
			if ev.msg != nil && ev.msg.Type == MsgRegister {
				if ev.msg.Addr == "" {
					return nil, c.abort(procs, events, m-exitsSeen, &WorkerError{Worker: ev.worker, ExitCode: -1, Verdict: VerdictProtocol,
						Err: fmt.Errorf("register without mesh address")})
				}
				addrs[ev.worker] = ev.msg.Addr
				latest[ev.worker] = ev.msg.LatestSeq
				registered++
				continue
			}
			if fe := c.classify(ev); fe != nil {
				return nil, c.abort(procs, events, m-exitsSeen, fe)
			}
		case <-deadline.C:
			return nil, c.abort(procs, events, m-exitsSeen, &WorkerError{Worker: -1, ExitCode: -1, Verdict: VerdictRegisterTimeout,
				Err: fmt.Errorf("only %d/%d workers registered within %v", registered, m, c.cfg.StartTimeout)})
		}
	}

	// Resume point: the newest sequence EVERY store holds. Stores keep their
	// last two images and the fleet's cadence keeps them within one sequence
	// of each other, so the minimum is durable everywhere.
	resumeSeq := uint64(0)
	if c.cfg.StoreDir != "" {
		resumeSeq = latest[0]
		for _, s := range latest[1:] {
			if s < resumeSeq {
				resumeSeq = s
			}
		}
	}
	start := &Message{Type: MsgStart, Peers: addrs, ResumeSeq: resumeSeq}
	for _, p := range procs {
		if err := p.send(start); err != nil {
			return nil, c.abort(procs, events, m-exitsSeen, &WorkerError{Worker: p.id, ExitCode: -1, Verdict: VerdictProtocol, Err: err})
		}
	}

	if c.cfg.Chaos != nil && !c.chaosFired.Load() {
		go c.runChaos(procs[c.cfg.Chaos.Worker], done)
	}

	// Phase 2: supervise to completion. Success needs all m results AND all
	// m clean exits; the first abnormal observation aborts the epoch.
	results := make([][]byte, m)
	failMsgs := make([]string, m)
	cleanExits := 0
	for cleanExits < m {
		ev := <-events
		if ev.exited {
			exitsSeen++
		}
		switch {
		case ev.msg != nil && ev.msg.Type == MsgResult:
			results[ev.worker] = ev.msg.Result
			continue
		case ev.msg != nil && ev.msg.Type == MsgFail:
			failMsgs[ev.worker] = ev.msg.Error
			continue
		case ev.msg != nil:
			continue
		case ev.exited && !ev.signaled && ev.exitCode == ExitOK:
			cleanExits++
			continue
		}
		fe := c.classify(ev)
		if fe == nil {
			fe = &WorkerError{Worker: ev.worker, ExitCode: ev.exitCode, Verdict: VerdictKilled}
		}
		if failMsgs[ev.worker] != "" && fe.Err == nil {
			fe.Err = fmt.Errorf("%s", failMsgs[ev.worker])
		}
		return nil, c.abort(procs, events, m-exitsSeen, fe)
	}
	for i, r := range results {
		if r == nil {
			return nil, c.abort(procs, events, m-exitsSeen, &WorkerError{Worker: i, ExitCode: ExitOK, Verdict: VerdictProtocol,
				Err: fmt.Errorf("clean exit without a result payload")})
		}
		if !bytes.Equal(r, results[0]) {
			return nil, &WorkerError{Worker: i, ExitCode: ExitOK, Verdict: VerdictDiverged,
				Err: fmt.Errorf("result differs from worker 0 (%d vs %d bytes)", len(r), len(results[0]))}
		}
	}
	return results[0], nil
}

// classify turns an abnormal observation into a verdict, or nil for events
// that are not failures.
func (c *Coordinator) classify(ev event) *WorkerError {
	switch {
	case ev.stalled:
		return &WorkerError{Worker: ev.worker, ExitCode: -1, Verdict: VerdictStalled}
	case ev.exited && ev.signaled:
		return &WorkerError{Worker: ev.worker, ExitCode: -1, Verdict: VerdictKilled}
	case ev.exited && ev.exitCode != ExitOK:
		return &WorkerError{Worker: ev.worker, ExitCode: ev.exitCode, Verdict: verdictForExit(ev.exitCode)}
	}
	return nil
}

// abort SIGKILLs the whole fleet and reaps every not-yet-exited process
// before returning the failure, so the next epoch never races a half-dead
// predecessor for sockets or store files. owed is how many exit events are
// still outstanding (total spawned minus exits already observed).
func (c *Coordinator) abort(procs []*workerProc, events chan event, owed int, fe *WorkerError) *WorkerError {
	c.killAll(procs)
	reaped := 0
	timeout := time.After(10 * time.Second)
	for reaped < owed {
		select {
		case ev := <-events:
			if ev.exited {
				reaped++
			}
		case <-timeout:
			return fe
		}
	}
	return fe
}

// killAll SIGKILLs every spawned process. SIGKILL also reaps SIGSTOPed
// victims: a stopped process cannot block a kill.
func (c *Coordinator) killAll(procs []*workerProc) {
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
}

// readWorker owns one worker's stdout: it forwards control lines as events,
// then reaps the process and reports its exit.
func readWorker(p *workerProc, stdout io.Reader, events chan<- event) {
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), maxControlLine)
	for sc.Scan() {
		m, err := ParseMessage(sc.Bytes())
		if err != nil {
			continue // garbage on stdout is not fatal; the exit code is the truth
		}
		events <- event{worker: p.id, msg: m}
	}
	err := p.cmd.Wait()
	ev := event{worker: p.id, exited: true, exitCode: 0}
	if err != nil {
		var xe *exec.ExitError
		if ok := errors.As(err, &xe); ok {
			ev.exitCode = xe.ExitCode()
			if ws, ok := xe.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				ev.signaled = true
				ev.exitCode = -1
			}
		} else {
			ev.exitCode = -1
		}
	}
	events <- ev
}

// monitorStalls watches /proc/<pid>/stat for the 'T' (stopped) state — the
// signature of a SIGSTOPed worker, which never exits and never drains, so
// the process table is the only place the truth is visible.
func (c *Coordinator) monitorStalls(procs []*workerProc, events chan<- event, done <-chan struct{}) {
	reported := make([]bool, len(procs))
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			for i, p := range procs {
				if p == nil || reported[i] || p.cmd.Process == nil {
					continue
				}
				if procState(p.cmd.Process.Pid) == 'T' {
					reported[i] = true
					select {
					case events <- event{worker: i, stalled: true}:
					case <-done:
						return
					}
				}
			}
		}
	}
}

// procState reads the single-character process state from /proc/<pid>/stat
// (field 3, after the parenthesized comm). Returns 0 when unreadable.
func procState(pid int) byte {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 || i+2 >= len(b) {
		return 0
	}
	return b[i+2]
}
