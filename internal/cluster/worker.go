package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flash"
	"flash/internal/comm"
	"flash/internal/serve"
)

// workerConfig is the parsed flag set of one `flashd worker` process.
type workerConfig struct {
	worker          int
	workers         int
	epoch           uint
	listen          string
	graphJSON       string
	algo            string
	paramsJSON      string
	storeDir        string
	checkpointEvery int
	connectTimeout  time.Duration
	drainTimeout    time.Duration
}

// WorkerMain is the entry point of the `flashd worker` subcommand: one
// resident worker of a multi-process cluster job. It builds the same graph
// as every peer (the spec is deterministic), listens on a cluster mesh
// endpoint, registers with the coordinator over stdout, waits for the start
// message carrying the full peer address list and the resume sequence,
// connects the mesh, and runs the algorithm under the SPMD cluster engine.
// The return value is the process exit code (see the Exit* constants).
func WorkerMain(args []string) int {
	fs := flag.NewFlagSet("flashd worker", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	cfg := workerConfig{}
	fs.IntVar(&cfg.worker, "worker", -1, "resident worker id in [0,workers)")
	fs.IntVar(&cfg.workers, "workers", 0, "total cluster worker count")
	fs.UintVar(&cfg.epoch, "epoch", 1, "membership epoch stamped on handshake frames")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "mesh listen address")
	fs.StringVar(&cfg.graphJSON, "graph", "", "graph spec (serve.GraphSpec JSON)")
	fs.StringVar(&cfg.algo, "algo", "", "algorithm name (must be cluster-safe)")
	fs.StringVar(&cfg.paramsJSON, "params", "{}", "algorithm params (serve.JobParams JSON)")
	fs.StringVar(&cfg.storeDir, "store", "", "durable worker-store root directory")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 0, "checkpoint cadence in supersteps (0 = off)")
	fs.DurationVar(&cfg.connectTimeout, "connect-timeout", 10*time.Second, "mesh connect deadline")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 5*time.Second, "engine drain timeout and SIGTERM drain budget")
	if err := fs.Parse(args); err != nil {
		return ExitConfig
	}
	return runWorker(cfg, os.Stdin, os.Stdout)
}

// runWorker is WorkerMain minus the flag parsing, with the control streams
// injected so tests can drive a worker in-process.
func runWorker(cfg workerConfig, ctrlIn *os.File, ctrlOut *os.File) int {
	fail := func(code int, format string, a ...any) int {
		msg := fmt.Sprintf(format, a...)
		fmt.Fprintf(os.Stderr, "flashd worker: %s\n", msg)
		emit(ctrlOut, &Message{Type: MsgFail, Worker: cfg.worker, Error: msg})
		return code
	}
	if cfg.workers < 2 {
		return fail(ExitConfig, "-workers must be >= 2, got %d", cfg.workers)
	}
	if cfg.worker < 0 || cfg.worker >= cfg.workers {
		return fail(ExitConfig, "-worker %d out of range [0,%d)", cfg.worker, cfg.workers)
	}
	if !serve.ClusterSafe(cfg.algo) {
		return fail(ExitConfig, "algo %q is not cluster-safe (allowed: %v)", cfg.algo, serve.ClusterAlgos())
	}
	var spec serve.GraphSpec
	if err := json.Unmarshal([]byte(cfg.graphJSON), &spec); err != nil {
		return fail(ExitConfig, "-graph: %v", err)
	}
	var params serve.JobParams
	if err := json.Unmarshal([]byte(cfg.paramsJSON), &params); err != nil {
		return fail(ExitConfig, "-params: %v", err)
	}
	// Topology is owned by the cluster, not the job request: scrub any
	// engine-shape params so a stray field cannot desynchronize the fleet.
	params.Workers, params.TCP, params.ResizeAt, params.ResizeTo = nil, nil, nil, nil

	g, err := serve.BuildGraph(spec)
	if err != nil {
		return fail(ExitConfig, "build graph: %v", err)
	}

	var store *flash.WorkerStore
	if cfg.storeDir != "" {
		store, err = flash.OpenWorkerStore(cfg.storeDir, cfg.worker)
		if err != nil {
			return fail(ExitConfig, "open worker store: %v", err)
		}
		defer store.Close()
	}

	ep, err := comm.ListenTCPCluster(comm.ClusterConfig{
		Workers: cfg.workers, Self: cfg.worker, Listen: cfg.listen, Epoch: uint32(cfg.epoch),
	})
	if err != nil {
		return fail(ExitConfig, "listen mesh: %v", err)
	}
	defer ep.Close()

	reg := &Message{Type: MsgRegister, Worker: cfg.worker, Epoch: uint32(cfg.epoch), Addr: ep.Addr()}
	if store != nil {
		reg.LatestSeq = store.LatestSeq()
	}
	if err := emit(ctrlOut, reg); err != nil {
		return ExitProtocol
	}

	// Control reader: one goroutine owns stdin for the process lifetime.
	// The channel closes on EOF — mid-run that means the coordinator died.
	ctrl := make(chan *Message, 4)
	go func() {
		defer close(ctrl)
		sc := bufio.NewScanner(ctrlIn)
		sc.Buffer(make([]byte, 64*1024), maxControlLine)
		for sc.Scan() {
			m, err := ParseMessage(sc.Bytes())
			if err != nil {
				continue // a malformed control line is logged by the sender, not fatal here
			}
			ctrl <- m
		}
	}()

	var start *Message
	select {
	case m, ok := <-ctrl:
		if !ok {
			return fail(ExitProtocol, "control channel closed before start")
		}
		if m.Type != MsgStart {
			return fail(ExitProtocol, "expected start message, got %q", m.Type)
		}
		start = m
	case <-time.After(cfg.connectTimeout):
		return fail(ExitProtocol, "no start message within %v", cfg.connectTimeout)
	}
	if len(start.Peers) != cfg.workers {
		return fail(ExitProtocol, "start lists %d peers, want %d", len(start.Peers), cfg.workers)
	}
	if start.ResumeSeq > 0 && store == nil {
		return fail(ExitConfig, "start requests resume from seq %d but no -store was given", start.ResumeSeq)
	}

	if err := ep.ConnectPeers(start.Peers, cfg.connectTimeout); err != nil {
		return fail(ExitProtocol, "connect mesh: %v", err)
	}

	opts := []flash.Option{
		flash.WithWorkers(cfg.workers),
		flash.WithTransport(ep),
		flash.WithCluster(flash.ClusterSpec{Resident: cfg.worker, Store: store, ResumeSeq: start.ResumeSeq}),
		flash.WithDrainTimeout(cfg.drainTimeout),
	}
	if cfg.checkpointEvery > 0 {
		opts = append(opts, flash.WithCheckpointEvery(cfg.checkpointEvery))
	}

	type outcome struct {
		payload []byte
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		payload, err := serve.RunAlgo(cfg.algo, g, params, opts...)
		done <- outcome{payload, err}
	}()

	sigterm := make(chan os.Signal, 1)
	signal.Notify(sigterm, syscall.SIGTERM)
	defer signal.Stop(sigterm)

	for {
		select {
		case out := <-done:
			if out.err != nil {
				return fail(exitForRunError(out.err), "run: %v", out.err)
			}
			if err := emit(ctrlOut, &Message{Type: MsgResult, Worker: cfg.worker, Result: out.payload}); err != nil {
				return ExitProtocol
			}
			return ExitOK
		case m, ok := <-ctrl:
			if !ok {
				// Coordinator gone mid-run: shut the mesh so peers unblock
				// fast instead of waiting out their drain timeouts.
				ep.Close()
				return fail(ExitProtocol, "control channel closed mid-run")
			}
			if m.Type == MsgChaos && m.Fault == "partition" {
				ep.DropPeers()
			}
		case <-sigterm:
			// Graceful drain: give the in-flight run one drain budget to
			// finish, then stop regardless. The exit code tells the
			// coordinator this was a requested shutdown either way.
			select {
			case <-done:
			case <-time.After(cfg.drainTimeout):
				ep.Close()
			}
			return ExitDrained
		}
	}
}

// exitForRunError maps an engine failure onto the worker exit-code
// vocabulary, so the coordinator can distinguish "a peer or the link to it
// is slow or gone" (retryable) from "the algorithm is broken" (permanent).
// A link counts as gone when a write hits a dropped socket or a read ends
// mid-frame: bufio may flush part of a frame before the cut.
func exitForRunError(err error) int {
	for _, lost := range []error{comm.ErrPeerStalled, comm.ErrConnDropped, comm.ErrTruncated} {
		if errors.Is(err, lost) {
			return ExitPeerStalled
		}
	}
	return ExitRunError
}

// emit writes one control message as a single line on w.
func emit(w *os.File, m *Message) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
