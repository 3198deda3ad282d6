// Package cluster promotes FLASH workers from goroutines to separate OS
// processes. A Coordinator spawns one `flashd worker` subprocess per worker,
// wires them into a TCP mesh (comm.ListenTCPCluster), supervises their
// liveness, and restarts the whole fleet from the durable per-worker stores
// (core.WorkerStore) when a process is lost. The control plane is a
// line-oriented JSON protocol over each worker's stdin/stdout — deliberately
// boring, because the data plane (the worker mesh) is where the throughput
// is, and because a half-dead worker must never be able to wedge the
// coordinator with a partial binary frame.
package cluster

import (
	"encoding/json"
	"fmt"
)

// Worker process exit codes. The coordinator maps these onto restart
// decisions: mesh-failure codes (peer-stalled, protocol) and signal deaths
// are retryable under the restart budget; config and run errors are
// deterministic and terminate the job immediately. Code 3 is retired.
const (
	ExitOK          = 0 // result delivered, clean shutdown
	ExitConfig      = 2 // bad flags, graph spec, algo, or store — retry cannot help
	ExitPeerStalled = 4 // a peer went silent past the drain timeout, or the link to it broke
	ExitDrained     = 5 // SIGTERM received, drained, and shut down on request
	ExitRunError    = 6 // the algorithm itself failed — deterministic, no retry
	ExitProtocol    = 7 // coordinator control channel broken or peer mesh unreachable
)

// Message is one line of the coordinator<->worker control protocol. A single
// struct covers every message type; Type selects which fields are meaningful.
//
//	worker -> coordinator:  register {worker, epoch, addr, latest_seq}
//	coordinator -> worker:  start {peers, resume_seq}
//	worker -> coordinator:  result {result}
//	worker -> coordinator:  fail {error}
//	coordinator -> worker:  chaos {fault}   (test-only fault injection)
type Message struct {
	Type      string          `json:"type"`
	Worker    int             `json:"worker,omitempty"`
	Epoch     uint32          `json:"epoch,omitempty"`
	Addr      string          `json:"addr,omitempty"`
	LatestSeq uint64          `json:"latest_seq,omitempty"`
	Peers     []string        `json:"peers,omitempty"`
	ResumeSeq uint64          `json:"resume_seq,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Fault     string          `json:"fault,omitempty"`
}

// Message type tags.
const (
	MsgRegister = "register"
	MsgStart    = "start"
	MsgResult   = "result"
	MsgFail     = "fail"
	MsgChaos    = "chaos"
)

// maxControlLine bounds one control-protocol line. Result payloads are JSON
// arrays over the whole vertex set, so the bound is generous; anything past
// it is a hostile or corrupt writer, not a real worker.
const maxControlLine = 64 << 20

// ParseMessage decodes one control line. It is the fuzz surface of the
// control plane: any input must produce a typed error, never a panic, and
// unknown fields are rejected so a confused peer speaking a future protocol
// version fails loudly at the first line.
func ParseMessage(line []byte) (*Message, error) {
	if len(line) == 0 {
		return nil, &ProtocolError{Reason: "empty control line"}
	}
	if len(line) > maxControlLine {
		return nil, &ProtocolError{Reason: fmt.Sprintf("control line of %d bytes exceeds limit %d", len(line), maxControlLine)}
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, &ProtocolError{Reason: "malformed JSON: " + err.Error()}
	}
	switch m.Type {
	case MsgRegister, MsgStart, MsgResult, MsgFail, MsgChaos:
	case "":
		return nil, &ProtocolError{Reason: "missing message type"}
	default:
		return nil, &ProtocolError{Reason: fmt.Sprintf("unknown message type %q", m.Type)}
	}
	return &m, nil
}

// ProtocolError reports a malformed or out-of-order control-plane message.
type ProtocolError struct {
	Reason string
}

func (e *ProtocolError) Error() string { return "cluster: protocol: " + e.Reason }

// WorkerError attributes a cluster job failure to one worker process. It is
// the coordinator's verdict: ExitCode is the process's exit status (-1 when
// it died by signal or never exited), Verdict the classified cause.
type WorkerError struct {
	Worker   int
	ExitCode int
	Verdict  string // "killed", "stalled", "peer-stalled", "config", "run-error", "protocol", "drained", "diverged", "register-timeout"
	Err      error
}

func (e *WorkerError) Error() string {
	s := fmt.Sprintf("cluster: worker %d %s (exit code %d)", e.Worker, e.Verdict, e.ExitCode)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Verdicts the coordinator assigns. Retryable verdicts trigger a
// restart-all at the next epoch (under the MaxRestarts budget); the rest
// terminate the job.
const (
	VerdictKilled          = "killed"       // died by signal (SIGKILL chaos, OOM)
	VerdictStalled         = "stalled"      // process alive but stopped (SIGSTOP: /proc state T)
	VerdictPeerStalled     = "peer-stalled" // worker reported a stalled peer
	VerdictConfig          = "config"       // bad configuration — permanent
	VerdictRunError        = "run-error"    // algorithm failure — permanent
	VerdictProtocol        = "protocol"     // control channel broken
	VerdictDrained         = "drained"      // clean SIGTERM drain (coordinator Stop)
	VerdictDiverged        = "diverged"     // replicated results not byte-identical — permanent
	VerdictRegisterTimeout = "register-timeout"
)

// retryableVerdict reports whether the coordinator should respawn the fleet
// after this failure. Deterministic failures (config, run-error, diverged)
// would fail identically on every retry; a drain is a requested shutdown.
func retryableVerdict(v string) bool {
	switch v {
	case VerdictKilled, VerdictStalled, VerdictPeerStalled,
		VerdictProtocol, VerdictRegisterTimeout:
		return true
	}
	return false
}

// verdictForExit classifies a worker's own exit code.
func verdictForExit(code int) string {
	switch code {
	case ExitConfig:
		return VerdictConfig
	case ExitPeerStalled:
		return VerdictPeerStalled
	case ExitDrained:
		return VerdictDrained
	case ExitRunError:
		return VerdictRunError
	case ExitProtocol:
		return VerdictProtocol
	}
	return VerdictKilled
}
