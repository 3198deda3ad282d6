package comm

import (
	"fmt"
	"net"
	"time"
)

// Mesh-formation dial backoff: peers are spawned concurrently, so a lower
// peer's listener may not be up yet on the first attempts.
const (
	tcpBackoffBase = time.Millisecond
	tcpBackoffCap  = 50 * time.Millisecond
)

// ClusterConfig configures one endpoint of a cross-process TCP mesh.
type ClusterConfig struct {
	// Workers is the total mesh size m.
	Workers int
	// Self is the resident worker id this process computes for.
	Self int
	// Listen is the address to bind the endpoint's listener on
	// (e.g. "127.0.0.1:0"); the bound address is advertised to peers by the
	// coordinator.
	Listen string
	// Epoch is the coordinator-assigned membership epoch. It is stamped into
	// every handshake and data frame; peers from a previous incarnation are
	// rejected at handshake, and their in-flight frames are discarded by
	// Drain's epoch check.
	Epoch uint32
}

// ListenTCPCluster opens one endpoint of a cross-process worker mesh: it
// binds the listener and starts accepting peer connections, but does not
// dial anyone. The mesh becomes usable after ConnectPeers completes the
// pairwise handshakes. Unlike NewTCP's in-process full mesh, the transport
// owns only the resident worker's row of sockets; Send/EndRound/Drain must
// be called with from == to == cfg.Self (other rows have no endpoint here —
// they live in the peer processes).
func ListenTCPCluster(cfg ClusterConfig) (*TCP, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("comm: cluster of %d workers", cfg.Workers)
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Workers {
		return nil, fmt.Errorf("comm: cluster self %d out of range [0,%d)", cfg.Self, cfg.Workers)
	}
	t := &TCP{
		m:         cfg.Workers,
		self:      cfg.Self,
		hub:       NewMem(cfg.Workers),
		dial:      defaultDial,
		errs:      make(chan error, 64),
		meshPeers: make(chan int, 4*cfg.Workers),
	}
	t.hub.epoch.Store(cfg.Epoch)
	t.helloEpoch.Store(cfg.Epoch)
	t.conns = make([][]*tcpConn, cfg.Workers)
	t.conns[cfg.Self] = make([]*tcpConn, cfg.Workers)
	for p := 0; p < cfg.Workers; p++ {
		if p != cfg.Self {
			t.conns[cfg.Self][p] = &tcpConn{}
		}
	}
	t.lns = make([]net.Listener, cfg.Workers)
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("comm: cluster listen %s: %w", cfg.Listen, err)
	}
	t.lns[cfg.Self] = ln
	t.ioWG.Add(1)
	go func() {
		defer t.ioWG.Done()
		t.acceptLoop(cfg.Self, nil)
	}()
	return t, nil
}

// Addr returns the endpoint's bound listen address ("" for an in-process
// transport).
func (t *TCP) Addr() string {
	if t.self >= 0 && t.lns[t.self] != nil {
		return t.lns[t.self].Addr().String()
	}
	return ""
}

// Self returns the resident worker id, or -1 for an in-process full mesh.
func (t *TCP) Self() int { return t.self }

// ConnectPeers completes the cluster mesh. addrs[i] is peer i's advertised
// listen address (addrs[self] is ignored). Following the same pairing rule
// as the in-process mesh — the higher id dials the lower — the endpoint
// dials every peer below self with retry/backoff until the deadline, and
// waits for every peer above self to dial in. Hostile or stale connections
// arriving meanwhile are rejected by the handshake without failing the wait.
func (t *TCP) ConnectPeers(addrs []string, timeout time.Duration) error {
	if t.self < 0 {
		return fmt.Errorf("comm: ConnectPeers on an in-process transport")
	}
	if len(addrs) != t.m {
		return fmt.Errorf("comm: ConnectPeers got %d addresses for a mesh of %d", len(addrs), t.m)
	}
	deadline := time.Now().Add(timeout)
	for p := 0; p < t.self; p++ {
		if err := t.clusterDial(p, addrs[p], deadline); err != nil {
			return err
		}
	}
	want := t.m - t.self - 1
	seen := make(map[int]bool, want)
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(seen) < want {
		select {
		case p := <-t.meshPeers:
			if p > t.self {
				seen[p] = true
			}
		case <-timer.C:
			return fmt.Errorf("comm: cluster handshake timeout: %d/%d upper peers connected to worker %d", len(seen), want, t.self)
		}
	}
	t.setupDone.Store(true)
	return nil
}

// clusterDial establishes the socket to peer p (p < self) at addr with
// capped exponential backoff until the deadline.
func (t *TCP) clusterDial(p int, addr string, deadline time.Time) error {
	backoff := tcpBackoffBase
	for {
		c, err := t.dial("tcp", addr)
		if err == nil {
			if _, werr := c.Write(t.hello(t.self)); werr != nil {
				c.Close()
				err = werr
			}
		}
		if err == nil {
			t.conns[t.self][p].replace(c)
			t.startReadLoop(t.self, p, c)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: cluster dial worker %d (%s): %w", p, addr, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > tcpBackoffCap {
			backoff = tcpBackoffCap
		}
	}
}

// DropPeers severs every live peer socket without closing the transport or
// the listener — the process-level network-partition fault. Nothing heals
// the mesh: this endpoint's next write fails with ErrConnDropped, and each
// peer's fails once its read loop has seen the close, so the round fails on
// both sides and the coordinator restarts the fleet from its checkpoints.
func (t *TCP) DropPeers() {
	if t.self < 0 {
		return
	}
	for _, tc := range t.conns[t.self] {
		if tc != nil {
			tc.drop()
		}
	}
}
