package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// mkCluster builds m cluster endpoints on loopback and completes the mesh.
func mkCluster(t *testing.T, m int, epoch uint32) []*TCP {
	t.Helper()
	eps := make([]*TCP, m)
	addrs := make([]string, m)
	for i := 0; i < m; i++ {
		ep, err := ListenTCPCluster(ClusterConfig{Workers: m, Self: i, Listen: "127.0.0.1:0", Epoch: epoch})
		if err != nil {
			t.Fatalf("listen endpoint %d: %v", i, err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
		t.Cleanup(func() { ep.Close() })
	}
	var wg sync.WaitGroup
	errs := make(chan error, m)
	for i := 0; i < m; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eps[i].ConnectPeers(addrs, 10*time.Second); err != nil {
				errs <- fmt.Errorf("endpoint %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return eps
}

// clusterRounds drives each endpoint through `rounds` full send/drain rounds
// from its resident worker, verifying every peer's frame arrives.
func clusterRounds(t *testing.T, eps []*TCP, rounds int) {
	t.Helper()
	m := len(eps)
	var wg sync.WaitGroup
	errs := make(chan error, m)
	for _, ep := range eps {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := ep.Self()
			for r := 0; r < rounds; r++ {
				for to := 0; to < m; to++ {
					if err := ep.Send(w, to, []byte(fmt.Sprintf("r%d:w%d", r, w))); err != nil {
						errs <- fmt.Errorf("worker %d send: %w", w, err)
						return
					}
				}
				if err := ep.EndRound(w); err != nil {
					errs <- fmt.Errorf("worker %d endround: %w", w, err)
					return
				}
				got := map[string]int{}
				if err := ep.Drain(w, func(from int, data []byte) {
					got[string(data)]++
				}); err != nil {
					errs <- fmt.Errorf("worker %d drain: %w", w, err)
					return
				}
				for from := 0; from < m; from++ {
					key := fmt.Sprintf("r%d:w%d", r, from)
					if got[key] != 1 {
						errs <- fmt.Errorf("worker %d round %d: frame %q count %d (have %v)", w, r, key, got[key], got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterMeshRounds verifies three cross-endpoint transports form a mesh
// and complete bulk-synchronous rounds with per-peer delivery.
func TestClusterMeshRounds(t *testing.T) {
	eps := mkCluster(t, 3, 7)
	for _, ep := range eps {
		ep.SetDrainTimeout(10 * time.Second)
	}
	clusterRounds(t, eps, 3)
}

// TestClusterStaleEpochRejected verifies a peer handshaking with an old
// membership epoch is rejected with a typed HandshakeError and cannot join
// the mesh, while a fresh-epoch connection on the same listener succeeds.
func TestClusterStaleEpochRejected(t *testing.T) {
	ep, err := ListenTCPCluster(ClusterConfig{Workers: 2, Self: 0, Listen: "127.0.0.1:0", Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	stale, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	if _, err := stale.Write(EncodeHello(1, 2)); err != nil { // epoch 2 < 3
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	var diag error
	select {
	case diag = <-ep.Err():
	case <-deadline:
		t.Fatal("no rejection diagnostic for stale epoch")
	}
	var he *HandshakeError
	if !errors.As(diag, &he) {
		t.Fatalf("diagnostic %v, want HandshakeError", diag)
	}
	if he.Worker != 1 || he.Epoch != 2 {
		t.Fatalf("HandshakeError{Worker:%d, Epoch:%d}, want {1, 2}", he.Worker, he.Epoch)
	}

	// A garbage hello is also rejected without panicking the accept loop.
	junk, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if _, err := junk.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case diag = <-ep.Err():
	case <-time.After(5 * time.Second):
		t.Fatal("no rejection diagnostic for garbage hello")
	}
	if !errors.As(diag, &he) {
		t.Fatalf("diagnostic %v, want HandshakeError", diag)
	}

	// The genuine peer still joins.
	peer, err := ListenTCPCluster(ClusterConfig{Workers: 2, Self: 1, Listen: "127.0.0.1:0", Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	addrs := []string{ep.Addr(), peer.Addr()}
	done := make(chan error, 2)
	go func() { done <- ep.ConnectPeers(addrs, 10*time.Second) }()
	go func() { done <- peer.ConnectPeers(addrs, 10*time.Second) }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("ConnectPeers: %v", err)
		}
	}
	clusterRounds(t, []*TCP{ep, peer}, 1)
}

// waitConn polls a pair socket until its liveness matches want (the accept
// and read loops install/drop sockets asynchronously).
func waitConn(t *testing.T, tc *tcpConn, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		tc.mu.Lock()
		live := tc.c != nil
		tc.mu.Unlock()
		if live == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair socket live=%v, want %v", live, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterDropPeersFailsRound partitions one endpoint (every peer socket
// severed) while each side has a data frame buffered. Those frames die with
// their sockets, so both endpoints' rounds must fail with ErrConnDropped:
// the mesh is never repaired into a round that is missing a frame.
func TestClusterDropPeersFailsRound(t *testing.T) {
	eps := mkCluster(t, 2, 1)
	for _, ep := range eps {
		ep.SetDrainTimeout(10 * time.Second)
	}
	clusterRounds(t, eps, 1)
	for i, ep := range eps {
		if err := ep.Send(i, 1-i, []byte(fmt.Sprintf("h:w%d", i))); err != nil {
			t.Fatalf("worker %d buffered send: %v", i, err)
		}
	}
	eps[1].DropPeers()
	// The victim's close reaches endpoint 0's read loop as an EOF, which
	// drops the paired write side so it cannot write into a FIN'd socket.
	waitConn(t, eps[0].conns[0][1], false)
	for i, ep := range eps {
		if err := ep.EndRound(i); !errors.Is(err, ErrConnDropped) {
			t.Fatalf("worker %d endround after partition: err=%v, want ErrConnDropped", i, err)
		}
	}
}

// TestClusterDialInjection verifies the per-endpoint dialer hook: with dials
// failing, ConnectPeers reports the failure instead of hanging.
func TestClusterDialInjection(t *testing.T) {
	lower, err := ListenTCPCluster(ClusterConfig{Workers: 2, Self: 0, Listen: "127.0.0.1:0", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lower.Close()
	upper, err := ListenTCPCluster(ClusterConfig{Workers: 2, Self: 1, Listen: "127.0.0.1:0", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer upper.Close()
	upper.SetDial(func(network, addr string) (net.Conn, error) {
		return nil, fmt.Errorf("injected dial failure")
	})
	err = upper.ConnectPeers([]string{lower.Addr(), upper.Addr()}, 300*time.Millisecond)
	if err == nil {
		t.Fatal("ConnectPeers succeeded despite failing dialer")
	}
}
