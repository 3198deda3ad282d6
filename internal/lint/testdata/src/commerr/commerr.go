// Fixture for the commerr analyzer: fault-surface errors (transport
// Send/EndRound/Drain, Engine.Run, checkpoint-store Save/Load) must be
// checked or explicitly waived with //flash:allow commerr <reason>.
package commerr

import "commerr/graph"

type Transport struct{}

func (t *Transport) Send(from, to int, data []byte) error    { return nil }
func (t *Transport) EndRound(from int) error                 { return nil }
func (t *Transport) Drain(to int, h func(int, []byte)) error { return nil }
func (t *Transport) Resize(n int) error                      { return nil }

type Engine struct{}

func (e *Engine) Run(p func() error) (int, error) { return 0, nil }
func (e *Engine) Resize(n int) error              { return nil }

// Image stands in for core.CheckpointImage; the store stubs mirror the
// runtime's CheckpointStore fault surface.
type Image struct{}

type FileStore struct{}

func (s *FileStore) Save(img *Image) error { return nil }
func (s *FileStore) Load() (*Image, error) { return nil, nil }

type MemStore struct{}

func (s *MemStore) Save(img *Image) error { return nil }
func (s *MemStore) Load() (*Image, error) { return nil, nil }

func bad(tr *Transport, e *Engine, fs *FileStore, ms *MemStore) {
	tr.Send(0, 1, nil)    // want `Transport.Send error discarded`
	_ = tr.EndRound(0)    // want `Transport.EndRound error assigned to _`
	tr.Drain(0, nil)      // want `Transport.Drain error discarded`
	e.Run(nil)            // want `Engine.Run error discarded`
	go tr.Send(1, 0, nil) // want `Transport.Send error discarded by go statement`
	defer tr.EndRound(0)  // want `Transport.EndRound error discarded by defer`
	fs.Save(nil)          // want `FileStore.Save error discarded`
	_, _ = fs.Load()      // want `FileStore.Load error assigned to _`
	ms.Save(nil)          // want `MemStore.Save error discarded`
	defer fs.Save(nil)    // want `FileStore.Save error discarded by defer`
}

func badResize(e *Engine, tr *Transport) {
	e.Resize(8)      // want `Engine.Resize error discarded`
	_ = tr.Resize(4) // want `Transport.Resize error assigned to _`
	go e.Resize(2)   // want `Engine.Resize error discarded by go statement`
}

func goodResize(e *Engine, tr *Transport) error {
	if err := tr.Resize(8); err != nil {
		return err
	}
	e.Resize(4) //flash:allow commerr shrink back is best-effort during shutdown
	return e.Resize(2)
}

func good(tr *Transport, e *Engine, fs *FileStore, ms *MemStore) error {
	if err := tr.Send(0, 1, nil); err != nil {
		return err
	}
	tr.EndRound(0) //flash:allow commerr round already aborted, EndRound error duplicates it
	//flash:allow commerr draining a closed transport cannot fail
	_ = tr.Drain(0, nil)
	if err := fs.Save(nil); err != nil {
		return err
	}
	if _, err := ms.Load(); err != nil {
		return err
	}
	fs.Save(nil) //flash:allow commerr best-effort final snapshot during shutdown
	_, err := e.Run(nil)
	return err
}

// NotATransport shares a method name but not the fault-surface shape: its
// Send returns nothing, so there is no error to drop.
type NotATransport struct{}

func (n *NotATransport) Send(x int) {}

// Sender is a differently-named type with an error-returning Send; commerr
// matches the runtime's transport type names only, so this stays silent.
type Sender struct{}

func (s *Sender) Send(from, to int, data []byte) error { return nil }

func others(n *NotATransport, s *Sender) {
	n.Send(1)         // no diagnostic: no error result
	s.Send(0, 1, nil) // no diagnostic: not a guarded receiver type
}

// The serve-layer stubs mirror flashd's admission and catalog fault
// surfaces: a dropped Submit error loses a typed rejection (queue full,
// quota, unknown graph), a dropped Load/Evict error desynchronizes the
// catalog the jobs resolve against.
type GraphSpec struct{}

type Handle struct{}

type Job struct{}

type Catalog struct{}

func (c *Catalog) Load(spec GraphSpec) (*Handle, error) { return nil, nil }
func (c *Catalog) Evict(name string) error              { return nil }

type Server struct{}

func (s *Server) Submit(body []byte) (*Job, error) { return nil, nil }

type Scheduler struct{}

func (s *Scheduler) Submit(req *GraphSpec) (*Job, error) { return nil, nil }

func badServe(c *Catalog, srv *Server, sch *Scheduler) {
	c.Load(GraphSpec{})        // want `Catalog.Load error discarded`
	_, _ = c.Load(GraphSpec{}) // want `Catalog.Load error assigned to _`
	c.Evict("g")               // want `Catalog.Evict error discarded`
	srv.Submit(nil)            // want `Server.Submit error discarded`
	sch.Submit(nil)            // want `Scheduler.Submit error discarded`
	defer c.Evict("g")         // want `Catalog.Evict error discarded by defer`
}

func goodServe(c *Catalog, srv *Server) error {
	if _, err := c.Load(GraphSpec{}); err != nil {
		return err
	}
	c.Evict("g") //flash:allow commerr eviction during shutdown is best-effort
	_, err := srv.Submit(nil)
	return err
}

// BlockGraph stands in for graph.BlockGraph (the out-of-core read surface);
// Catalog for serve.Catalog (the graph registration surface). WriteBlockFile
// is a package-level function, matched by (package name, function name).
type BlockGraph struct{}

func (g *BlockGraph) ReadBlock(d, idx int) ([]byte, error) { return nil, nil }

func (c *Catalog) Add(name string, g *BlockGraph) error { return nil }

func badBlockIO(bg *BlockGraph, cat *Catalog) {
	bg.ReadBlock(0, 1)                    // want `BlockGraph.ReadBlock error discarded`
	_, _ = bg.ReadBlock(0, 2)             // want `BlockGraph.ReadBlock error assigned to _`
	cat.Add("g", bg)                      // want `Catalog.Add error discarded`
	graph.WriteBlockFile("p.blk", nil)    // want `graph.WriteBlockFile error discarded`
	go graph.WriteBlockFile("q.blk", nil) // want `graph.WriteBlockFile error discarded by go statement`
}

func goodBlockIO(bg *BlockGraph, cat *Catalog) error {
	blk, err := bg.ReadBlock(0, 1)
	if err != nil {
		return err
	}
	_ = blk
	if err := graph.WriteBlockFile("p.blk", nil); err != nil {
		return err
	}
	cat.Add("tmp", bg) //flash:allow commerr registration retried on next request
	return cat.Add("g", bg)
}

// TCP stands in for comm.TCP in cluster mode (ConnectPeers forms the
// cross-process mesh); Coordinator for cluster.Coordinator (Run returns the
// job verdict).
type TCP struct{}

func (t *TCP) ConnectPeers(addrs []string, timeoutNs int64) error { return nil }

type Coordinator struct{}

func (c *Coordinator) Run() ([]byte, error) { return nil, nil }
func (c *Coordinator) Restarts() int        { return 0 }

func badCluster(ep *TCP, co *Coordinator) {
	ep.ConnectPeers(nil, 0)     // want `TCP.ConnectPeers error discarded`
	_ = ep.ConnectPeers(nil, 1) // want `TCP.ConnectPeers error assigned to _`
	co.Run()                    // want `Coordinator.Run error discarded`
	_, _ = co.Run()             // want `Coordinator.Run error assigned to _`
	go co.Run()                 // want `Coordinator.Run error discarded by go statement`
}

func goodCluster(ep *TCP, co *Coordinator) ([]byte, error) {
	if err := ep.ConnectPeers(nil, 0); err != nil {
		return nil, err
	}
	_ = co.Restarts() // not a fault surface: plain counter read
	return co.Run()
}
