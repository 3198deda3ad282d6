package serve

import (
	"fmt"
	"sort"
	"sync"

	"flash"
	"flash/graph"
)

// GraphSpec describes one graph to load into the catalog: either an
// edge-list file (Path) or a named deterministic generator. Weighted wraps
// the result with seeded random edge weights so weighted algorithms (sssp,
// msf) can be served over it.
type GraphSpec struct {
	Name     string `json:"name"`
	Path     string `json:"path,omitempty"`
	Gen      string `json:"gen,omitempty"`
	N        int    `json:"n,omitempty"`
	M        int    `json:"m,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	Cols     int    `json:"cols,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Directed bool   `json:"directed,omitempty"`
	Weighted bool   `json:"weighted,omitempty"`
}

// GraphInfo is one catalog listing entry: identity, shape, and the memory
// accounting that makes sharing visible — GraphBytes + SharedBytes are paid
// once per graph, while each job pays only its own engine StateBytes.
type GraphInfo struct {
	Name        string `json:"name"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Directed    bool   `json:"directed"`
	Weighted    bool   `json:"weighted"`
	GraphBytes  uint64 `json:"graph_bytes"`
	SharedBytes uint64 `json:"shared_bytes"`
	Partitions  int    `json:"partitions"`
	// Ooc marks a graph served out-of-core from a FLASHBLK file: GraphBytes
	// then covers only the resident skeleton, not the on-disk adjacency.
	Ooc bool `json:"ooc,omitempty"`
}

// Catalog is the server's set of loaded graphs: name → shared immutable
// handle. Safe for concurrent use. Evicting a graph removes it from the
// catalog immediately; jobs already admitted keep their handle (and the
// memory) alive until they finish, while new submissions get
// UnknownGraphError.
type Catalog struct {
	mu     sync.Mutex
	graphs map[string]*flash.GraphHandle
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{graphs: make(map[string]*flash.GraphHandle)}
}

// Load builds the graph described by spec and adds it under spec.Name. A
// Path pointing at a FLASHBLK file is served out-of-core: the catalog keeps
// only the topology skeleton and block index resident, and every job over the
// graph adopts the block backend through the shared handle.
func (c *Catalog) Load(spec GraphSpec) (*flash.GraphHandle, error) {
	if spec.Name == "" {
		return nil, &RequestError{Field: "name", Reason: "missing"}
	}
	if spec.Path != "" && graph.IsBlockFile(spec.Path) {
		bg, err := graph.OpenBlockFile(spec.Path)
		if err != nil {
			return nil, &RequestError{Field: "path", Reason: err.Error()}
		}
		if spec.Weighted && !bg.Weighted() {
			bg.Close()
			return nil, &RequestError{Field: "weighted", Reason: "block file stores no weights (re-encode it from a weighted graph)"}
		}
		h, err := c.add(spec.Name, flash.NewBlockGraphHandle(bg))
		if err != nil {
			bg.Close()
		}
		return h, err
	}
	g, err := BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	return c.Add(spec.Name, g)
}

// Add registers an already-built graph under name (embedding callers and
// tests use it directly; Load goes through it too).
func (c *Catalog) Add(name string, g *graph.Graph) (*flash.GraphHandle, error) {
	return c.add(name, flash.NewGraphHandle(g))
}

func (c *Catalog) add(name string, h *flash.GraphHandle) (*flash.GraphHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.graphs[name]; ok {
		return nil, &DuplicateGraphError{Graph: name}
	}
	c.graphs[name] = h
	return h, nil
}

// Get returns the handle for name.
func (c *Catalog) Get(name string) (*flash.GraphHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.graphs[name]
	if !ok {
		return nil, &UnknownGraphError{Graph: name}
	}
	return h, nil
}

// Evict removes name from the catalog. In-flight jobs holding the handle
// finish normally; the immutable state is reclaimed when the last of them
// completes.
func (c *Catalog) Evict(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.graphs[name]; !ok {
		return &UnknownGraphError{Graph: name}
	}
	delete(c.graphs, name)
	return nil
}

// List returns the catalog entries sorted by name.
func (c *Catalog) List() []GraphInfo {
	c.mu.Lock()
	names := make([]string, 0, len(c.graphs))
	handles := make([]*flash.GraphHandle, 0, len(c.graphs))
	for name, h := range c.graphs {
		names = append(names, name)
		handles = append(handles, h)
	}
	c.mu.Unlock()
	infos := make([]GraphInfo, len(names))
	for i, h := range handles {
		g := h.Graph()
		infos[i] = GraphInfo{
			Name:        names[i],
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			Directed:    g.Directed(),
			Weighted:    g.Weighted(),
			GraphBytes:  h.GraphBytes(),
			SharedBytes: h.SharedBytes(),
			Partitions:  h.Partitions(),
			Ooc:         h.Block() != nil,
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Bytes returns the catalog-wide immutable footprint: total CSR bytes and
// total partition-cache bytes across all loaded graphs. This is the "paid
// once" side of the memory model the catalog accounting test pins down.
func (c *Catalog) Bytes() (graphBytes, sharedBytes uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.graphs {
		graphBytes += h.GraphBytes()
		sharedBytes += h.SharedBytes()
	}
	return graphBytes, sharedBytes
}

// BuildGraph materializes a GraphSpec: the one generator table, which the
// catalog, flashrun and graphgen all build through. Exported so tests can
// rebuild the exact graph a server loaded.
func BuildGraph(spec GraphSpec) (*graph.Graph, error) {
	var g *graph.Graph
	switch {
	case spec.Path != "":
		var err error
		g, err = graph.LoadEdgeListFile(spec.Path, graph.LoadOptions{Directed: spec.Directed})
		if err != nil {
			return nil, &RequestError{Field: "path", Reason: err.Error()}
		}
	default:
		n, m := spec.N, spec.M
		if n <= 0 {
			return nil, &RequestError{Field: "n", Reason: fmt.Sprintf("must be positive, got %d", n)}
		}
		switch spec.Gen {
		case "rmat":
			g = graph.GenRMAT(n, m, spec.Seed)
		case "er":
			g = graph.GenErdosRenyi(n, m, spec.Seed)
		case "web":
			g = graph.GenWeb(n, m/n+1, 32, spec.Seed)
		case "grid":
			rows, cols := spec.Rows, spec.Cols
			if rows <= 0 || cols <= 0 {
				return nil, &RequestError{Field: "rows", Reason: "grid needs positive rows and cols"}
			}
			g = graph.GenGrid(rows, cols, 0, spec.Seed)
		case "path":
			g = graph.GenPath(n)
		case "cycle":
			g = graph.GenCycle(n)
		case "star":
			g = graph.GenStar(n)
		case "tree":
			g = graph.GenTree(n, spec.Seed)
		case "randdir":
			g = graph.GenRandomDirected(n, m, spec.Seed)
		case "":
			return nil, &RequestError{Field: "gen", Reason: "missing (or supply path)"}
		default:
			return nil, &RequestError{Field: "gen", Reason: fmt.Sprintf("unknown generator %q", spec.Gen)}
		}
	}
	if spec.Weighted && !g.Weighted() {
		g = graph.WithRandomWeights(g, spec.Seed)
	}
	return g, nil
}
