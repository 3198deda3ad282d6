package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flash/graph"
	"flash/internal/comm"
)

// frameRecorder wraps a transport and keeps a copy of every data frame per
// (from, to) pair, concatenated in send order.
type frameRecorder struct {
	comm.Transport
	mu     sync.Mutex
	frames map[[2]int][]byte
}

func (r *frameRecorder) Send(from, to int, data []byte) error {
	r.mu.Lock()
	k := [2]int{from, to}
	r.frames[k] = append(r.frames[k], data...)
	r.mu.Unlock()
	return r.Transport.Send(from, to, data)
}

// TestMirroredSyncWalkFrames pins the necessary-mirror sync to a reference
// walk over every master: whichever of the updated set and the per-destination
// mirrored masters encodeSyncSeq walks, each (sender, receiver) pair must
// carry the same bytes as frames built by visiting every local master in
// ascending order and shipping the updated ones to every worker
// MirrorWorkers lists, keyed by the mirror's slot there (MirrorSlots). The
// VertexMap over All walks the mirrored masters; the one over a few ids
// walks the updated set.
func TestMirroredSyncWalkFrames(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.GenGrid(40, 30, 0, 1),
		"rmat": graph.GenRMAT(2048, 16384, 7),
	}
	for gname, g := range graphs {
		n := g.NumVertices()
		for _, hash := range []bool{false, true} {
			for _, workers := range []int{2, 4} {
				for _, subset := range []string{"all", "few"} {
					t.Run(fmt.Sprintf("%s/hash=%v/w%d/%s", gname, hash, workers, subset), func(t *testing.T) {
						rec := &frameRecorder{Transport: comm.NewMem(workers), frames: map[[2]int][]byte{}}
						e := mustEngine(t, g, Config{Workers: workers, UseHashPlacement: hash, Transport: rec})
						U := e.All()
						if subset == "few" {
							U = e.FromIDs(0, graph.VID(n/3), graph.VID(n/2), graph.VID(n-1))
						}
						val := func(v graph.VID) bfsProps { return bfsProps{Dis: int32(v)*3 + 1} }
						e.VertexMap(U, nil, func(v Vtx[bfsProps]) bfsProps { return val(v.ID) }, StepOpts{})

						codec := comm.CodecFor[bfsProps]()
						for from := 0; from < workers; from++ {
							kws := make([]comm.KVWriter[bfsProps], workers)
							for to := range kws {
								kws[to].Init(codec)
							}
							part := e.part.Parts[from]
							for l := 0; l < e.place.LocalCount(from); l++ {
								gid := e.place.GlobalID(from, l)
								if !e.Contains(U, gid) {
									continue
								}
								v := val(gid)
								slots := part.MirrorSlots(l)
								for i, to := range part.MirrorWorkers(l) {
									kws[to].Append(uint32(slots[i]), &v)
								}
							}
							for to := range kws {
								want := kws[to].Take()
								if got := rec.frames[[2]int{from, to}]; !bytes.Equal(got, want) {
									t.Fatalf("worker %d -> %d: sync frames differ from the reference walk (%d vs %d bytes)",
										from, to, len(got), len(want))
								}
							}
						}
					})
				}
			}
		}
	}
}
