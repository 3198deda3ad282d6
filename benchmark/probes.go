package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"flash"
	"flash/graph"
	"flash/internal/comm"
	"flash/internal/core"
)

// Probes are direct timed calls to a layer's public functions on inputs taken
// from the workload. They price what the engine hides behind its primitives;
// none of them feeds an end-to-end metric.

// probeFloor is how long a probe keeps repeating its unit of work: long
// enough to swamp timer resolution, short enough that all probes together
// stay well inside the per-process budget.
const probeFloor = 40 * time.Millisecond

// repeatFor calls f until probeFloor has elapsed and returns the mean time
// per call.
func repeatFor(f func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for {
		if err := f(); err != nil {
			return 0, err
		}
		n++
		if el := time.Since(start); el >= probeFloor {
			return el / time.Duration(n), nil
		}
	}
}

var probeSink uint64 // keeps scanned values live

// probeCSRScan prices the in-memory edge access path: OutNeighbors over every
// vertex, touching every target. This is the sequential-scan yardstick the
// block layer's hit path is held against.
func probeCSRScan(g *graph.Graph) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	per, _ := repeatFor(func() error {
		var sum uint64
		for u := 0; u < g.NumVertices(); u++ {
			for _, v := range g.OutNeighbors(graph.VID(u)) {
				sum += uint64(v)
			}
		}
		probeSink += sum
		return nil
	})
	return float64(per) / float64(g.NumEdges())
}

// probeBlocks prices the block layer's two paths over the whole out
// direction: miss = ReadBlock (read, CRC, decode) of every block; hit =
// BlockCache.Get on resident blocks plus DecodedBlock.Adj per vertex.
func probeBlocks(bg *graph.BlockGraph) (hitNs, missNs float64, err error) {
	nb := bg.NumBlocks(graph.BlockOut)
	edges := float64(bg.NumEdges())
	if nb == 0 || edges == 0 {
		return 0, 0, nil
	}
	missPer, err := repeatFor(func() error {
		for i := 0; i < nb; i++ {
			if _, err := bg.ReadBlock(graph.BlockOut, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// A budget of twice the decoded edge bytes keeps every block resident,
	// so after one filling pass every Get is a hit.
	cache := graph.NewBlockCache(bg, int64(2*bg.EdgeBytes())+mib)
	scan := func() error {
		var sum uint64
		for i := 0; i < nb; i++ {
			blk, err := cache.Get(graph.BlockOut, i)
			if err != nil {
				return err
			}
			for v := blk.First(); blk.Contains(v); v++ {
				adj, _ := blk.Adj(v)
				for _, d := range adj {
					sum += uint64(d)
				}
			}
		}
		probeSink += sum
		return nil
	}
	if err := scan(); err != nil {
		return 0, 0, err
	}
	hitPer, err := repeatFor(scan)
	if err != nil {
		return 0, 0, err
	}
	if st := cache.Stats(); st.Misses != uint64(nb) {
		return 0, 0, fmt.Errorf("block hit probe missed %d times over %d blocks", st.Misses, nb)
	}
	return float64(hitPer) / edges, float64(missPer) / edges, nil
}

// probeKV prices the fixed codec on one superstep's worth of (vid, value)
// pairs: KVWriter.Append into a pooled frame, then DecodeKV of that frame.
func probeKV[V any](pairs int) (encNs, decNs float64, err error) {
	if pairs < 1 {
		pairs = 1
	}
	codec := comm.CodecFor[V]()
	var kw comm.KVWriter[V]
	kw.Init(codec)
	var val V
	encode := func() []byte {
		for i := 0; i < pairs; i++ {
			kw.Append(uint32(2*i), &val)
		}
		return kw.Take()
	}
	encPer, _ := repeatFor(func() error {
		comm.PutBuf(encode())
		return nil
	})
	frame := encode()
	defer comm.PutBuf(frame)
	seen := 0
	decPer, err := repeatFor(func() error {
		return comm.DecodeKV(codec, frame, func(uint32, *V) { seen++ })
	})
	if err != nil {
		return 0, 0, err
	}
	if seen%pairs != 0 {
		return 0, 0, fmt.Errorf("kv probe decoded %d records, not a multiple of %d", seen, pairs)
	}
	return float64(encPer) / float64(pairs), float64(decPer) / float64(pairs), nil
}

// roundBatch is how many exchange rounds each probe goroutine runs per batch,
// so goroutine start-up is amortised away and the figure is the round itself.
const roundBatch = 64

// probeRound prices one BSP exchange round at two workers: each worker sends
// one payload-byte frame to its peer, ends the round and drains. This is the
// fixed cost a superstep pays twice, whatever the frontier holds.
func probeRound(tr comm.Transport, payload int) (time.Duration, error) {
	worker := func(w int) error {
		for r := 0; r < roundBatch; r++ {
			// Frames come from the pool because Drain recycles every
			// delivered frame into it.
			if err := tr.Send(w, 1-w, comm.GetBufN(payload)); err != nil {
				return err
			}
			if err := tr.EndRound(w); err != nil {
				return err
			}
			if err := tr.Drain(w, func(int, []byte) {}); err != nil {
				return err
			}
		}
		return nil
	}
	per, err := repeatFor(func() error {
		errs := make([]error, engineWorkers)
		var wg sync.WaitGroup
		for w := 0; w < engineWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = worker(w)
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return per / roundBatch, err
}

// probeTransport prices a round on tr in microseconds and closes it.
func probeTransport(name string, tr comm.Transport, payload int) (float64, error) {
	d, err := probeRound(tr, payload)
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("%s round probe: %w", name, err)
	}
	return float64(d) / float64(time.Microsecond), nil
}

func probeRounds(payload int) (memUs, tcpUs float64, err error) {
	if memUs, err = probeTransport("mem", comm.NewMem(engineWorkers), payload); err != nil {
		return 0, 0, err
	}
	tcp, err := comm.NewTCP(engineWorkers)
	if err != nil {
		return 0, 0, fmt.Errorf("tcp round probe: %w", err)
	}
	tcpUs, err = probeTransport("tcp", tcp, payload)
	return memUs, tcpUs, err
}

// ckptProbe holds the checkpoint-path prices, all on one image taken from a
// real run's MemStore.
type ckptProbe struct {
	encodeMs, decodeMs, fileSaveMs float64
}

// probeCheckpoint runs one checkpointed op into a harness-owned MemStore,
// then prices the image's file encoding, its decoding, and a FileStore.Save
// (write + fsync + rename: machine-dependent, a diagnostic only).
func probeCheckpoint(run func(store flash.CheckpointStore) error, dir string) (ckptProbe, error) {
	store := flash.NewMemCheckpointStore()
	if err := run(store); err != nil {
		return ckptProbe{}, err
	}
	img, err := store.Load()
	if err != nil {
		return ckptProbe{}, err
	}
	if img == nil {
		return ckptProbe{}, fmt.Errorf("checkpoint probe: the run saved no image")
	}
	var encoded []byte
	encPer, _ := repeatFor(func() error {
		encoded = core.EncodeCheckpointFile(img)
		return nil
	})
	decPer, err := repeatFor(func() error {
		_, err := core.DecodeCheckpointFile(encoded)
		return err
	})
	if err != nil {
		return ckptProbe{}, err
	}
	fs, err := flash.NewFileCheckpointStore(filepath.Join(dir, "probe.ckpt"))
	if err != nil {
		return ckptProbe{}, err
	}
	savePer, err := repeatFor(func() error { return fs.Save(img) })
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ckptProbe{}, err
	}
	return ckptProbe{encodeMs: ms(encPer), decodeMs: ms(decPer), fileSaveMs: ms(savePer)}, nil
}

// probeReplication builds one engine over the prewarmed handle to read the
// partition's replication factor (only an engine exposes it publicly).
func probeReplication(g *graph.Graph, opts []flash.Option) (float64, error) {
	e, err := flash.NewEngine[bfsProps](g, opts...)
	if err != nil {
		return 0, err
	}
	rf := e.ReplicationFactor()
	return rf, e.Close()
}
