package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"flash/graph"
)

// logBody returns the log file bytes past the magic that appendRecord writes
// for recs.
func logBody(f *testing.F, recs ...clusterLogRecord) []byte {
	s, err := OpenWorkerStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	for _, r := range recs {
		if err := s.appendRecord(r.kind, r.payload); err != nil {
			f.Fatal(err)
		}
	}
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		f.Fatal(err)
	}
	return b[len(clusterLogMagic):]
}

// FuzzClusterLog hammers the cluster step log's two decoders. data is fed to
// decodeStepRecord as a record payload (the bytes past the CRC) and, behind
// the log magic, to WorkerStore.replay as a log file body, with n the record
// count a checkpoint's metadata would claim; every step record replay returns
// is decoded too. Each decoder must return an error or a valid decode, never
// panic, and a successful replay returns exactly n records.
func FuzzClusterLog(f *testing.F) {
	e, err := NewEngine[bfsProps](graph.GenPath(40), Config{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	stepRec := clusterLogRecord{kind: logKindStep, payload: e.encodeStepRecord(e.All())}
	step := logBody(f, stepRec)
	valid := logBody(f, stepRec, clusterLogRecord{kind: logKindGather, payload: []byte("values")})
	flipped := slices.Clone(step)
	flipped[5] ^= 0x01 // first CRC byte

	f.Add(stepRec.payload, uint64(0))                                                             // a valid two-worker record
	f.Add(valid, uint64(2))                                                                       // a valid two-record log
	f.Add(logBody(f, clusterLogRecord{logKindStep, binary.AppendUvarint(nil, 1<<63)}), uint64(1)) // hostile length varint
	f.Add(step, uint64(1<<62))                                                                    // hostile record count
	f.Add(valid[:len(valid)-3], uint64(2))                                                        // truncated tail
	f.Add(flipped, uint64(1))                                                                     // flipped CRC
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		_ = e.decodeStepRecord(data, e.newSubset())

		dir := t.TempDir()
		sub := filepath.Join(dir, "w000")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		body := append([]byte(clusterLogMagic), data...)
		if err := os.WriteFile(filepath.Join(sub, "steps.flashlog"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenWorkerStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recs, err := s.replay(n)
		if err != nil {
			return
		}
		if uint64(len(recs)) != n || s.records() != n {
			t.Fatalf("replay(%d) returned %d records, store counts %d", n, len(recs), s.records())
		}
		for _, rec := range recs {
			if rec.kind == logKindStep {
				_ = e.decodeStepRecord(rec.payload, e.newSubset())
			}
		}
	})
}
