// Durable per-process state for cluster mode: a WorkerStore owns one
// worker process's checkpoint images and its superstep replay log.
//
// In-process recovery replays supersteps by re-executing the driver's logged
// closures against live peer state. A killed *process* has no closures to
// re-execute and no peers frozen at the failure point, so cluster recovery
// is different: every process durably logs the driver-visible outcome of
// each superstep (the merged output subset) and of each driver-side Gather
// (the full value array), and a respawned process fast-forwards by replaying
// outcomes from the log — no computation, no communication — until it
// rejoins the live frontier. Because the engine is deterministic, every
// process logs the identical record sequence, so the record count stored in
// a checkpoint's metadata is a fleet-wide synchronization point: resuming
// from checkpoint S means "truncate the log to S's record count and replay".
//
// The log is append-only during a run and fsynced before each checkpoint
// image is written, so a checkpoint's record count never exceeds the durable
// log. Torn tail records from a crash sit beyond the last checkpoint's count
// and are truncated on resume.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"flash/internal/comm"
)

// clusterLogMagic heads a worker's step log file.
const clusterLogMagic = "FLSHLOG1"

// Cluster log record kinds.
const (
	// logKindStep is one superstep outcome: the merged output subset of all
	// workers, encoded per worker as a frontier frame.
	logKindStep byte = 1
	// logKindGather is one driver-side Gather outcome: the full value array
	// in ascending vertex order, codec-encoded.
	logKindGather byte = 2
)

// clusterLogRecord is one decoded log entry.
type clusterLogRecord struct {
	kind    byte
	payload []byte
}

// clusterLogHdrSize is the per-record header: kind u8 | length u32 |
// crc32c u32 (CRC over the kind byte and the payload).
const clusterLogHdrSize = 9

// WorkerStore is one worker process's durable state directory: checkpoint
// images (ckpt-<seq>.flashckp, the last two kept) plus the append-only
// superstep log (steps.flashlog). It is the cluster analogue of a FileStore,
// extended with the log that makes deterministic fast-forward possible.
type WorkerStore struct {
	dir  string
	log  *os.File
	nrec uint64 // records in the validated prefix plus appends since
}

// OpenWorkerStore opens (creating if needed) worker w's state directory
// under dir.
func OpenWorkerStore(dir string, w int) (*WorkerStore, error) {
	sub := filepath.Join(dir, fmt.Sprintf("w%03d", w))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(sub, "steps.flashlog"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(clusterLogMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: worker store: init log: %w", err)
		}
	} else {
		hdr := make([]byte, len(clusterLogMagic))
		if _, err := io.ReadFull(f, hdr); err != nil || string(hdr) != clusterLogMagic {
			f.Close()
			return nil, fmt.Errorf("core: worker store: %s is not a step log", f.Name())
		}
	}
	return &WorkerStore{dir: sub, log: f}, nil
}

// Close releases the log file. Images already saved stay on disk.
func (s *WorkerStore) Close() error { return s.log.Close() }

func (s *WorkerStore) ckptPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%08d.flashckp", seq))
}

// ckptSeqs returns the checkpoint sequence numbers present, ascending.
func (s *WorkerStore) ckptSeqs() []uint64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".flashckp") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".flashckp"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// LatestSeq reports the highest checkpoint sequence whose image loads and
// validates, or 0 when none does. A worker registers this with the
// coordinator so the fleet can agree on min(latest) as the resume point.
func (s *WorkerStore) LatestSeq() uint64 {
	seqs := s.ckptSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		if _, err := s.loadImage(seqs[i]); err == nil {
			return seqs[i]
		}
	}
	return 0
}

// saveImage fsyncs the log (a checkpoint must never reference records the
// disk does not hold), writes the image atomically, and prunes all but the
// two most recent images. Two are kept because processes checkpoint at the
// same superstep but not atomically across the fleet: a crash between one
// worker's save and another's leaves the fleet one sequence apart, and
// min(latest) then needs the previous image on the ahead worker.
func (s *WorkerStore) saveImage(img *CheckpointImage) error {
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("core: worker store: sync log: %w", err)
	}
	if err := writeFileAtomic(s.ckptPath(img.Seq), EncodeCheckpointFile(img)); err != nil {
		return fmt.Errorf("core: worker store: write image: %w", err)
	}
	seqs := s.ckptSeqs()
	for len(seqs) > 2 {
		os.Remove(s.ckptPath(seqs[0]))
		seqs = seqs[1:]
	}
	return nil
}

// loadImage reads and validates the image saved at seq.
func (s *WorkerStore) loadImage(seq uint64) (*CheckpointImage, error) {
	data, err := os.ReadFile(s.ckptPath(seq))
	if err != nil {
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	img, err := DecodeCheckpointFile(data)
	if err != nil {
		return nil, fmt.Errorf("core: worker store: image %d: %w", seq, err)
	}
	if img.Seq != seq {
		return nil, fmt.Errorf("core: worker store: image file %d holds sequence %d", seq, img.Seq)
	}
	return img, nil
}

// appendRecord writes one log record. Records are not fsynced individually —
// saveImage syncs before any checkpoint can reference them. A payload replay
// would refuse is refused here, before any byte is written: a record that can
// be logged but never read back would fail every later resume.
func (s *WorkerStore) appendRecord(kind byte, payload []byte) error {
	if len(payload) > comm.MaxFrameSize {
		return fmt.Errorf("core: worker store: append log record: %w: %d bytes", comm.ErrFrameTooLarge, len(payload))
	}
	hdr := make([]byte, clusterLogHdrSize, clusterLogHdrSize+len(payload))
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(hdr[:1], ckptCRCTable), ckptCRCTable, payload)
	binary.LittleEndian.PutUint32(hdr[5:9], crc)
	if _, err := s.log.Write(append(hdr, payload...)); err != nil {
		return fmt.Errorf("core: worker store: append log record: %w", err)
	}
	s.nrec++
	return nil
}

// records returns the count of log records written so far (the value a
// checkpoint's metadata freezes).
func (s *WorkerStore) records() uint64 { return s.nrec }

// replay reads and validates the first n records, truncates everything past
// them (the un-checkpointed tail of a previous incarnation, possibly torn),
// and leaves the log positioned for appending. n = 0 resets the log for a
// fresh run.
func (s *WorkerStore) replay(n uint64) ([]clusterLogRecord, error) {
	if _, err := s.log.Seek(int64(len(clusterLogMagic)), io.SeekStart); err != nil {
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	// Grown by append: n comes from a checkpoint image's metadata, and a
	// hostile count must run into the end of the log, not into makeslice.
	var recs []clusterLogRecord
	off := int64(len(clusterLogMagic))
	hdr := make([]byte, clusterLogHdrSize)
	for uint64(len(recs)) < n {
		if _, err := io.ReadFull(s.log, hdr); err != nil {
			return nil, fmt.Errorf("core: worker store: log record %d: %w", len(recs), err)
		}
		length := binary.LittleEndian.Uint32(hdr[1:5])
		if length > comm.MaxFrameSize {
			return nil, fmt.Errorf("core: worker store: log record %d claims %d bytes", len(recs), length)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(s.log, payload); err != nil {
			return nil, fmt.Errorf("core: worker store: log record %d: %w", len(recs), err)
		}
		crc := crc32.Update(crc32.Checksum(hdr[:1], ckptCRCTable), ckptCRCTable, payload)
		if crc != binary.LittleEndian.Uint32(hdr[5:9]) {
			return nil, fmt.Errorf("core: worker store: log record %d: %w", len(recs), comm.ErrCorrupt)
		}
		recs = append(recs, clusterLogRecord{kind: hdr[0], payload: payload})
		off += clusterLogHdrSize + int64(length)
	}
	if err := s.log.Truncate(off); err != nil {
		return nil, fmt.Errorf("core: worker store: truncate log: %w", err)
	}
	if _, err := s.log.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("core: worker store: %w", err)
	}
	s.nrec = n
	return recs, nil
}

// reset discards all durable state for a fresh run: every checkpoint image
// is removed and the log truncated to its header.
func (s *WorkerStore) reset() error {
	for _, seq := range s.ckptSeqs() {
		if err := os.Remove(s.ckptPath(seq)); err != nil {
			return fmt.Errorf("core: worker store: %w", err)
		}
	}
	_, err := s.replay(0)
	return err
}
