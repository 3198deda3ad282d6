// Durable checkpoint storage.
//
// A checkpoint used to live only in driver memory — useless against the loss
// of the process holding it. CheckpointStore externalizes the snapshot as an
// encoded image (GraphFlash-style state externalization): the engine encodes
// every worker's section at the barrier and hands the image to the store, and
// cold restart rehydrates a rebuilt worker from the bytes the store returns.
// MemStore keeps the old in-memory behavior behind the same interface;
// FileStore makes the image durable with a versioned header, a CRC32-C per
// section, and an atomic write-then-rename, so a torn or bit-flipped file is
// detected at Load instead of restoring garbage state.
package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"flash/internal/atomicfile"
)

// CheckpointImage is one consistent snapshot, fully encoded: Sections[i]
// holds worker i's state (current values plus frontier bitmap) in the wire
// codec's encoding, and Seq increases with every snapshot taken. Images are
// immutable once handed to a store.
type CheckpointImage struct {
	Seq      uint64
	Sections [][]byte
}

// CheckpointStore persists checkpoint images. Save must be atomic: a Load
// after a failed or torn Save returns the previous image (or an error), never
// a partial mix. Load returns nil (no error) when nothing has been saved.
// Implementations must be safe for use from a single engine goroutine;
// stores shared across engines need their own synchronization.
type CheckpointStore interface {
	Save(img *CheckpointImage) error
	Load() (*CheckpointImage, error)
	Close() error
}

// MemStore is the in-memory CheckpointStore: the pre-durability snapshot
// behavior behind the store interface. It survives superstep failures but
// not the loss of the process holding it.
type MemStore struct {
	mu  sync.Mutex
	img *CheckpointImage
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save retains img (taking ownership; the engine never mutates a saved
// image).
func (s *MemStore) Save(img *CheckpointImage) error {
	s.mu.Lock()
	s.img = img
	s.mu.Unlock()
	return nil
}

// Load returns the last saved image, or nil when none exists.
func (s *MemStore) Load() (*CheckpointImage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.img, nil
}

// Close drops the retained image.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.img = nil
	s.mu.Unlock()
	return nil
}

// Checkpoint file format (little-endian):
//
//	magic   [8]byte "FLASHCKP"
//	version u16     (currently 2; 1 placed ranges by vertex count)
//	seq     u64
//	nsect   u32
//	table   nsect × (length u32 | crc32c u32)
//	payload sections concatenated, in table order
//
// The per-section CRC32-C (Castagnoli, matching the TCP frame checksum)
// catches bit rot and torn writes; the version gate rejects images written
// by a different layout; and the decoder validates the byte budget exactly,
// so a truncated or padded file fails loudly instead of shifting sections.
const (
	ckptMagic    = "FLASHCKP"
	ckptVersion  = 2
	ckptHdrSize  = 8 + 2 + 8 + 4
	ckptMaxSects = 1 << 16 // worker count bound; rejects absurd headers
)

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeCheckpointFile serializes img into the checkpoint file format.
func EncodeCheckpointFile(img *CheckpointImage) []byte {
	size := ckptHdrSize + 8*len(img.Sections)
	for _, s := range img.Sections {
		size += len(s)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, img.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(img.Sections)))
	for _, s := range img.Sections {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(s, ckptCRCTable))
	}
	for _, s := range img.Sections {
		buf = append(buf, s...)
	}
	return buf
}

// DecodeCheckpointFile parses and verifies a checkpoint file. It returns an
// error — never panics, never a partial image — for truncated, bit-flipped,
// wrong-version or trailing-garbage input: the image is handed back only
// after every section's length and CRC check out.
func DecodeCheckpointFile(data []byte) (*CheckpointImage, error) {
	if len(data) < ckptHdrSize {
		return nil, fmt.Errorf("core: checkpoint file truncated: %d bytes", len(data))
	}
	if string(data[:8]) != ckptMagic {
		return nil, fmt.Errorf("core: not a checkpoint file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != ckptVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (want %d)", v, ckptVersion)
	}
	seq := binary.LittleEndian.Uint64(data[10:18])
	nsect := binary.LittleEndian.Uint32(data[18:22])
	if nsect > ckptMaxSects {
		return nil, fmt.Errorf("core: checkpoint section count %d exceeds limit", nsect)
	}
	rest := data[ckptHdrSize:]
	if uint64(len(rest)) < 8*uint64(nsect) {
		return nil, fmt.Errorf("core: checkpoint file truncated in section table")
	}
	table, payload := rest[:8*nsect], rest[8*nsect:]
	img := &CheckpointImage{Seq: seq, Sections: make([][]byte, nsect)}
	off := 0
	for i := 0; i < int(nsect); i++ {
		n := int(binary.LittleEndian.Uint32(table[8*i:]))
		want := binary.LittleEndian.Uint32(table[8*i+4:])
		if n < 0 || off+n > len(payload) || off+n < off {
			return nil, fmt.Errorf("core: checkpoint section %d truncated (%d bytes past end)", i, n)
		}
		sect := payload[off : off+n]
		if crc32.Checksum(sect, ckptCRCTable) != want {
			return nil, fmt.Errorf("core: checkpoint section %d crc mismatch", i)
		}
		img.Sections[i] = sect
		off += n
	}
	if off != len(payload) {
		return nil, fmt.Errorf("core: %d trailing bytes after checkpoint sections", len(payload)-off)
	}
	return img, nil
}

// FileStore is the durable CheckpointStore: one file holding the latest
// image. Save writes a temp file in the same directory, syncs it, and
// renames it over the target, so the visible file is always a complete,
// verifiable image — a crash mid-save leaves the previous checkpoint intact.
type FileStore struct {
	path string
}

// NewFileStore creates a file-backed store at path. The file need not exist
// yet; its directory must.
func NewFileStore(path string) (*FileStore, error) {
	if path == "" {
		return nil, fmt.Errorf("core: checkpoint store path must not be empty")
	}
	return &FileStore{path: path}, nil
}

// Save atomically replaces the stored image.
func (s *FileStore) Save(img *CheckpointImage) error {
	if err := atomicfile.Write(s.path, EncodeCheckpointFile(img)); err != nil {
		return fmt.Errorf("core: checkpoint save: %w", err)
	}
	return nil
}

// Load reads and verifies the stored image; nil when no file exists yet.
func (s *FileStore) Load() (*CheckpointImage, error) {
	data, err := os.ReadFile(s.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint load: %w", err)
	}
	img, err := DecodeCheckpointFile(data)
	if err != nil {
		return nil, err
	}
	return img, nil
}

// Close is a no-op: every Save already leaves a complete file behind.
func (s *FileStore) Close() error { return nil }
