// FLASHBLK: the block-oriented on-disk edge backend.
//
// A Graph keeps the whole CSR resident, so every engine run is bounded by
// heap size, not by the algorithm. Following M-Flash's block processing model
// and FlashGraph's SSD-backed adjacency lists, a BlockGraph keeps only the
// O(|V|) degree/offset arrays and a small block index in memory; the
// adjacency itself lives in fixed-target-size compressed blocks on disk,
// varint-delta encoded (the KV frame codec's discipline applied to edges) and
// individually CRC-protected, so a worker reads exactly the blocks a
// superstep touches.
//
// File layout (little-endian), same header/checksum/atomic-rename discipline
// as the FLASHCKP checkpoint store:
//
//	magic     [8]byte "FLASHBLK"
//	version   u16 (currently 2)
//	flags     u16 (bit0 weighted, bit1 directed)
//	blockSize u32 (target size of a block's rows the writer used)
//	n, m      u64
//	nameLen   u32
//	degOutLen u32 | degOutCRC u32
//	degInLen  u32 | degInCRC u32   (directed only; 0 otherwise)
//	nOut      u32 | nIn u32
//	reserved  u32
//	payloadLen u64
//	name bytes, degOut bytes, degIn bytes
//	out table: nOut × (first u32 | nv u32 | edges u32 | off u64 | encLen u32 | crc u32), then table CRC u32
//	in  table: likewise
//	padding to 64
//	payload: blocks, each 64-byte aligned (mmap/pread friendly), offsets
//	         relative to the payload start; a block's encLen bytes are
//	         rows | nv × u32 row offsets, both under the block's crc
//
// Every vertex's adjacency lives entirely inside one block (a vertex whose
// list exceeds the target gets an oversize block of its own), so one block
// read answers any Out(u)/In(v) query. Degree sections are uvarint streams.
// A block's rows encode each vertex's sorted neighbor list as an absolute
// uvarint followed by uvarint gaps, then the raw float32 weights when the
// graph is weighted; the offsets after them give, block-relative, where each
// covered vertex's row starts, so a sparse superstep that needs a few rows of
// a block decodes just those (FlashGraph's per-vertex edge-list index). An
// undirected graph stores only the out direction — its in-adjacency is
// identical by symmetry — halving the file and letting one cached block serve
// both kernels.
//
// The decoder validates everything before trusting it: magic, version, flag
// bits, section lengths against the file size, degree sums against m, block
// tables for contiguous vertex coverage, offset bounds and room for the row
// offsets, and a CRC32-C (Castagnoli) per block at read time. A full block
// decode requires each row to start exactly at its stored offset and the rows
// to end exactly where the offsets begin; a single-row read requires the row
// to end exactly at the next vertex's offset (or the end of the rows). So a
// truncated, bit-flipped, or hostile file fails loudly instead of decoding
// garbage topology, and a block the full decode accepts serves the same rows
// either way.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"flash/internal/atomicfile"
)

// Block directions for BlockGraph.ReadBlock and BlockCache.Get.
const (
	BlockOut = 0
	BlockIn  = 1
)

// DefaultBlockSize is the writer's default target encoded block size.
const DefaultBlockSize = 64 << 10

const (
	blkMagic     = "FLASHBLK"
	blkVersion   = 2
	blkHdrSize   = 72
	blkAlign     = 64
	blkEntrySize = 28
	blkFlagW     = 1 << 0
	blkFlagDir   = 1 << 1
	blkMaxName   = 1 << 16
	blkMaxBlocks = 1 << 24
	blkMaxEnc    = 1 << 30
)

var blkCRCTable = crc32.MakeTable(crc32.Castagnoli)

// blockMeta is one decoded block-table entry: the contiguous vertex range the
// block covers, its edge count, and where its encoded bytes live.
type blockMeta struct {
	first  VID
	nv     uint32
	edges  uint32
	off    uint64 // payload-relative, blkAlign-aligned
	encLen uint32
	crc    uint32
}

// DecodedBlock is one block's adjacency decoded into CSR form, the unit the
// block cache holds: neighbor slices for every vertex in [First, First+nv).
type DecodedBlock struct {
	first VID
	nv    int
	base  int64   // global edge offset of the block's first edge
	off   []int64 // global offsets, off[i] is vertex first+i (len nv+1)
	adj   []VID
	ws    []float32 // nil when unweighted

	// d and idx are the block's stored direction and block-table index: the
	// cache slot a Release unpins.
	d, idx int
}

// First returns the first vertex the block covers.
func (b *DecodedBlock) First() VID { return b.first }

// Contains reports whether v's adjacency lives in this block.
func (b *DecodedBlock) Contains(v VID) bool {
	return v >= b.first && int(v-b.first) < b.nv
}

// Adj returns v's neighbor slice and aligned weights (nil when unweighted).
// v must be inside the block. Callers must not modify the slices.
//
//flash:hotpath
func (b *DecodedBlock) Adj(v VID) ([]VID, []float32) {
	i := int(v - b.first)
	lo, hi := b.off[i]-b.base, b.off[i+1]-b.base
	if b.ws == nil {
		return b.adj[lo:hi], nil
	}
	return b.adj[lo:hi], b.ws[lo:hi]
}

// Bytes returns the decoded resident footprint by arena capacity (a recycled
// arena can be larger than the block in it), the unit of cache accounting.
func (b *DecodedBlock) Bytes() int64 { return arenaBytes(cap(b.adj), b.ws != nil) }

// arenaBytes is the footprint of a block whose arenas hold edges entries: the
// two arenas are always allocated at the same capacity.
func arenaBytes(edges int, weighted bool) int64 {
	per := int64(4)
	if weighted {
		per = 8
	}
	return int64(edges)*per + 64
}

// BlockGraph is an out-of-core graph: the topology skeleton (degrees and
// offsets) in memory, the adjacency in FLASHBLK blocks behind an io.ReaderAt.
// Block reads are safe for concurrent use; the sequential-scan accessors
// (OutNeighbors/InNeighbors) serialize on an internal one-block MRU and exist
// for whole-graph passes such as partition construction.
type BlockGraph struct {
	r      io.ReaderAt
	closer io.Closer // nil for in-memory readers

	n, m      int
	directed  bool
	weighted  bool
	name      string
	blockSize int

	outOff, inOff []int64 // inOff aliases outOff when undirected
	blocks        [2][]blockMeta
	payloadStart  int64

	mu   sync.Mutex
	skel *Graph
	seq  [2]*DecodedBlock // per-direction MRU for sequential scans

	// Arenas closed caches left for the next caches to adopt (BlockCache.Close,
	// NewBlockCache). The open caches' budgets plus the spare bytes never
	// exceed peakBudget, the most the open caches were ever budgeted at once,
	// so the spare holds only memory the caches themselves held before.
	arenaMu    sync.Mutex
	spare      []*DecodedBlock
	spareBytes int64
	openBudget int64
	peakBudget int64
}

// NumVertices returns |V|.
func (bg *BlockGraph) NumVertices() int { return bg.n }

// NumEdges returns the number of stored directed edges (undirected edges
// count twice, matching Graph.NumEdges).
func (bg *BlockGraph) NumEdges() int { return bg.m }

// Directed reports whether the graph was built as directed.
func (bg *BlockGraph) Directed() bool { return bg.directed }

// Weighted reports whether edge weights are stored.
func (bg *BlockGraph) Weighted() bool { return bg.weighted }

// Name returns the dataset name recorded at write time.
func (bg *BlockGraph) Name() string { return bg.name }

// mapDir folds the logical direction onto the stored one: an undirected
// graph stores only out-blocks and serves in-queries from them by symmetry.
func (bg *BlockGraph) mapDir(dir int) int {
	if !bg.directed {
		return BlockOut
	}
	return dir
}

// NumBlocks returns the number of blocks serving the given direction.
func (bg *BlockGraph) NumBlocks(dir int) int { return len(bg.blocks[bg.mapDir(dir)]) }

// blockOf locates the block covering v in the (mapped) direction by binary
// search over the contiguous first-vertex ranges.
//
//flash:hotpath
func (bg *BlockGraph) blockOf(d int, v VID) int {
	ms := bg.blocks[d]
	lo, hi := 0, len(ms)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ms[mid].first <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// OutBlockOf returns the index of the block holding u's out-adjacency.
//
//flash:hotpath
func (bg *BlockGraph) OutBlockOf(u VID) int { return bg.blockOf(BlockOut, u) }

// InBlockOf returns the index of the block holding v's in-adjacency.
//
//flash:hotpath
func (bg *BlockGraph) InBlockOf(v VID) int { return bg.blockOf(bg.mapDir(BlockIn), v) }

// dirOff returns the stored direction's offset array.
func (bg *BlockGraph) dirOff(d int) []int64 {
	if d == BlockOut {
		return bg.outOff
	}
	return bg.inOff
}

// ReadBlock reads, CRC-verifies, and decodes one block into memory no one
// else holds: every call allocates a fresh DecodedBlock the caller owns
// outright, valid for as long as it is referenced. Engine hot paths go
// through a BlockCache instead, whose blocks live in recycled arenas and are
// valid only between Get and Release. ReadBlock serves whole-graph scans
// (partition construction).
func (bg *BlockGraph) ReadBlock(dir, idx int) (*DecodedBlock, error) {
	d := bg.mapDir(dir)
	if idx < 0 || idx >= len(bg.blocks[d]) {
		return nil, fmt.Errorf("graph: block %d/%d out of range", d, idx)
	}
	enc, err := bg.readEncoded(d, idx, nil)
	if err != nil {
		return nil, err
	}
	b := &DecodedBlock{d: d, idx: idx}
	b.alloc(int(bg.blocks[d][idx].edges), bg.weighted)
	if err := bg.decodeBlock(d, bg.blocks[d][idx], enc, b); err != nil {
		return nil, err
	}
	return b, nil
}

// alloc gives a new block adjacency arenas of exactly edges entries.
func (b *DecodedBlock) alloc(edges int, weighted bool) {
	b.adj = make([]VID, edges)
	if weighted {
		b.ws = make([]float32, edges)
	}
}

// readEncoded reads block d/idx's encoded bytes (both already validated)
// into enc, grown if the block needs more than it has, and CRC-verifies them.
// The buffer is returned for reuse, also on error.
//
//flash:hotpath
func (bg *BlockGraph) readEncoded(d, idx int, enc []byte) ([]byte, error) {
	mt := bg.blocks[d][idx]
	if cap(enc) < int(mt.encLen) {
		enc = make([]byte, mt.encLen)
	}
	enc = enc[:mt.encLen]
	if _, err := bg.r.ReadAt(enc, bg.payloadStart+int64(mt.off)); err != nil {
		return enc, fmt.Errorf("graph: block %d/%d read: %w", d, idx, err)
	}
	if crc32.Checksum(enc, blkCRCTable) != mt.crc {
		return enc, fmt.Errorf("graph: block %d/%d crc mismatch", d, idx)
	}
	return enc, nil
}

// readBlock is a cache miss's read: it reads block d/idx (both already
// validated) through the encoded-bytes buffer enc, CRC-verifies it, and
// decodes it into b's arenas, which must hold the block's edge count. The
// buffer is returned for reuse, grown if the block needed more than it had.
// On error b's contents are undefined but its arenas remain usable.
//
//flash:hotpath
func (bg *BlockGraph) readBlock(d, idx int, b *DecodedBlock, enc []byte) ([]byte, error) {
	enc, err := bg.readEncoded(d, idx, enc)
	if err != nil {
		return enc, err
	}
	b.d, b.idx = d, idx
	return enc, bg.decodeBlock(d, bg.blocks[d][idx], enc, b)
}

// splitBlock splits a block's encoded bytes into its rows and its nv u32 row
// offsets; ok is false when the bytes cannot hold nv offsets.
//
//flash:hotpath
func splitBlock(data []byte, nv int) (rows, offs []byte, ok bool) {
	end := len(data) - 4*nv
	if end < 0 {
		return nil, nil, false
	}
	return data[:end], data[end:], true
}

// rowOffset returns the i-th row offset of a block's offset bytes.
//
//flash:hotpath
func rowOffset(offs []byte, i int) int { return int(binary.LittleEndian.Uint32(offs[4*i:])) }

// decodeBlock expands one verified block's encoded bytes into CSR form inside
// b's arenas (capacity at least mt.edges), validating varint framing, vid
// bounds, that each row starts exactly at its stored offset, and that the
// rows end exactly where the offsets begin.
//
//flash:hotpath
func (bg *BlockGraph) decodeBlock(d int, mt blockMeta, data []byte, b *DecodedBlock) error {
	rows, offs, ok := splitBlock(data, int(mt.nv))
	if !ok {
		return fmt.Errorf("graph: block of %d bytes cannot hold %d row offsets", len(data), mt.nv)
	}
	off := bg.dirOff(d)
	first, end := int(mt.first), int(mt.first)+int(mt.nv)
	adj := b.adj[:mt.edges]
	var ws []float32
	if bg.weighted {
		ws = b.ws[:mt.edges]
	}
	pos, k := 0, 0
	for v := first; v < end; v++ {
		if rowOffset(offs, v-first) != pos {
			return fmt.Errorf("graph: block row of vertex %d does not start at its offset", v)
		}
		deg := int(off[v+1] - off[v])
		var wrow []float32
		if ws != nil {
			wrow = ws[k : k+deg]
		}
		var err error
		if pos, err = bg.decodeRow(rows, pos, v, adj[k:k+deg], wrow); err != nil {
			return err
		}
		k += deg
	}
	if pos != len(rows) {
		return fmt.Errorf("graph: %d trailing bytes in block rows", len(rows)-pos)
	}
	b.first = mt.first
	b.nv = int(mt.nv)
	b.base = off[first]
	b.off = off[first : end+1]
	b.adj, b.ws = adj, ws
	return nil
}

// decodeRow decodes vertex v's row from data at pos — len(row) neighbors,
// then, when wrow is not nil, their weights — and returns the position after
// it. It is the one loop both full block decodes and single-row reads run.
//
// Gaps between sorted neighbors are nearly always one or two bytes long, so
// that case is decided arithmetically from the next two bytes — c is the
// first byte's continuation bit, the second byte is masked in only when c is
// set, and pos advances by 1+c — keeping the serial dependency on pos to a
// load, a shift and an add. Everything else (a gap of three bytes or more,
// each vertex's absolute first neighbor, the buffer's last byte) goes through
// encoding/binary's uvarint reader, so what is accepted and rejected is
// exactly what that reader accepts and rejects, overlong encodings included.
//
//flash:hotpath
func (bg *BlockGraph) decodeRow(data []byte, pos, v int, row []VID, wrow []float32) (int, error) {
	if pos > len(data) {
		return pos, fmt.Errorf("graph: block row of vertex %d starts past the block", v)
	}
	n := uint64(bg.n)
	last := len(data) - 1
	prev := uint64(0)
	for i := range row {
		var x uint64
		if i > 0 && pos < last && data[pos]&data[pos+1]&0x80 == 0 {
			b0, b1 := uint64(data[pos]), uint64(data[pos+1])
			c := b0 >> 7
			x = b0&0x7f | (b1<<7)&-c
			pos += 1 + int(c)
		} else {
			var sz int
			x, sz = binary.Uvarint(data[pos:])
			if sz <= 0 {
				return pos, fmt.Errorf("graph: block truncated decoding vertex %d", v)
			}
			pos += sz
		}
		prev += x
		if prev >= n {
			return pos, fmt.Errorf("graph: block vid %d out of range at vertex %d", prev, v)
		}
		row[i] = VID(prev)
	}
	if wrow != nil {
		need := 4 * len(row)
		if pos+need > len(data) {
			return pos, fmt.Errorf("graph: block truncated in weights of vertex %d", v)
		}
		for i := range wrow {
			wrow[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos+4*i:]))
		}
		pos += need
	}
	return pos, nil
}

// EncodedBlock is one block's encoded bytes, read from the file and
// CRC-verified, from which single rows are decoded (Row) at the offsets the
// block carries. The zero value holds no block; its buffer is reused from
// fill to fill.
type EncodedBlock struct {
	bg      *BlockGraph
	d       int
	first   VID
	nv      int
	data    []byte
	decoded uint64 // edges Row decoded since the cache last counted them
}

// Contains reports whether v's row lives in the block eb holds.
func (eb *EncodedBlock) Contains(v VID) bool {
	return v >= eb.first && int(v-eb.first) < eb.nv
}

// Row decodes v's row — v must lie in the block — into adj and, when the
// graph is weighted, ws, both grown as needed, and returns them (ws nil when
// unweighted). The decode is decodeBlock's loop with its vid and truncation
// checks, from v's stored offset, and the row must end exactly at the next
// vertex's offset (or at the end of the rows).
//
//flash:hotpath
func (eb *EncodedBlock) Row(v VID, adj []VID, ws []float32) ([]VID, []float32, error) {
	bg := eb.bg
	off := bg.dirOff(eb.d)
	deg := int(off[v+1] - off[v])
	adj = slices.Grow(adj[:0], deg)[:deg]
	if bg.weighted {
		ws = slices.Grow(ws[:0], deg)[:deg]
	} else {
		ws = nil
	}
	eb.decoded += uint64(deg)
	rows, offs, _ := splitBlock(eb.data, eb.nv) // the block table guarantees room
	i := int(v - eb.first)
	start, end := rowOffset(offs, i), len(rows)
	if i+1 < eb.nv {
		end = rowOffset(offs, i+1)
	}
	if end > len(rows) {
		return adj, ws, fmt.Errorf("graph: block row of vertex %d ends past the block rows", v)
	}
	pos, err := bg.decodeRow(rows[:end], start, int(v), adj, ws)
	if err == nil && pos != end {
		return adj, ws, fmt.Errorf("graph: block row of vertex %d does not end at the next offset", v)
	}
	return adj, ws, err
}

// readRows reads block d/idx's encoded bytes into eb, CRC-verified, for Row.
// On error eb holds no block.
//
//flash:hotpath
func (bg *BlockGraph) readRows(d, idx int, eb *EncodedBlock) error {
	eb.nv = 0
	data, err := bg.readEncoded(d, idx, eb.data)
	eb.data = data
	if err != nil {
		return err
	}
	mt := bg.blocks[d][idx]
	eb.bg, eb.d, eb.first, eb.nv = bg, d, mt.first, int(mt.nv)
	return nil
}

// seqAdj serves the sequential-scan accessors through a one-block-per-
// direction MRU: an ascending-vertex pass (partition construction, stats)
// decodes each block exactly once. I/O or corruption errors panic — these
// accessors mirror Graph's infallible signatures and a block file that fails
// mid-scan is unusable anyway.
func (bg *BlockGraph) seqAdj(dir int, v VID) []VID {
	d := bg.mapDir(dir)
	bg.mu.Lock()
	defer bg.mu.Unlock()
	b := bg.seq[d]
	if b == nil || !b.Contains(v) {
		dec, err := bg.ReadBlock(d, bg.blockOf(d, v))
		if err != nil {
			panic(fmt.Sprintf("graph: block scan: %v", err))
		}
		bg.seq[d] = dec
		b = dec
	}
	adj, _ := b.Adj(v)
	return adj
}

// OutDegree returns u's out-degree from the resident offsets.
func (bg *BlockGraph) OutDegree(u VID) int { return int(bg.outOff[u+1] - bg.outOff[u]) }

// InDegree returns v's in-degree from the resident offsets.
func (bg *BlockGraph) InDegree(v VID) int { return int(bg.inOff[v+1] - bg.inOff[v]) }

// OutNeighbors returns u's out-neighbors via the sequential-scan MRU. It
// implements the partitioner's adjacency interface; engine hot paths use a
// BlockCache instead.
func (bg *BlockGraph) OutNeighbors(u VID) []VID { return bg.seqAdj(BlockOut, u) }

// InNeighbors returns v's in-neighbors via the sequential-scan MRU.
func (bg *BlockGraph) InNeighbors(v VID) []VID { return bg.seqAdj(BlockIn, v) }

// Skeleton returns the in-memory topology skeleton: a *Graph with real
// degrees and offsets but no adjacency arrays. Engines run over the skeleton
// (degree hints, density rule, subset sizing all work unchanged) while edge
// iteration goes through the block backend; touching the skeleton's
// adjacency directly panics with a descriptive message. The same pointer is
// returned on every call, so engine configuration can verify identity.
func (bg *BlockGraph) Skeleton() *Graph {
	bg.mu.Lock()
	defer bg.mu.Unlock()
	if bg.skel == nil {
		bg.skel = &Graph{
			n:           bg.n,
			m:           bg.m,
			outOff:      bg.outOff,
			inOff:       bg.inOff,
			directed:    bg.directed,
			name:        bg.name,
			oocWeighted: bg.weighted,
		}
	}
	return bg.skel
}

// EdgeBytes returns the total decoded adjacency payload the file represents:
// the bytes a full in-memory CSR of the stored directions would hold. Cache
// budgets are naturally expressed as a fraction of this.
func (bg *BlockGraph) EdgeBytes() uint64 {
	per := uint64(4)
	if bg.weighted {
		per += 4
	}
	dirs := uint64(1)
	if bg.directed {
		dirs = 2
	}
	return uint64(bg.m) * per * dirs
}

// IndexBytes returns the resident footprint of the in-memory index: offset
// arrays and block tables. Together with a cache budget this is what an
// out-of-core graph costs in RAM.
func (bg *BlockGraph) IndexBytes() uint64 {
	total := uint64(cap(bg.outOff)) * 8
	if bg.directed {
		total += uint64(cap(bg.inOff)) * 8
	}
	for d := range bg.blocks {
		total += uint64(cap(bg.blocks[d])) * blkEntrySize
	}
	return total
}

// Close releases the underlying file (no-op for in-memory readers).
func (bg *BlockGraph) Close() error {
	if bg.closer != nil {
		return bg.closer.Close()
	}
	return nil
}

// ---- writer ----

// appendVertexAdj appends one vertex's sorted adjacency as an absolute
// uvarint plus uvarint gaps, then its raw little-endian float32 weights.
func appendVertexAdj(buf []byte, adj []VID, ws []float32) []byte {
	prev := VID(0)
	for i, d := range adj {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(d))
		} else {
			buf = binary.AppendUvarint(buf, uint64(d-prev))
		}
		prev = d
	}
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(w))
	}
	return buf
}

// padTo zero-pads buf to the next multiple of align.
func padTo(buf []byte, align int) []byte {
	for len(buf)%align != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// packBlocks greedily packs vertices 0..n-1 into blocks of at least target
// row bytes (except the last), each followed by its row offsets, returning
// the table entries and the payload extended with the new, 64-byte-aligned
// blocks. A single vertex whose list exceeds the target gets an oversize
// block of its own; every vertex's adjacency stays within one block.
func packBlocks(n, target int, payload []byte, adjOf func(VID) []VID, wOf func(VID) []float32) ([]blockMeta, []byte) {
	var metas []blockMeta
	if n == 0 {
		return metas, payload
	}
	payload = padTo(payload, blkAlign)
	start, first, edges := len(payload), 0, 0
	var rowOffs []uint32 // the open block's row offsets
	seal := func(next int) {
		for _, o := range rowOffs {
			payload = binary.LittleEndian.AppendUint32(payload, o)
		}
		enc := payload[start:]
		metas = append(metas, blockMeta{
			first:  VID(first),
			nv:     uint32(next - first),
			edges:  uint32(edges),
			off:    uint64(start),
			encLen: uint32(len(enc)),
			crc:    crc32.Checksum(enc, blkCRCTable),
		})
	}
	for v := 0; v < n; v++ {
		if len(payload)-start >= target && v > first {
			seal(v)
			payload = padTo(payload, blkAlign)
			start, first, edges, rowOffs = len(payload), v, 0, rowOffs[:0]
		}
		rowOffs = append(rowOffs, uint32(len(payload)-start))
		adj := adjOf(VID(v))
		payload = appendVertexAdj(payload, adj, wOf(VID(v)))
		edges += len(adj)
	}
	seal(n)
	return metas, payload
}

// appendDegrees appends n uvarint degrees derived from an offset array.
func appendDegrees(buf []byte, off []int64, n int) []byte {
	for v := 0; v < n; v++ {
		buf = binary.AppendUvarint(buf, uint64(off[v+1]-off[v]))
	}
	return buf
}

func appendBlockTable(buf []byte, metas []blockMeta) []byte {
	start := len(buf)
	for _, mt := range metas {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(mt.first))
		buf = binary.LittleEndian.AppendUint32(buf, mt.nv)
		buf = binary.LittleEndian.AppendUint32(buf, mt.edges)
		buf = binary.LittleEndian.AppendUint64(buf, mt.off)
		buf = binary.LittleEndian.AppendUint32(buf, mt.encLen)
		buf = binary.LittleEndian.AppendUint32(buf, mt.crc)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], blkCRCTable))
}

// EncodeBlockFile serializes g into the FLASHBLK format with the given
// target block size (<= 0 selects DefaultBlockSize).
func EncodeBlockFile(g *Graph, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	name := g.name
	if len(name) >= blkMaxName {
		name = name[:blkMaxName-1]
	}

	var payload []byte
	outMetas, payload := packBlocks(g.n, blockSize, payload,
		func(u VID) []VID { return g.OutNeighbors(u) },
		func(u VID) []float32 { return g.OutWeights(u) })
	var inMetas []blockMeta
	if g.directed {
		inMetas, payload = packBlocks(g.n, blockSize, payload,
			func(v VID) []VID { return g.InNeighbors(v) },
			func(v VID) []float32 { return g.InWeights(v) })
	}
	payload = padTo(payload, blkAlign)

	var meta []byte
	meta = append(meta, name...)
	degStart := len(meta)
	meta = appendDegrees(meta, g.outOff, g.n)
	degOut := meta[degStart:]
	degOutLen, degOutCRC := uint32(len(degOut)), crc32.Checksum(degOut, blkCRCTable)
	degStart = len(meta)
	if g.directed {
		meta = appendDegrees(meta, g.inOff, g.n)
	}
	degIn := meta[degStart:]
	degInLen, degInCRC := uint32(len(degIn)), crc32.Checksum(degIn, blkCRCTable)
	meta = appendBlockTable(meta, outMetas)
	meta = appendBlockTable(meta, inMetas)

	var flags uint16
	if g.Weighted() {
		flags |= blkFlagW
	}
	if g.directed {
		flags |= blkFlagDir
	}
	hdr := make([]byte, 0, blkHdrSize)
	hdr = append(hdr, blkMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, blkVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, flags)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockSize))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.n))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.m))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(name)))
	hdr = binary.LittleEndian.AppendUint32(hdr, degOutLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, degOutCRC)
	hdr = binary.LittleEndian.AppendUint32(hdr, degInLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, degInCRC)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(outMetas)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(inMetas)))
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // reserved
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))

	file := append(hdr, meta...)
	file = padTo(file, blkAlign)
	return append(file, payload...)
}

// WriteBlockFile encodes g and writes it atomically (atomicfile.Write): a
// crash mid-write never leaves a torn file visible.
func WriteBlockFile(g *Graph, path string, blockSize int) error {
	if err := atomicfile.Write(path, EncodeBlockFile(g, blockSize)); err != nil {
		return fmt.Errorf("graph: block file write: %w", err)
	}
	return nil
}

// ---- reader ----

// IsBlockFile reports whether the file at path starts with the FLASHBLK
// magic (catalog loaders use it to dispatch between edge lists and block
// graphs).
func IsBlockFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == blkMagic
}

// OpenBlockFile opens and validates a FLASHBLK file. The returned BlockGraph
// holds the file open until Close.
func OpenBlockFile(path string) (*BlockGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: block file open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: block file open: %w", err)
	}
	bg, err := OpenBlockReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	bg.closer = f
	return bg, nil
}

// decodeDegreeOffsets turns a uvarint degree section into a prefix-sum
// offset array, validating the exact byte budget and the edge-count sum.
func decodeDegreeOffsets(data []byte, n int, m uint64, what string) ([]int64, error) {
	off := make([]int64, n+1)
	pos := 0
	var sum uint64
	for v := 0; v < n; v++ {
		d, sz := binary.Uvarint(data[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("graph: block file %s degrees truncated at vertex %d", what, v)
		}
		pos += sz
		sum += d
		if sum > m {
			return nil, fmt.Errorf("graph: block file %s degrees exceed edge count", what)
		}
		off[v+1] = off[v] + int64(d)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("graph: %d trailing bytes in block file %s degrees", len(data)-pos, what)
	}
	if sum != m {
		return nil, fmt.Errorf("graph: block file %s degrees sum to %d, header says %d", what, sum, m)
	}
	return off, nil
}

// decodeBlockTable parses and validates one direction's block table: CRC,
// contiguous vertex coverage, edge counts consistent with the offsets, and
// aligned in-bounds payload ranges with room for the row offsets.
func decodeBlockTable(data []byte, nb, n int, off []int64, payloadLen uint64, what string) ([]blockMeta, error) {
	if crc32.Checksum(data[:nb*blkEntrySize], blkCRCTable) != binary.LittleEndian.Uint32(data[nb*blkEntrySize:]) {
		return nil, fmt.Errorf("graph: block file %s table crc mismatch", what)
	}
	metas := make([]blockMeta, nb)
	next := VID(0)
	prevEnd := uint64(0)
	for i := 0; i < nb; i++ {
		e := data[i*blkEntrySize:]
		mt := blockMeta{
			first:  VID(binary.LittleEndian.Uint32(e)),
			nv:     binary.LittleEndian.Uint32(e[4:]),
			edges:  binary.LittleEndian.Uint32(e[8:]),
			off:    binary.LittleEndian.Uint64(e[12:]),
			encLen: binary.LittleEndian.Uint32(e[20:]),
			crc:    binary.LittleEndian.Uint32(e[24:]),
		}
		if mt.first != next || mt.nv == 0 || uint64(mt.first)+uint64(mt.nv) > uint64(n) {
			return nil, fmt.Errorf("graph: block file %s table entry %d breaks vertex coverage", what, i)
		}
		next = mt.first + VID(mt.nv)
		if span := off[int(mt.first)+int(mt.nv)] - off[mt.first]; span != int64(mt.edges) {
			return nil, fmt.Errorf("graph: block file %s table entry %d edge count %d != offset span %d", what, i, mt.edges, span)
		}
		if mt.off%blkAlign != 0 || mt.off < prevEnd || mt.encLen > blkMaxEnc ||
			mt.off+uint64(mt.encLen) > payloadLen || uint64(mt.encLen) < 4*uint64(mt.nv) {
			return nil, fmt.Errorf("graph: block file %s table entry %d has bad payload range", what, i)
		}
		prevEnd = mt.off + uint64(mt.encLen)
		metas[i] = mt
	}
	if int(next) != n {
		return nil, fmt.Errorf("graph: block file %s table covers %d of %d vertices", what, next, n)
	}
	return metas, nil
}

// OpenBlockReader validates a FLASHBLK image behind any io.ReaderAt (a file,
// or bytes for tests and the fuzz target). Only the header, degree sections,
// and block tables are read eagerly; block payloads are verified against
// their CRCs lazily at ReadBlock time.
func OpenBlockReader(r io.ReaderAt, size int64) (*BlockGraph, error) {
	if size < blkHdrSize {
		return nil, fmt.Errorf("graph: block file truncated: %d bytes", size)
	}
	hdr := make([]byte, blkHdrSize)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("graph: block file header: %w", err)
	}
	if string(hdr[:8]) != blkMagic {
		return nil, fmt.Errorf("graph: not a block file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != blkVersion {
		return nil, fmt.Errorf("graph: unsupported block file version %d (want %d)", v, blkVersion)
	}
	flags := binary.LittleEndian.Uint16(hdr[10:])
	if flags&^uint16(blkFlagW|blkFlagDir) != 0 {
		return nil, fmt.Errorf("graph: unknown block file flags %#x", flags)
	}
	blockSize := binary.LittleEndian.Uint32(hdr[12:])
	n64 := binary.LittleEndian.Uint64(hdr[16:])
	m64 := binary.LittleEndian.Uint64(hdr[24:])
	nameLen := binary.LittleEndian.Uint32(hdr[32:])
	degOutLen := binary.LittleEndian.Uint32(hdr[36:])
	degOutCRC := binary.LittleEndian.Uint32(hdr[40:])
	degInLen := binary.LittleEndian.Uint32(hdr[44:])
	degInCRC := binary.LittleEndian.Uint32(hdr[48:])
	nOut := binary.LittleEndian.Uint32(hdr[52:])
	nIn := binary.LittleEndian.Uint32(hdr[56:])
	payloadLen := binary.LittleEndian.Uint64(hdr[64:])

	directed := flags&blkFlagDir != 0
	weighted := flags&blkFlagW != 0
	if n64 > uint64(size) || (n64 > 0 && n64 > uint64(degOutLen)) {
		// Each vertex's degree costs at least one uvarint byte, so a header
		// claiming more vertices than degree bytes is hostile or corrupt.
		return nil, fmt.Errorf("graph: block file vertex count %d inconsistent with degree section", n64)
	}
	if m64 > payloadLen || payloadLen > uint64(size) {
		return nil, fmt.Errorf("graph: block file edge count %d inconsistent with payload", m64)
	}
	n, m := int(n64), int(m64)
	if nameLen >= blkMaxName || nOut > blkMaxBlocks || nIn > blkMaxBlocks ||
		int(nOut) > n+1 || int(nIn) > n+1 {
		return nil, fmt.Errorf("graph: block file header out of bounds")
	}
	if !directed && (degInLen != 0 || nIn != 0) {
		return nil, fmt.Errorf("graph: undirected block file carries an in direction")
	}
	if directed && n > 0 && n64 > uint64(degInLen) {
		return nil, fmt.Errorf("graph: block file in-degree section too short")
	}
	if (n > 0) != (nOut > 0) || (directed && (n > 0) != (nIn > 0)) {
		return nil, fmt.Errorf("graph: block file block count inconsistent with vertex count")
	}

	metaLen := int64(nameLen) + int64(degOutLen) + int64(degInLen) +
		int64(nOut)*blkEntrySize + 4 + int64(nIn)*blkEntrySize + 4
	payloadStart := (blkHdrSize + metaLen + blkAlign - 1) / blkAlign * blkAlign
	if payloadStart+int64(payloadLen) != size {
		return nil, fmt.Errorf("graph: block file size %d, want %d meta + %d payload",
			size, payloadStart, payloadLen)
	}
	meta := make([]byte, metaLen)
	if _, err := r.ReadAt(meta, blkHdrSize); err != nil {
		return nil, fmt.Errorf("graph: block file metadata: %w", err)
	}
	name := string(meta[:nameLen])
	meta = meta[nameLen:]
	degOut := meta[:degOutLen]
	meta = meta[degOutLen:]
	degIn := meta[:degInLen]
	meta = meta[degInLen:]
	if crc32.Checksum(degOut, blkCRCTable) != degOutCRC {
		return nil, fmt.Errorf("graph: block file out-degree crc mismatch")
	}
	if crc32.Checksum(degIn, blkCRCTable) != degInCRC {
		return nil, fmt.Errorf("graph: block file in-degree crc mismatch")
	}
	outOff, err := decodeDegreeOffsets(degOut, n, m64, "out")
	if err != nil {
		return nil, err
	}
	inOff := outOff
	if directed {
		if inOff, err = decodeDegreeOffsets(degIn, n, m64, "in"); err != nil {
			return nil, err
		}
	}
	outTable := meta[:int(nOut)*blkEntrySize+4]
	inTable := meta[int(nOut)*blkEntrySize+4:]
	outMetas, err := decodeBlockTable(outTable, int(nOut), n, outOff, payloadLen, "out")
	if err != nil {
		return nil, err
	}
	var inMetas []blockMeta
	if directed {
		if inMetas, err = decodeBlockTable(inTable, int(nIn), n, inOff, payloadLen, "in"); err != nil {
			return nil, err
		}
	}
	bg := &BlockGraph{
		r:            r,
		n:            n,
		m:            m,
		directed:     directed,
		weighted:     weighted,
		name:         name,
		blockSize:    int(blockSize),
		outOff:       outOff,
		inOff:        inOff,
		blocks:       [2][]blockMeta{outMetas, inMetas},
		payloadStart: payloadStart,
	}
	return bg, nil
}
