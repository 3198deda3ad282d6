package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// kvRec mirrors one fuzz-derived record. Values are compared through their
// encoded bit patterns so NaN payloads round-trip exactly.
type kvRec struct {
	vid uint32
	val kvVal
}

// parseRecs derives a record batch from raw fuzz bytes: 15 bytes per record
// (vid, A, B bits, C, D), any order and any duplicates of vids allowed — the
// KV layer itself has no sortedness requirement, only the engine's routing
// does.
func parseRecs(raw []byte) []kvRec {
	var recs []kvRec
	for len(raw) >= 15 && len(recs) < 1024 {
		recs = append(recs, kvRec{
			vid: binary.LittleEndian.Uint32(raw[0:4]),
			val: kvVal{
				A: int32(binary.LittleEndian.Uint32(raw[4:8])),
				B: math.Float32frombits(binary.LittleEndian.Uint32(raw[8:12])),
				C: binary.LittleEndian.Uint16(raw[12:14]),
				D: raw[14]&1 == 1,
			},
		})
		raw = raw[15:]
	}
	return recs
}

func sameVal(a, b kvVal) bool {
	return a.A == b.A && math.Float32bits(a.B) == math.Float32bits(b.B) &&
		a.C == b.C && a.D == b.D
}

// FuzzKVRoundTrip drives the pooled KV codec with arbitrary (vid, value)
// batches: encode/decode must round-trip exactly, re-encoding must be
// byte-for-byte stable, and a taken frame must stay intact while the writer
// keeps encoding through recycled pool buffers (no aliasing).
func FuzzKVRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 15))
	f.Add(bytes.Repeat([]byte{0xFF}, 45))
	seed := make([]byte, 0, 60)
	for i := 0; i < 4; i++ {
		var r [15]byte
		binary.LittleEndian.PutUint32(r[0:4], uint32(i*64+i)) // ascending run
		r[4] = byte(i)
		seed = append(seed, r[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs := parseRecs(raw)
		c := CodecFor[kvVal]()

		var kw KVWriter[kvVal]
		kw.Init(c)
		for i := range recs {
			kw.Append(recs[i].vid, &recs[i].val)
		}
		frame := kw.Take()
		if len(recs) == 0 {
			if frame != nil {
				t.Fatalf("empty batch produced a %d-byte frame", len(frame))
			}
			return
		}
		snapshot := append([]byte(nil), frame...)

		// Round trip.
		var got []kvRec
		if err := DecodeKV(c, frame, func(vid uint32, v *kvVal) {
			got = append(got, kvRec{vid: vid, val: *v})
		}); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("decoded %d records, want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i].vid != recs[i].vid || !sameVal(got[i].val, recs[i].val) {
				t.Fatalf("record %d: got (%d, %+v), want (%d, %+v)",
					i, got[i].vid, got[i].val, recs[i].vid, recs[i].val)
			}
		}

		// Byte-for-byte stability: the same batch encodes identically.
		var kw2 KVWriter[kvVal]
		kw2.Init(c)
		for i := range recs {
			kw2.Append(recs[i].vid, &recs[i].val)
		}
		frame2 := kw2.Take()
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("unstable encoding:\n %x\n %x", frame, frame2)
		}

		// No aliasing: keep encoding through the writer (which draws fresh
		// pool buffers) after recycling the second frame; the first frame
		// must not change.
		PutBuf(frame2)
		for i := range recs {
			kw2.Append(^recs[i].vid, &recs[i].val)
		}
		PutBuf(kw2.Take())
		if !bytes.Equal(frame, snapshot) {
			t.Fatal("taken frame mutated by later encodes through the pool")
		}

		// Decoded copies must survive the frame's recycling.
		PutBuf(frame)
		scribble := GetBufN(len(snapshot) + MinPooledCap)
		for i := range scribble {
			scribble[i] = 0xAA
		}
		for i := range recs {
			if !sameVal(got[i].val, recs[i].val) {
				t.Fatalf("decoded record %d aliased the recycled frame", i)
			}
		}
		PutBuf(scribble)
	})
}

// FuzzDecodeSlots feeds arbitrary frames to the slot-keyed decoder over a
// flat and a padded type: DecodeSlots must store exactly what KVReader plus
// a store at dst[key] stores, fail (with ErrCorrupt) exactly when that
// reference meets a corrupt record or a key outside [lo, len(dst)), never
// panic, and never write a slot below lo or past len(dst).
func FuzzDecodeSlots(f *testing.F) {
	flat, padded := fixedCodec[nested](f), fixedCodec[bcShaped](f)
	frame := func(keys ...uint32) []byte {
		var kw KVWriter[nested]
		kw.Init(flat)
		for _, k := range keys {
			kw.Append(k, &nested{A: int32(k), F: uint64(k) << 40})
		}
		return kw.Take()
	}
	valid := frame(4, 5, 9)
	f.Add(valid, uint8(4), uint8(10))
	f.Add(frame(3, 5), uint8(4), uint8(10))             // a key below the mirror range
	f.Add(frame(4, 10), uint8(4), uint8(10))            // a key past SlotCount
	overflow := binary.AppendUvarint(frame(5), 1<<64-2) // delta +MaxInt64 after key 5
	f.Add(append(overflow, valid[1:33]...), uint8(0), uint8(10))
	f.Add(valid[:len(valid)-1], uint8(4), uint8(10)) // a truncated value
	f.Add([]byte{}, uint8(4), uint8(10))             // an empty frame
	f.Fuzz(func(t *testing.T, data []byte, lo, n uint8) {
		fuzzSlots(t, flat, data, int(lo), int(n))
		fuzzSlots(t, padded, data, int(lo), int(n))
	})
}

func fuzzSlots[V any](t *testing.T, c Codec[V], data []byte, lo, n int) {
	lo = min(lo, n)
	wire, _ := FixedSize(c)
	poison := bytes.Repeat([]byte{0xa5}, (n+2)*wire)
	backing, want := make([]V, n+2), make([]V, n+2)
	DecodeValues(c, poison, backing)
	DecodeValues(c, poison, want)
	err := DecodeSlots(c, data, backing[:n], lo)

	var r KVReader[V]
	r.Init(c)
	r.Reset(data)
	var werr error
	for {
		key, v, ok := r.Next()
		if !ok {
			werr = r.Err()
			break
		}
		if int(key) < lo || int(key) >= n {
			werr = ErrCorrupt
			break
		}
		want[key] = *v
	}
	if (err == nil) != (werr == nil) || err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeSlots: %v; KVReader and store: %v", err, werr)
	}
	if !bytes.Equal(AppendValues(c, nil, backing), AppendValues(c, nil, want)) {
		t.Fatalf("DecodeSlots stored slots other than the reference's (lo %d, %d slots, err %v)", lo, n, err)
	}
}
