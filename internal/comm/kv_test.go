package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

type kvVal struct {
	A int32
	B float32
	C uint16
	D bool
}

func encodeBatch(t *testing.T, c Codec[kvVal], recs []struct {
	vid uint32
	val kvVal
}) []byte {
	t.Helper()
	var kw KVWriter[kvVal]
	kw.Init(c)
	for i := range recs {
		kw.Append(recs[i].vid, &recs[i].val)
	}
	return kw.Take()
}

func TestKVRoundTripSorted(t *testing.T) {
	c := CodecFor[kvVal]()
	recs := []struct {
		vid uint32
		val kvVal
	}{
		{0, kvVal{A: -1, B: 0.5, C: 7, D: true}},
		{1, kvVal{A: 42}},
		{63, kvVal{B: float32(math.Inf(1))}},
		{64, kvVal{C: math.MaxUint16}},
		{1 << 30, kvVal{A: math.MinInt32, D: true}},
	}
	frame := encodeBatch(t, c, recs)
	// Sorted ascending vids: every delta after the first fits one byte for
	// adjacent ids, and the frame decodes to exactly the input records.
	var got []struct {
		vid uint32
		val kvVal
	}
	if err := DecodeKV(c, frame, func(vid uint32, v *kvVal) {
		got = append(got, struct {
			vid uint32
			val kvVal
		}{vid, *v})
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestKVWriterFrameSelfContained(t *testing.T) {
	c := CodecFor[kvVal]()
	var kw KVWriter[kvVal]
	kw.Init(c)
	v := kvVal{A: 1}
	kw.Append(1000, &v)
	f1 := kw.Take()
	kw.Append(1000, &v)
	f2 := kw.Take()
	// Take resets the delta base: a vid costs the same in both frames, so
	// frames survive reordering and retry (chaos transport) independently.
	if !bytes.Equal(f1, f2) {
		t.Fatalf("frames differ after Take reset: %x vs %x", f1, f2)
	}
}

// TestKVWriterFlatMatchesReflect pins KVWriter's one-copy path for a flat
// type to the per-field encoding: the same records through the FixedCodec
// and through ReflectCodec give the same frame, and it decodes back.
func TestKVWriterFlatMatchesReflect(t *testing.T) {
	var v nested
	v.A, v.In.B, v.In.D, v.E, v.F = -7, 9, [4]int8{-1, 2, -3, 4}, [3]float32{0.5, -2, 8}, 1<<63|3
	keys := []uint32{0, 3, 4, 200, 1 << 20}
	frame := func(c Codec[nested]) []byte {
		var kw KVWriter[nested]
		kw.Init(c)
		for i, k := range keys {
			w := v
			w.A += int32(i)
			kw.Append(k, &w)
		}
		return kw.Take()
	}
	flat, ref := frame(fixedCodec[nested](t)), frame(NewReflectCodec[nested]())
	if !bytes.Equal(flat, ref) {
		t.Fatalf("flat frame\n%x\nwant per-field\n%x", flat, ref)
	}
	i := 0
	if err := DecodeKV(Codec[nested](fixedCodec[nested](t)), flat, func(k uint32, got *nested) {
		want := v
		want.A += int32(i)
		if k != keys[i] || *got != want {
			t.Fatalf("record %d: (%d, %+v), want (%d, %+v)", i, k, *got, keys[i], want)
		}
		i++
	}); err != nil || i != len(keys) {
		t.Fatalf("decoded %d of %d records, err %v", i, len(keys), err)
	}
}

func TestKVDecodeRejectsCorrupt(t *testing.T) {
	c := CodecFor[kvVal]()
	v := kvVal{A: 7}
	var kw KVWriter[kvVal]
	kw.Init(c)
	kw.Append(5, &v)
	frame := kw.Take()
	for cut := 1; cut < len(frame); cut++ {
		if err := DecodeKV(c, frame[:cut], func(uint32, *kvVal) {}); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(frame))
		}
	}
	// A delta walking the vid negative must be rejected, not wrapped.
	bad := binary.AppendUvarint(nil, zigzag(-1))
	if err := DecodeKV(c, bad, func(uint32, *kvVal) {}); err == nil {
		t.Fatal("negative vid delta not detected")
	}
}

func TestVIDDeltaZigzag(t *testing.T) {
	for _, c := range []struct{ prev, cur uint32 }{
		{0, 0}, {0, 1}, {1, 0}, {100, 101}, {101, 100},
		{0, math.MaxUint32}, {math.MaxUint32, 0}, {1 << 31, 1<<31 - 1},
	} {
		buf := AppendVIDDelta(nil, c.prev, c.cur)
		got, n, err := ReadVIDDelta(buf, c.prev)
		if err != nil || n != len(buf) || got != c.cur {
			t.Fatalf("delta %d->%d: got %d (n=%d, err=%v)", c.prev, c.cur, got, n, err)
		}
	}
	// Ascending runs of adjacent ids must cost one byte per vid.
	if b := AppendVIDDelta(nil, 1000, 1001); len(b) != 1 {
		t.Fatalf("adjacent ascending delta costs %d bytes, want 1", len(b))
	}
}

func TestPoolGate(t *testing.T) {
	small := make([]byte, 0, 16)
	PutBuf(small) // must be ignored, not pooled
	b := GetBuf()
	if cap(b) < MinPooledCap {
		t.Fatalf("GetBuf returned cap %d < MinPooledCap", cap(b))
	}
	n := MinPooledCap * 3
	bn := GetBufN(n)
	if len(bn) != n {
		t.Fatalf("GetBufN(%d) returned len %d", n, len(bn))
	}
	PutBuf(b)
	PutBuf(bn)
}

// TestPoolRecycleAllocFree pins that recycling a frame allocates nothing:
// the pool's boxes circulate with the buffers instead of being made per Put.
func TestPoolRecycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	PutBuf(GetBuf()) // warm the pool and the box free list
	if n := testing.AllocsPerRun(100, func() { PutBuf(GetBuf()) }); n != 0 {
		t.Fatalf("a GetBuf/PutBuf round trip allocates %.1f times, want 0", n)
	}
}

// TestFixedCodecMatchesReflect pins the wire compatibility CodecFor relies
// on: for flat fixed-width types the fixed and reflection codecs must emit
// identical bytes and decode each other's output.
func TestFixedCodecMatchesReflect(t *testing.T) {
	type flat struct {
		A int8
		B uint8
		C int16
		D uint32
		E int64
		F float32
		G float64
		H bool
		I [3]int32
		J struct {
			X uint64
			Y int
		}
		K uint
	}
	fc, ok := NewFixedCodec[flat]()
	if !ok {
		t.Fatal("NewFixedCodec rejected a flat struct")
	}
	rc := NewReflectCodec[flat]()
	f := func(a int8, b uint8, c int16, d uint32, e int64, fl float32, g float64, h bool, i0, i1, i2 int32, x uint64, y int, k uint) bool {
		v := flat{A: a, B: b, C: c, D: d, E: e, F: fl, G: g, H: h, I: [3]int32{i0, i1, i2}, K: k}
		v.J.X = x
		v.J.Y = y
		fb := fc.Append(nil, &v)
		rb := rc.Append(nil, &v)
		if !bytes.Equal(fb, rb) {
			t.Logf("fixed %x != reflect %x", fb, rb)
			return false
		}
		var back flat
		n, err := fc.Decode(rb, &back)
		if err != nil || n != len(rb) || back != v {
			t.Logf("fixed decode of reflect bytes: %+v err=%v", back, err)
			return false
		}
		var back2 flat
		if _, err := rc.Decode(fb, &back2); err != nil || back2 != v {
			t.Logf("reflect decode of fixed bytes: %+v err=%v", back2, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedCodecRejectsVariableKinds(t *testing.T) {
	if _, ok := NewFixedCodec[struct{ S []int32 }](); ok {
		t.Fatal("slice field accepted")
	}
	if _, ok := NewFixedCodec[struct{ S string }](); ok {
		t.Fatal("string field accepted")
	}
	if _, ok := NewFixedCodec[struct{ P *int }](); ok {
		t.Fatal("pointer field accepted")
	}
}

func TestFixedCodecShortBuffer(t *testing.T) {
	fc, _ := NewFixedCodec[kvVal]()
	v := kvVal{A: 1, B: 2, C: 3, D: true}
	enc := fc.Append(nil, &v)
	if len(enc) != fc.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), fc.WireSize())
	}
	var back kvVal
	if _, err := fc.Decode(enc[:len(enc)-1], &back); err == nil {
		t.Fatal("short buffer not detected")
	}
}

// TestDecodeSlotsRejects pins the slot-keyed decoder's contract on a flat
// type: a valid frame lands at its keys, and a key below the mirror range, a
// key past the slot count, an overflowing delta and a truncated value are
// each ErrCorrupt with no write outside [lo, len(dst)).
func TestDecodeSlotsRejects(t *testing.T) {
	c := fixedCodec[nested](t)
	frame := func(keys ...uint32) []byte {
		var kw KVWriter[nested]
		kw.Init(c)
		for _, k := range keys {
			kw.Append(k, &nested{A: int32(k)})
		}
		return kw.Take()
	}
	dst := make([]nested, 12)
	if err := DecodeSlots(c, frame(4, 5, 9), dst[:10], 4); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if want := map[int]int32{4: 4, 5: 5, 9: 9}[i]; dst[i].A != want {
			t.Fatalf("slot %d holds %d, want %d", i, dst[i].A, want)
		}
	}
	valid := frame(4)
	hostile := map[string][]byte{
		"below":     frame(3),
		"past":      frame(4, 10),
		"overflow":  append(binary.AppendUvarint(frame(5), 1<<64-2), valid[1:]...),
		"truncated": valid[:len(valid)-1],
	}
	for name, data := range hostile {
		dst := make([]nested, 12)
		if err := DecodeSlots(c, data, dst[:10], 4); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err %v, want ErrCorrupt", name, err)
		}
		for i := range dst {
			if (i < 4 || i >= 10) && dst[i] != (nested{}) {
				t.Fatalf("%s: slot %d outside [4, 10) written", name, i)
			}
		}
	}
}
