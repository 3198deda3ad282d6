package comm

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

type oneI32 struct{ A int32 }

type threeU32 struct{ A, B, C uint32 }

type nested struct {
	A  int32
	In struct {
		B, C uint16
		D    [4]int8
	}
	E [3]float32
	F uint64
}

type ints struct {
	I int
	U uint
}

// bcShaped is algo's BC property: 4 bytes of padding after Level.
type bcShaped struct {
	Level int32
	Num   float64
	B     float64
}

// bipShaped is algo's bipartite property: a bool field.
type bipShaped struct {
	Side int32
	Bad  bool
}

// encodeEach is the per-value reference AppendValues must reproduce.
func encodeEach[V any](c Codec[V], dst []byte, vs []V) []byte {
	for i := range vs {
		dst = c.Append(dst, &vs[i])
	}
	return dst
}

// decodeEach is the per-value reference DecodeValues must reproduce.
func decodeEach[V any](c Codec[V], src []byte, vs []V) (int, error) {
	off := 0
	for i := range vs {
		k, err := c.Decode(src[off:], &vs[i])
		if err != nil {
			return 0, err
		}
		off += k
	}
	return off, nil
}

// checkValues compares the bulk codec functions on vs against the per-value
// references, and checks that c takes the copy path exactly when wantFlat.
func checkValues[V any](t *testing.T, name string, c Codec[V], wantFlat bool, vs []V) {
	t.Helper()
	fc, fixed := c.(*FixedCodec[V])
	if flat := fixed && fc.flat; flat != wantFlat {
		t.Fatalf("%s: flat = %v, want %v", name, flat, wantFlat)
	}
	prefix := []byte{0xa5, 0x5a}
	want := encodeEach(c, append([]byte(nil), prefix...), vs)
	got := AppendValues(c, append([]byte(nil), prefix...), vs)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: bulk encoding\n%x\nwant per-value\n%x", name, got, want)
	}
	enc := want[len(prefix):]
	if wire, ok := FixedSize(c); ok && len(enc) != len(vs)*wire {
		t.Fatalf("%s: %d bytes for %d values of %d", name, len(enc), len(vs), wire)
	}
	if ref := encodeEach(Codec[V](NewReflectCodec[V]()), nil, vs); fixed && !bytes.Equal(enc, ref) {
		t.Fatalf("%s: fixed encoding\n%x\nwant ReflectCodec's\n%x", name, enc, ref)
	}

	// Round trip, with trailing bytes the decode must leave alone.
	back := make([]V, len(vs))
	n, err := DecodeValues(c, append(append([]byte(nil), enc...), 1, 2, 3), back)
	if err != nil || n != len(enc) {
		t.Fatalf("%s: decode consumed %d of %d bytes, err %v", name, n, len(enc), err)
	}
	if re := encodeEach(c, nil, back); !bytes.Equal(re, enc) {
		t.Fatalf("%s: round trip re-encodes as\n%x\nwant\n%x", name, re, enc)
	}

	if _, err := DecodeValues(c, enc[:len(enc)-1], back); !errors.Is(err, errShort) {
		t.Fatalf("%s: short buffer: err %v, want errShort", name, err)
	}
	if got := AppendValues(c, prefix, nil); !bytes.Equal(got, prefix) {
		t.Fatalf("%s: empty append wrote %x", name, got[len(prefix):])
	}
	if n, err := DecodeValues(c, enc, []V{}); n != 0 || err != nil {
		t.Fatalf("%s: empty decode: %d, %v", name, n, err)
	}
}

func fixedCodec[V any](t testing.TB) *FixedCodec[V] {
	t.Helper()
	c, ok := NewFixedCodec[V]()
	if !ok {
		t.Fatal("no fixed codec")
	}
	return c
}

func TestAppendValuesMatchesPerValue(t *testing.T) {
	checkValues(t, "struct{int32}", fixedCodec[oneI32](t), true,
		[]oneI32{{0}, {-1}, {math.MaxInt32}, {math.MinInt32}, {42}})
	checkValues(t, "3×uint32", fixedCodec[threeU32](t), true,
		[]threeU32{{1, 2, 3}, {math.MaxUint32, 0, 1 << 31}})
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	checkValues(t, "float64", fixedCodec[float64](t), true,
		[]float64{nan, math.Copysign(0, -1), math.Inf(-1), 1.5, math.SmallestNonzeroFloat64})
	checkValues(t, "[4]int16", fixedCodec[[4]int16](t), true,
		[][4]int16{{1, -2, 3, -4}, {math.MinInt16, math.MaxInt16, 0, -1}})
	var nv nested
	nv.A, nv.In.B, nv.In.C, nv.In.D, nv.E, nv.F = -3, 7, 0xffff, [4]int8{-128, 127, 0, 1}, [3]float32{-0.5, 2, 0}, 1<<63|5
	checkValues(t, "nested", fixedCodec[nested](t), true, []nested{nv, {}, nv})
	checkValues(t, "int/uint", fixedCodec[ints](t), true,
		[]ints{{-1 << 40, 1<<64 - 1}, {math.MaxInt64, 0}, {math.MinInt64, 9}})
	checkValues(t, "bc-shaped (padded)", fixedCodec[bcShaped](t), false,
		[]bcShaped{{3, 2.5, -1}, {-1, nan, 0}})
	checkValues(t, "bip-shaped (bool)", fixedCodec[bipShaped](t), false,
		[]bipShaped{{0, true}, {1, false}, {-1, true}})
	checkValues(t, "reflect (slice)", Codec[sliceProps](NewReflectCodec[sliceProps]()), false,
		[]sliceProps{{Out: []uint32{1, 2}, Name: "a"}, {Count: -9, Nest: []inner{{5, true}}}})
}

// FuzzDecodeValues decodes arbitrary bytes into count values of a flat and a
// non-flat type: DecodeValues and the per-value loop must agree on accepting
// or rejecting (with the same error), on the consumed count and on the
// values.
func FuzzDecodeValues(f *testing.F) {
	flat, bc := fixedCodec[nested](f), fixedCodec[bcShaped](f)
	vs := []nested{{A: 1, F: 2}, {A: -1}}
	f.Add(AppendValues(flat, nil, vs), uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint8) {
		fuzzValues(t, flat, data, int(count))
		fuzzValues(t, bc, data, int(count))
	})
}

func fuzzValues[V any](t *testing.T, c Codec[V], data []byte, count int) {
	got, want := make([]V, count), make([]V, count)
	n, err := DecodeValues(c, data, got)
	m, werr := decodeEach(c, data, want)
	if (err == nil) != (werr == nil) || n != m {
		t.Fatalf("bulk: %d, %v; per value: %d, %v", n, err, m, werr)
	}
	if err != nil {
		if !errors.Is(err, werr) {
			t.Fatalf("bulk error %v does not wrap %v", err, werr)
		}
		return
	}
	if !bytes.Equal(encodeEach(c, nil, got), encodeEach(c, nil, want)) {
		t.Fatalf("bulk and per-value decodes differ")
	}
}
