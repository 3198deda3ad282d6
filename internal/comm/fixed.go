package comm

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"
)

// FixedCodec encodes flat fixed-width property types (bools, sized ints and
// floats, nested structs and arrays thereof) through precomputed unsafe field
// offsets — no reflect.Value boxing per record, which is what made the
// reflection codec allocate on every decode of the hot exchange path. The
// wire format is byte-identical to ReflectCodec's for the supported kinds
// (little-endian fixed width, declaration order, no padding), so the two
// codecs interoperate and tests can cross-check them.
//
// When V's memory layout is its wire encoding (flat: see isFlat), a value
// encodes and decodes as one byte copy, and so does a slice of values
// through AppendValues and DecodeValues.
type FixedCodec[V any] struct {
	fields []fixedField
	wire   int  // total encoded size
	flat   bool // a []V's bytes are its encoding
}

type fixedKind uint8

const (
	fxBool fixedKind = iota
	fx8
	fx16
	fx32
	fx64
	fxInt  // platform int, 8 bytes on the wire
	fxUint // platform uint, 8 bytes on the wire
)

// wireSize is the encoded size of one field of kind k.
func (k fixedKind) wireSize() uintptr {
	switch k {
	case fxBool, fx8:
		return 1
	case fx16:
		return 2
	case fx32:
		return 4
	}
	return 8
}

type fixedField struct {
	off  uintptr
	kind fixedKind
}

// NewFixedCodec builds a FixedCodec for V, reporting ok=false when V contains
// variable-length or reference kinds (strings, slices, maps, pointers) that
// need ReflectCodec.
func NewFixedCodec[V any]() (*FixedCodec[V], bool) {
	var v V
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, false
	}
	c := &FixedCodec[V]{}
	if !c.plan(t, 0) {
		return nil, false
	}
	c.flat = c.isFlat(t.Size())
	return c, true
}

// littleEndian reports whether the host stores integers least significant
// byte first, the wire's byte order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// isFlat reports whether a value of size bytes is laid out in memory exactly
// as it is encoded: no padding (the fields tile [0, size) in declaration
// order), no bool (a copied byte other than 0 or 1 would decode to an
// invalid bool), ints and uints 8 bytes wide, and a little-endian host.
func (c *FixedCodec[V]) isFlat(size uintptr) bool {
	if !littleEndian || size != uintptr(c.wire) {
		return false
	}
	var off uintptr
	for _, f := range c.fields {
		if f.kind == fxBool || (f.kind == fxInt || f.kind == fxUint) && unsafe.Sizeof(int(0)) != 8 || f.off != off {
			return false
		}
		off += f.kind.wireSize()
	}
	return true
}

// plan flattens t (rooted at byte offset off within V) into the field list,
// returning false on an unsupported kind.
func (c *FixedCodec[V]) plan(t reflect.Type, off uintptr) bool {
	add := func(k fixedKind) bool {
		c.fields = append(c.fields, fixedField{off: off, kind: k})
		c.wire += int(k.wireSize())
		return true
	}
	switch t.Kind() {
	case reflect.Bool:
		return add(fxBool)
	case reflect.Int8, reflect.Uint8:
		return add(fx8)
	case reflect.Int16, reflect.Uint16:
		return add(fx16)
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return add(fx32)
	case reflect.Int64, reflect.Uint64, reflect.Float64:
		return add(fx64)
	case reflect.Int:
		return add(fxInt)
	case reflect.Uint:
		return add(fxUint)
	case reflect.Array:
		es := t.Elem().Size()
		for i := 0; i < t.Len(); i++ {
			if !c.plan(t.Elem(), off+uintptr(i)*es) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				return false // unexported: let ReflectCodec produce its panic
			}
			if !c.plan(f.Type, off+f.Offset) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// WireSize returns the fixed encoded size of one value.
func (c *FixedCodec[V]) WireSize() int { return c.wire }

//flash:hotpath
func (c *FixedCodec[V]) Append(dst []byte, v *V) []byte {
	if c.flat {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(v)), c.wire)...)
	}
	p := unsafe.Pointer(v)
	for i := range c.fields {
		f := &c.fields[i]
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case fxBool:
			b := byte(0)
			if *(*bool)(q) {
				b = 1
			}
			dst = append(dst, b)
		case fx8:
			dst = append(dst, *(*byte)(q))
		case fx16:
			dst = binary.LittleEndian.AppendUint16(dst, *(*uint16)(q))
		case fx32:
			dst = binary.LittleEndian.AppendUint32(dst, *(*uint32)(q))
		case fx64:
			dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(q))
		case fxInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(*(*int)(q))))
		case fxUint:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*(*uint)(q)))
		}
	}
	return dst
}

//flash:hotpath
func (c *FixedCodec[V]) Decode(src []byte, v *V) (int, error) {
	if len(src) < c.wire {
		return 0, errShort
	}
	if c.flat {
		return copy(unsafe.Slice((*byte)(unsafe.Pointer(v)), c.wire), src), nil
	}
	p := unsafe.Pointer(v)
	off := 0
	for i := range c.fields {
		f := &c.fields[i]
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case fxBool:
			*(*bool)(q) = src[off] != 0
			off++
		case fx8:
			*(*byte)(q) = src[off]
			off++
		case fx16:
			*(*uint16)(q) = binary.LittleEndian.Uint16(src[off:])
			off += 2
		case fx32:
			*(*uint32)(q) = binary.LittleEndian.Uint32(src[off:])
			off += 4
		case fx64:
			*(*uint64)(q) = binary.LittleEndian.Uint64(src[off:])
			off += 8
		case fxInt:
			*(*int)(q) = int(int64(binary.LittleEndian.Uint64(src[off:])))
			off += 8
		case fxUint:
			*(*uint)(q) = uint(binary.LittleEndian.Uint64(src[off:]))
			off += 8
		}
	}
	return off, nil
}

// FixedSize reports the encoded size of one value when c gives every value
// the same size (a FixedCodec), and ok=false otherwise.
func FixedSize[V any](c Codec[V]) (size int, ok bool) {
	if fc, ok := c.(*FixedCodec[V]); ok {
		return fc.wire, true
	}
	return 0, false
}

// AppendValues appends the encoding of every value in vs to dst: the bytes
// c.Append gives value by value, in one copy when c is a flat FixedCodec.
func AppendValues[V any](c Codec[V], dst []byte, vs []V) []byte {
	if fc, ok := c.(*FixedCodec[V]); ok && fc.flat {
		return append(dst, valueBytes(vs)...)
	}
	for i := range vs {
		dst = c.Append(dst, &vs[i])
	}
	return dst
}

// DecodeValues decodes len(vs) consecutive values from the head of src into
// vs and returns the bytes consumed, in one copy when c is a flat FixedCodec.
// On an error, which names the first value that failed, vs may be partly
// written.
func DecodeValues[V any](c Codec[V], src []byte, vs []V) (int, error) {
	if fc, ok := c.(*FixedCodec[V]); ok && fc.flat {
		n := len(vs) * fc.wire
		if len(src) < n {
			return 0, fmt.Errorf("value %d: %w", len(src)/fc.wire, errShort)
		}
		copy(valueBytes(vs), src)
		return n, nil
	}
	off := 0
	for i := range vs {
		k, err := c.Decode(src[off:], &vs[i])
		if err != nil {
			return 0, fmt.Errorf("value %d: %w", i, err)
		}
		off += k
	}
	return off, nil
}

// valueBytes views vs's backing memory as bytes. V holds no pointers (a
// FixedCodec admits only numbers, and arrays and structs of them), so the
// view may be written.
func valueBytes[V any](vs []V) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), uintptr(len(vs))*unsafe.Sizeof(*new(V)))
}
