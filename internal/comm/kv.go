package comm

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// KV frame wire format
//
// A KV frame is a run of (key, value) records:
//
//	record := key-delta (zigzag uvarint) | value (Codec encoding)
//
// The key is delta-encoded against the previous record's key of the same
// frame, starting from 0, with the signed difference zigzag-mapped to a
// uvarint. The engine routes keys in ascending order, so consecutive deltas
// are small and positive and most keys cost one byte instead of four. Every
// frame restarts at base 0 and is therefore self-contained: frames may be
// dropped or reordered (chaos transport) without corrupting neighbors.
//
// What a key means is the round's: in a necessary-scope mirror sync it is
// the mirror's slot on the receiving worker (DecodeSlots stores the value
// there); in a broadcast-scope sync, a push-accumulation round and the
// cluster gather it is the vertex's global id.

// zigzag maps a signed delta to an unsigned value with small absolute values
// staying small: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ...
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendVIDDelta appends cur delta-encoded against prev.
//
//flash:hotpath
func AppendVIDDelta(dst []byte, prev, cur uint32) []byte {
	return binary.AppendUvarint(dst, zigzag(int64(cur)-int64(prev)))
}

// ReadVIDDelta decodes the next vid given the previous one, returning the vid
// and the bytes consumed.
//
//flash:hotpath
func ReadVIDDelta(src []byte, prev uint32) (uint32, int, error) {
	u, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, 0, errShort
	}
	v := int64(prev) + unzigzag(u)
	if v < 0 || v > 1<<32-1 {
		return 0, 0, fmt.Errorf("comm: vid delta out of range (prev %d)", prev)
	}
	return uint32(v), k, nil
}

// KVWriter encodes a stream of (vid, value) records into a pooled frame
// buffer. The zero value is unusable; call Init first. Take hands the encoded
// frame to the caller (who passes it to Transport.Send, transferring
// ownership to the receiver's drain) and resets the writer for the next
// frame.
type KVWriter[V any] struct {
	codec Codec[V]
	buf   []byte
	prev  uint32
	flat  int // a flat FixedCodec's value size, else 0
}

// Init binds the writer to a codec.
func (kw *KVWriter[V]) Init(c Codec[V]) {
	kw.codec, kw.flat = c, 0
	if fc, ok := c.(*FixedCodec[V]); ok && fc.flat {
		kw.flat = fc.wire
	}
}

// Append encodes one record.
//
//flash:hotpath
func (kw *KVWriter[V]) Append(vid uint32, v *V) {
	if kw.buf == nil {
		kw.buf = GetBuf()
		kw.prev = 0
	}
	buf := AppendVIDDelta(kw.buf, kw.prev, vid)
	kw.prev = vid
	if kw.flat > 0 {
		kw.buf = append(buf, unsafe.Slice((*byte)(unsafe.Pointer(v)), kw.flat)...)
	} else {
		kw.buf = kw.codec.Append(buf, v)
	}
}

// Len returns the encoded size of the pending frame.
func (kw *KVWriter[V]) Len() int { return len(kw.buf) }

// Take returns the pending frame and resets the writer. The returned buffer
// is pool-backed: whoever consumes it releases it with PutBuf (the transports
// do this for delivered frames).
//
//flash:hotpath
func (kw *KVWriter[V]) Take() []byte {
	b := kw.buf
	kw.buf = nil
	kw.prev = 0
	return b
}

// DecodeKV decodes every record of one KV frame, handing each (vid, value)
// pair to apply. The value pointer is only valid during the call: apply must
// copy the value (not the pointer) if it outlives the callback.
func DecodeKV[V any](c Codec[V], data []byte, apply func(vid uint32, v *V)) error {
	var r KVReader[V]
	r.Init(c)
	r.Reset(data)
	for {
		vid, v, ok := r.Next()
		if !ok {
			return r.Err()
		}
		apply(vid, v)
	}
}

// KVReader decodes the records of one KV frame in order. It owns the value
// scratch the records decode into, so a reader held across frames decodes
// without allocating for fixed-width property types. The zero value is
// unusable; call Init first.
type KVReader[V any] struct {
	codec Codec[V]
	data  []byte
	off   int
	prev  uint32
	val   V
	err   error
}

// Init binds the reader to a codec.
func (r *KVReader[V]) Init(c Codec[V]) { r.codec = c }

// Reset starts reading frame data from its first record.
func (r *KVReader[V]) Reset(data []byte) {
	r.data, r.off, r.prev, r.err = data, 0, 0, nil
}

// Next decodes the next record. It returns false at the end of the frame or
// at the first corrupt record, which Err then reports. The value pointer is
// valid until the next call.
//
//flash:hotpath
func (r *KVReader[V]) Next() (uint32, *V, bool) {
	if r.err != nil || r.off >= len(r.data) {
		return 0, nil, false
	}
	vid, k, err := ReadVIDDelta(r.data[r.off:], r.prev)
	if err != nil {
		return r.fail("vid", err)
	}
	r.prev = vid
	r.off += k
	n, err := r.codec.Decode(r.data[r.off:], &r.val)
	if err != nil {
		return r.fail("value", err)
	}
	r.off += n
	return vid, &r.val, true
}

// fail records the corrupt record that stops Next.
func (r *KVReader[V]) fail(what string, err error) (uint32, *V, bool) {
	r.err = fmt.Errorf("%w: kv frame %s at offset %d: %v", ErrCorrupt, what, r.off, err)
	return 0, nil, false
}

// Err returns the error that stopped Next early, or nil after a clean frame.
func (r *KVReader[V]) Err() error { return r.err }

// DecodeSlots decodes one slot-keyed KV frame, storing each record's value
// at dst[key]. A key outside [lo, len(dst)), a bad delta or a bad value stops
// the decode with ErrCorrupt; no slot outside [lo, len(dst)) is ever written.
// A flat FixedCodec value is stored as one copy; any other codec decodes in
// place, so a value that fails to decode may leave its slot partly written.
//
//flash:hotpath
func DecodeSlots[V any](c Codec[V], data []byte, dst []V, lo int) error {
	size, raw := 0, []byte(nil)
	if fc, ok := c.(*FixedCodec[V]); ok && fc.flat {
		size, raw = fc.wire, valueBytes(dst)
	}
	key := int64(0)
	for off := 0; off < len(data); {
		u, k := uint64(data[off]), 1
		if u >= 0x80 {
			if u, k = binary.Uvarint(data[off:]); k <= 0 {
				return fmt.Errorf("%w: kv frame key at offset %d: %v", ErrCorrupt, off, errShort)
			}
		}
		// key >= 0 and |delta| < 2^63: an overflowing sum wraps negative.
		if key += unzigzag(u); key < int64(lo) || key >= int64(len(dst)) {
			return fmt.Errorf("%w: kv frame key %d at offset %d outside slots [%d, %d)", ErrCorrupt, key, off, lo, len(dst))
		}
		off += k
		if size > 0 {
			if len(data)-off < size {
				return fmt.Errorf("%w: kv frame value at offset %d: %v", ErrCorrupt, off, errShort)
			}
			copy(raw[int(key)*size:], data[off:off+size])
			off += size
			continue
		}
		n, err := c.Decode(data[off:], &dst[key])
		if err != nil {
			return fmt.Errorf("%w: kv frame value at offset %d: %v", ErrCorrupt, off, err)
		}
		off += n
	}
	return nil
}
