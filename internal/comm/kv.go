package comm

import (
	"encoding/binary"
	"fmt"
)

// KV frame wire format
//
// A KV frame is a run of (vid, value) records:
//
//	record := vid-delta (zigzag uvarint) | value (Codec encoding)
//
// The vid is delta-encoded against the previous record's vid of the same
// frame, starting from 0, with the signed difference zigzag-mapped to a
// uvarint. The engine routes vids in ascending order, so consecutive deltas
// are small and positive and most vids cost one byte instead of four. Every
// frame restarts at base 0 and is therefore self-contained: frames may be
// dropped or reordered (chaos transport) without corrupting neighbors.

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
}

// Init binds the writer to a codec.
func (kw *KVWriter[V]) Init(c Codec[V]) { kw.codec = c }

// Append encodes one record.
//
//flash:hotpath
//flash:deterministic
func (kw *KVWriter[V]) Append(vid uint32, v *V) {
	if kw.buf == nil {
		kw.buf = GetBuf()
		kw.prev = 0
	}
	kw.buf = AppendVIDDelta(kw.buf, kw.prev, vid)
	kw.prev = vid
	kw.buf = kw.codec.Append(kw.buf, v)
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
// copy the value (not the pointer) if it outlives the callback, which makes
// the decode allocation-free for fixed-width property types.
//
//flash:hotpath
func DecodeKV[V any](c Codec[V], data []byte, apply func(vid uint32, v *V)) error {
	var val V
	prev := uint32(0)
	off := 0
	for off < len(data) {
		vid, k, err := ReadVIDDelta(data[off:], prev)
		if err != nil {
			return fmt.Errorf("%w: kv frame vid at offset %d: %v", ErrCorrupt, off, err)
		}
		prev = vid
		off += k
		n, err := c.Decode(data[off:], &val)
		if err != nil {
			return fmt.Errorf("%w: kv frame value at offset %d: %v", ErrCorrupt, off, err)
		}
		off += n
		apply(vid, &val)
	}
	return nil
}
