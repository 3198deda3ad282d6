package comm

import "sync"

// MinPooledCap is the smallest capacity the frame pool hands out or takes
// back. The gate lets the transports recycle delivered frames blindly: every
// buffer the engine encodes into comes from GetBuf (cap >= MinPooledCap), so
// a frame below the gate is an ad-hoc caller slice that must not enter the
// pool.
const MinPooledCap = 1 << 12

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MinPooledCap)
		return &b
	},
}

// GetBuf returns an empty frame buffer from the pool for append-style
// encoding. Release it with PutBuf once no reader can still hold it.
//
//flash:hotpath
func GetBuf() []byte {
	return (*(bufPool.Get().(*[]byte)))[:0]
}

// GetBufN returns a length-n frame buffer from the pool (for index-style
// filling, e.g. the TCP read path).
//
//flash:hotpath
func GetBufN(n int) []byte {
	b := *(bufPool.Get().(*[]byte))
	if cap(b) < n {
		putSlice(b)
		c := n
		if c < MinPooledCap {
			c = MinPooledCap
		}
		b = make([]byte, 0, c)
	}
	return b[:n]
}

// PutBuf recycles a frame buffer. Buffers below MinPooledCap are ignored, so
// it is always safe to call on a delivered frame regardless of origin. The
// caller asserts unique ownership: a buffer sent to several destinations must
// be cloned per destination before Send.
//
//flash:hotpath
func PutBuf(b []byte) {
	if cap(b) < MinPooledCap {
		return
	}
	putSlice(b)
}

func putSlice(b []byte) {
	if cap(b) == 0 {
		return
	}
	if debugPoison {
		poisonFrame(b[:cap(b)])
	}
	b = b[:0]
	bufPool.Put(&b)
}
