package comm

import "sync"

// MinPooledCap is the smallest capacity the frame pool hands out or takes
// back. The gate lets the transports recycle delivered frames blindly: every
// buffer the engine encodes into comes from GetBuf (cap >= MinPooledCap), so
// a frame below the gate is an ad-hoc caller slice that must not enter the
// pool.
const MinPooledCap = 1 << 12

// bufPool holds recycled frames, each in a *[]byte box: a sync.Pool stores
// interfaces, and only a pointer converts to one without allocating. The
// boxes themselves circulate through boxPool — GetBuf empties its box into
// boxPool and PutBuf refills one from there — so a steady stream of frames
// recycles without allocating a box per frame.
var (
	bufPool = sync.Pool{
		New: func() any {
			b := make([]byte, 0, MinPooledCap)
			return &b
		},
	}
	boxPool sync.Pool
)

// GetBuf returns an empty frame buffer from the pool for append-style
// encoding. Release it with PutBuf once no reader can still hold it.
//
//flash:hotpath
func GetBuf() []byte {
	return takeSlice()[:0]
}

// GetBufN returns a length-n frame buffer from the pool (for index-style
// filling, e.g. the TCP read path).
//
//flash:hotpath
func GetBufN(n int) []byte {
	b := takeSlice()
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

// takeSlice unboxes a pooled frame and returns its empty box to boxPool.
func takeSlice() []byte {
	box := bufPool.Get().(*[]byte)
	b := *box
	*box = nil
	boxPool.Put(box)
	return b
}

func putSlice(b []byte) {
	if cap(b) == 0 {
		return
	}
	if debugPoison {
		poisonFrame(b[:cap(b)])
	}
	box, _ := boxPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	bufPool.Put(box)
}
