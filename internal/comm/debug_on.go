//go:build flashdebug

package comm

// debugPoison enables frame poisoning: every buffer returned to the pool is
// overwritten with PoisonByte first, so a handler that retained an alias past
// recycling (a recycled frame must not be read after PutBuf) reads garbage
// immediately instead of silently observing the next round's bytes.
const debugPoison = true

// PoisonByte is the fill value stamped over recycled frames under flashdebug.
const PoisonByte = 0xDD

func poisonFrame(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}
