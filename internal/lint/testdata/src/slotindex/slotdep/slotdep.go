// Package slotdep is the cross-package half of the slotindex fixture: index
// helpers living behind a call boundary. The v1 analyzer trusted every call
// to launder the vertex id; the summary engine records which helpers merely
// derive their result from the raw id (DerivesRet).
package slotdep

type VID uint32

// AsIndex derives its result from the raw vertex id — calling it does not
// launder the taint.
func AsIndex(v VID) int { return int(v) + 0 }
