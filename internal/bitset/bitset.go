// Package bitset provides a dense, fixed-capacity bitmap used throughout the
// runtime for vertex subsets, mirror masks, and frontier bitmaps.
//
// The zero value is an empty bitset of capacity zero; use New to allocate one
// with a given capacity. Methods that combine two bitsets require equal
// capacities and panic otherwise: sets of different capacity indicate a
// programming error (mixing vertex universes), not a recoverable condition.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitset is a fixed-capacity set of integers in [0, Cap).
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty bitset with capacity n.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Cap returns the capacity (the exclusive upper bound on members).
func (b *Bitset) Cap() int { return b.n }

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.n))
	}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet adds i and reports whether it was already present.
func (b *Bitset) TestAndSet(i int) bool {
	b.check(i)
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	old := b.words[w]&m != 0
	b.words[w] |= m
	return old
}

// Count returns the number of members.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (b *Bitset) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset removes all members.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill adds every integer in [0, Cap).
func (b *Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim clears bits at positions >= n in the last word.
func (b *Bitset) trim() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of o (capacities must match).
func (b *Bitset) CopyFrom(o *Bitset) {
	b.sameCap(o)
	copy(b.words, o.words)
}

func (b *Bitset) sameCap(o *Bitset) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", b.n, o.n))
	}
}

// Union adds every member of o to b.
func (b *Bitset) Union(o *Bitset) {
	b.sameCap(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Intersect removes members of b not present in o.
func (b *Bitset) Intersect(o *Bitset) {
	b.sameCap(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// Minus removes every member of o from b.
func (b *Bitset) Minus(o *Bitset) {
	b.sameCap(o)
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Equal reports whether b and o contain exactly the same members.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range o.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// Range calls f for each member in ascending order, stopping early if f
// returns false.
func (b *Bitset) Range(f func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			if !f(wi*wordBits + t) {
				return
			}
			w &= w - 1
		}
	}
}

// Words exposes the backing words for bulk transfer (e.g. frontier
// broadcast). The slice must not be resized by callers.
func (b *Bitset) Words() []uint64 { return b.words }

// SetWords overwrites the backing words from src, which must have been
// produced by Words on a bitset of the same capacity.
func (b *Bitset) SetWords(src []uint64) {
	if len(src) != len(b.words) {
		panic("bitset: word length mismatch")
	}
	copy(b.words, src)
	b.trim()
}

// String renders the set as {a, b, c} for debugging.
func (b *Bitset) String() string {
	s := "{"
	first := true
	b.Range(func(i int) bool {
		if !first {
			s += " "
		}
		first = false
		s += fmt.Sprint(i)
		return true
	})
	return s + "}"
}
