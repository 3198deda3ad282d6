//go:build flashdebug

package graph

import "fmt"

// debugPoison overwrites an arena leaving residency with an out-of-range vid,
// so a reader still holding the block after its Release sees a neighbor no
// graph has — which faults in the engine's slot lookup — instead of another
// block's plausible adjacency.
func debugPoison(b *DecodedBlock) {
	adj := b.adj[:cap(b.adj)]
	for i := range adj {
		adj[i] = ^VID(0)
	}
}

// debugAssertUnpinned panics, under c.mu, when any block is still pinned:
// called at superstep boundaries, where a surviving pin is a leak that would
// shrink the evictable cache for the rest of the run.
func (c *BlockCache) debugAssertUnpinned() {
	for d := range c.slots {
		for idx := range c.slots[d] {
			if pins := c.slots[d][idx].pins; pins != 0 {
				panic(fmt.Sprintf("flashdebug: block %d/%d still holds %d pin(s) at a superstep boundary", d, idx, pins))
			}
		}
	}
}
