//go:build !flashdebug

package graph

// The arena poison and the pin-leak assertion compile away in release builds.

func debugPoison(*DecodedBlock) {}

func (c *BlockCache) debugAssertUnpinned() {}
