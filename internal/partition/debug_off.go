//go:build !flashdebug

package partition

import "flash/graph"

// DebugAssertions reports whether this binary was built with the flashdebug
// tag (runtime invariant assertions enabled).
const DebugAssertions = false

// assertResident is a no-op in release builds; it compiles away entirely.
func (s *SlotTable) assertResident(graph.VID) {}

// assertPullView is a no-op in release builds.
func assertPullView(*PullView, *SlotTable, *graph.Graph) {}
