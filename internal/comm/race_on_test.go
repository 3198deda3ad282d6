//go:build race

package comm

// raceEnabled reports a -race build: allocation guards skip under it.
const raceEnabled = true
