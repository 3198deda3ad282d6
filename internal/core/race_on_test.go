//go:build race

package core

// raceEnabled reports a -race build: allocation guards skip under it.
const raceEnabled = true
