//go:build race

package flash_test

// raceEnabled reports a -race build: allocation guards skip under it.
const raceEnabled = true
