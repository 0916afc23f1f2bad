//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Put calls, so pooled environments are rebooted
// at random and allocation gates measure the detector, not the code.
const raceEnabled = true
