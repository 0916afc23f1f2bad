//go:build race

package jit

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Put calls, so the verifier's pooled scratch is
// rebuilt at random and allocation gates measure the detector, not the
// code.
const raceEnabled = true
