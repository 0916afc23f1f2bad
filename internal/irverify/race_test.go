//go:build race

package irverify_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Put calls, so pooled scratch is reallocated at
// random and allocation gates measure the detector, not the code.
const raceEnabled = true
