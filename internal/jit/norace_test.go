//go:build !race

package jit

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
