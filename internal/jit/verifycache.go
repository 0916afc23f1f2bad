package jit

import (
	"sync"

	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
)

// The verified-clean cache. A campaign compiles the same byte-code
// method once per (path, ISA, variant) unit, and the IR entering each
// verification stage is a pure function of (method, variant, defects) —
// so across a run the verifier sees a handful of distinct functions
// thousands of times. Caching the verdict "this (input, output) stage
// pair verified clean" by content hash turns all but the first sighting
// into a lookup.
//
// Only clean verdicts are cached: any miss — including every defective
// unit — re-runs the full verifier, so violations, their ordering and
// their blame strings are byte-for-byte what an uncached run produces.
// The cache changes how often the verifier computes, never what it
// concludes.

// verifyKey identifies one verification stage by the 128-bit content
// hash of the stage's input function (zero for the front-end stage),
// the hash of its output, and the deopt-requirement bit.
type verifyKey struct {
	prevLo, prevHi uint64
	fnLo, fnHi     uint64
	requireDeopt   bool
}

// verifyCacheLimit bounds the clean-verdict set; at ~80 bytes per entry
// the full cache stays under a few megabytes. The bound comfortably
// holds every stage pair of a whole-catalog campaign (tens of
// thousands), because a reset mid-campaign would put cold-miss analyze
// cost back on the steady-state path. Reaching the limit resets the
// cache (correctness is unaffected — entries only save work).
const verifyCacheLimit = 1 << 16

var verifyCache = struct {
	sync.RWMutex
	m map[verifyKey]struct{}
}{m: make(map[verifyKey]struct{})}

func verifiedClean(k verifyKey) bool {
	verifyCache.RLock()
	_, ok := verifyCache.m[k]
	verifyCache.RUnlock()
	return ok
}

func recordVerifiedClean(k verifyKey) {
	verifyCache.Lock()
	if len(verifyCache.m) >= verifyCacheLimit {
		verifyCache.m = make(map[verifyKey]struct{})
	}
	verifyCache.m[k] = struct{}{}
	verifyCache.Unlock()
}

// hashFn computes a 128-bit FNV-1a-style content hash over every field
// of every instruction that the verifier reads, a 64-bit word per round:
// one header word packing the opcode, the three registers and the
// label's length, the immediate when the verifier reads it
// (irverify.ReadsImm, decided by the header), then the label eight
// bytes at a time. The length precedes the bytes, so the encoding of
// what the verifier reads is injective. An immediate it does not read,
// such as a literal a path's code pushes, is left out: functions that
// differ only there get the same verdict, so they share one entry. Two
// functions with equal hashes are, for the cache's purposes, the same
// function; 128 bits keeps the collision probability negligible against
// the verifier's soundness claim.
func hashFn(fn *ir.Fn) (lo, hi uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	lo, hi = offset64, offset64^0x9e3779b97f4a7c15
	mix := func(v uint64) {
		lo = (lo ^ v) * prime64
		hi = (hi ^ (v + 0x9e3779b97f4a7c15)) * prime64
	}
	mix(uint64(len(fn.Instrs)))
	for i := range fn.Instrs {
		ins := &fn.Instrs[i]
		sym := ins.Sym
		mix(uint64(ins.Op) | uint64(ins.Rd)<<8 | uint64(ins.Rs1)<<16 | uint64(ins.Rs2)<<24 | uint64(len(sym))<<32)
		if irverify.ReadsImm(ins) {
			mix(uint64(ins.Imm))
		}
		for len(sym) >= 8 {
			mix(uint64(sym[0]) | uint64(sym[1])<<8 | uint64(sym[2])<<16 | uint64(sym[3])<<24 |
				uint64(sym[4])<<32 | uint64(sym[5])<<40 | uint64(sym[6])<<48 | uint64(sym[7])<<56)
			sym = sym[8:]
		}
		if len(sym) > 0 {
			var v uint64
			for j := len(sym) - 1; j >= 0; j-- {
				v = v<<8 | uint64(sym[j])
			}
			mix(v)
		}
	}
	return lo, hi
}
