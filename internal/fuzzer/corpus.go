package fuzzer

import (
	"encoding/json"
	"fmt"
	"math/rand" //cogdiff:allow-nondeterminism fuzzer RNG is explicitly seeded; runs replay from the seed
	"os"
	"path/filepath"
	"strings"
)

// The corpus persists as JSON: a versioned envelope, indented for
// diffability, reconstructed explicitly on load. The same file
// round-trips between runs, so a fuzzing campaign is resumable.

type corpusDTO struct {
	Version int    `json:"version"`
	Entries []*Seq `json:"entries"`
}

const corpusVersion = 1

// SaveCorpus writes entries to path.
func SaveCorpus(path string, entries []*Seq) error {
	data, err := json.MarshalIndent(corpusDTO{Version: corpusVersion, Entries: entries}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCorpus reads a corpus file; a missing file is an empty corpus.
// Malformed entries are dropped (the engine re-checks every genome
// anyway).
func LoadCorpus(path string) ([]*Seq, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var dto corpusDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("fuzzer: corpus %s: %w", path, err)
	}
	if dto.Version != corpusVersion {
		return nil, fmt.Errorf("fuzzer: corpus %s has version %d, want %d", path, dto.Version, corpusVersion)
	}
	var out []*Seq
	for _, s := range dto.Entries {
		if s != nil && s.Check() == nil {
			out = append(out, s)
		}
	}
	return out, nil
}

// LoadGoFuzzSeeds reads a `go test fuzz v1` seed directory in the
// FuzzSequenceDiff format — four int64 lines: generator seed, receiver,
// arg0, arg1 — and regenerates each seed through the shared agreement
// grammar, exactly as the native harness does. Both fuzzing paths
// therefore share one corpus format.
func LoadGoFuzzSeeds(dir string) ([]*Seq, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Seq
	for _, ent := range ents { // ReadDir sorts by name: deterministic order
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		s, err := parseGoFuzzSeed(string(data))
		if err != nil {
			return nil, fmt.Errorf("fuzzer: seed %s: %w", ent.Name(), err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parseGoFuzzSeed(text string) (*Seq, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 1 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, fmt.Errorf("not a go test fuzz v1 file")
	}
	var vals []int64
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line, "int64(%d)", &v); err != nil {
			return nil, fmt.Errorf("bad corpus line %q", line)
		}
		vals = append(vals, v)
	}
	if len(vals) != 4 {
		return nil, fmt.Errorf("want 4 int64 values, got %d", len(vals))
	}
	return SeedFromTuple(vals[0], vals[1], vals[2], vals[3]), nil
}

// SeedFromTuple regenerates the genome the native FuzzSequenceDiff
// harness derives from one fuzzed (seed, receiver, arg0, arg1) tuple.
func SeedFromTuple(seed, receiver, arg0, arg1 int64) *Seq {
	rng := rand.New(rand.NewSource(seed))
	numArgs := rng.Intn(3)
	s := RandomSeq(rng, numArgs, ProfileAgreement)
	s.Receiver = IntValue(ClampInt(receiver))
	for i, v := range []int64{arg0, arg1} {
		if i < numArgs {
			s.Args[i] = IntValue(ClampInt(v))
		}
	}
	return s
}
