package concolic

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/sym"
)

// Exploration results can be cached and reused multiple times (§5.4): the
// differential tester only needs each path's solver witness, exit
// condition and the variable universe, all of which serialize. This file
// implements a JSON round trip so explorations survive across processes:
// it is the exploration codec of the persistent cache (internal/excache),
// which every campaign, verify-ir sweep and difftest run shares.

type varDTO struct {
	ID      int `json:"id"`
	Kind    int `json:"kind"`
	Index   int `json:"index"`
	OwnerID int `json:"owner"`
}

type valueDTO struct {
	Kind       int     `json:"kind"`
	Int        int64   `json:"int,omitempty"`
	Float      float64 `json:"float,omitempty"`
	ClassIndex int     `json:"class,omitempty"`
	Format     uint8   `json:"format,omitempty"`
	SlotCount  int     `json:"slots,omitempty"`
}

type modelDTO struct {
	StackSize int                 `json:"stackSize"`
	Values    map[string]valueDTO `json:"values,omitempty"`
	Alias     map[string]int      `json:"alias,omitempty"`
}

type exitDTO struct {
	Kind     int    `json:"kind"`
	NextPC   int    `json:"nextPC,omitempty"`
	Selector string `json:"selector,omitempty"`
	NumArgs  int    `json:"numArgs,omitempty"`
	FailCode int    `json:"failCode,omitempty"`
}

type pathDTO struct {
	Constraints []string `json:"constraints"`
	Model       modelDTO `json:"model"`
	Exit        exitDTO  `json:"exit"`
}

type explorationDTO struct {
	Name       string    `json:"name"`
	Kind       int       `json:"kind"`
	PrimIndex  int       `json:"primIndex,omitempty"`
	PrimArgs   int       `json:"primArgs,omitempty"`
	Opcode     int       `json:"opcode,omitempty"`
	Vars       []varDTO  `json:"vars"`
	Paths      []pathDTO `json:"paths"`
	CuratedOut int       `json:"curatedOut"`
	Iterations int       `json:"iterations"`
	DurationNS int64     `json:"durationNs"`
}

// MarshalExploration serializes an exploration. Constraint paths are
// stored in display form (sufficient for reporting and signature-based
// deduplication); solver witnesses round-trip exactly, so cached
// explorations drive differential testing unchanged.
func MarshalExploration(ex *Exploration) ([]byte, error) {
	return json.MarshalIndent(explorationDTOOf(ex), "", " ")
}

func explorationDTOOf(ex *Exploration) explorationDTO {
	dto := explorationDTO{
		Name:       ex.Target.Name,
		Kind:       int(ex.Target.Kind),
		PrimIndex:  ex.Target.PrimIndex,
		PrimArgs:   ex.Target.PrimNumArgs,
		Opcode:     int(ex.Target.Op),
		CuratedOut: ex.CuratedOut,
		Iterations: ex.Iterations,
		DurationNS: ex.Duration.Nanoseconds(),
	}
	for _, v := range ex.Universe.Vars() {
		dto.Vars = append(dto.Vars, varDTO{
			ID: v.ID, Kind: int(v.Role.Kind), Index: v.Role.Index, OwnerID: v.Role.OwnerID,
		})
	}
	for _, p := range ex.Paths {
		pd := pathDTO{
			Model: modelDTO{
				StackSize: p.Model.StackSize,
				Values:    map[string]valueDTO{},
				Alias:     map[string]int{},
			},
			Exit: exitDTO{
				Kind: int(p.Exit.Kind), NextPC: p.Exit.NextPC,
				Selector: p.Exit.Selector, NumArgs: p.Exit.NumArgs,
				FailCode: p.Exit.FailCode,
			},
		}
		for _, c := range p.Path {
			pd.Constraints = append(pd.Constraints, c.C.String())
		}
		for id, tv := range p.Model.Values {
			pd.Model.Values[strconv.Itoa(id)] = valueDTO{
				Kind: int(tv.Kind), Int: tv.Int, Float: tv.Float,
				ClassIndex: tv.ClassIndex, Format: uint8(tv.Format), SlotCount: tv.SlotCount,
			}
		}
		for id, rep := range p.Model.Alias {
			pd.Model.Alias[strconv.Itoa(id)] = rep
		}
		dto.Paths = append(dto.Paths, pd)
	}
	return dto
}

// UnmarshalExploration reconstructs an exploration from MarshalExploration
// output. Constraint paths come back as opaque display strings carried in
// sym.Bool-wrapped markers — signatures and reports keep working; the
// witnesses, exits and variable universe are exact.
func UnmarshalExploration(data []byte) (*Exploration, error) {
	var dto explorationDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	var target Target
	switch TargetKind(dto.Kind) {
	case TargetBytecode:
		target = BytecodeTarget(byteOp(dto.Opcode))
	case TargetNativeMethod:
		target = NativeMethodTarget(dto.PrimIndex, dto.Name, dto.PrimArgs)
	default:
		return nil, fmt.Errorf("concolic: unknown target kind %d", dto.Kind)
	}
	u := sym.NewUniverse()
	for _, v := range dto.Vars {
		got := u.Of(sym.Role{Kind: sym.RoleKind(v.Kind), Index: v.Index, OwnerID: v.OwnerID})
		if got.ID != v.ID {
			return nil, fmt.Errorf("concolic: variable id drift (%d became %d)", v.ID, got.ID)
		}
	}
	ex := &Exploration{
		Target:     target,
		Universe:   u,
		CuratedOut: dto.CuratedOut,
		Iterations: dto.Iterations,
	}
	ex.Duration = durationFromNS(dto.DurationNS)
	for _, pd := range dto.Paths {
		model := sym.NewModel()
		model.StackSize = pd.Model.StackSize
		for idStr, v := range pd.Model.Values {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return nil, err
			}
			model.Set(id, sym.TypedValue{
				Kind: sym.TypeKind(v.Kind), Int: v.Int, Float: v.Float,
				ClassIndex: v.ClassIndex, Format: heap.Format(v.Format), SlotCount: v.SlotCount,
			})
		}
		for idStr, rep := range pd.Model.Alias {
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return nil, err
			}
			model.Alias[id] = rep
		}
		pr := &PathResult{
			Model: model,
			Exit: interp.Exit{
				Kind: interp.ExitKind(pd.Exit.Kind), NextPC: pd.Exit.NextPC,
				Selector: pd.Exit.Selector, NumArgs: pd.Exit.NumArgs,
				FailCode: pd.Exit.FailCode,
			},
		}
		for _, c := range pd.Constraints {
			pr.Path = append(pr.Path, sym.Condition{C: sym.Opaque{Text: c}})
		}
		ex.Paths = append(ex.Paths, pr)
	}
	return ex, nil
}

// FingerprintExploration hashes the semantic content of an exploration:
// the target descriptor, variable universe, and every path's constraint
// strings, witness and exit condition, as the compact JSON of its
// serialized form. Wall-clock duration is zeroed, so a fresh exploration
// and its cache round trip fingerprint identically (constraints
// serialize to the same display strings either way, and encoding/json
// emits map keys sorted). The differential tester consumes exactly this
// content, which makes the fingerprint a sound cache key for derived
// test-unit results (internal/excache). A witness that JSON cannot
// carry (a NaN) is an error.
func FingerprintExploration(ex *Exploration) (string, error) {
	dto := explorationDTOOf(ex)
	dto.DurationNS = 0
	canon, err := json.Marshal(dto)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

func byteOp(op int) bytecode.Op { return bytecode.Op(op) }

func durationFromNS(ns int64) time.Duration { return time.Duration(ns) }
