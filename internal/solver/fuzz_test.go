package solver

import (
	"testing"

	"cogdiff/internal/sym"
)

// byteSource feeds a fuzzer's bytes to the corpus generator as its
// choices, one byte per choice; once the bytes run out every choice is
// the first, which ends the conjunction.
type byteSource struct{ data []byte }

func (s *byteSource) Intn(n int) int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

// FuzzSolve decodes bytes into a conjunction over a small universe, with
// the corpus generator's atoms, expressions, negations and nesting, and
// requires Solve never to panic and every model it returns to pass Check
// (except on the constructs knownUnsound lists). One of the variables
// has an ID past the universe's end, so the solver's per-variable state
// must be sized by the constraints it reads, not by the universe.
func FuzzSolve(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{3, 0, 1, 2, 11, 4, 5},
		{5, 9, 10, 0, 1, 7, 3, 8, 2, 6, 0, 4, 9},
		{2, 6, 8, 11, 11, 0, 7, 7, 7, 1, 2, 3},
		{4, 8, 9, 5, 5, 2, 1, 6, 6, 6, 3, 3, 0, 9, 7, 11, 10, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u, vars := newCorpusUniverse()
		vars = append(vars, &sym.Var{ID: u.Count() + 5, Role: sym.Role{Kind: sym.RoleStack, Index: 9, OwnerID: -1}})
		src := &byteSource{data: data}
		g := &corpusGen{r: src, vars: vars}
		cs := make([]sym.Constraint, 1+src.Intn(6))
		for i := range cs {
			cs[i] = g.constraint(0)
		}
		m, err := Solve(u, cs)
		if err == nil && !Check(u, m, cs) && !knownUnsound(cs) {
			t.Fatalf("model %s does not satisfy %v", m, cs)
		}
	})
}
