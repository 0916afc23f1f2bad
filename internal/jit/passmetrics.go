package jit

import (
	"time"

	"cogdiff/internal/defects"
	"cogdiff/internal/telemetry"
)

// PassMetrics carries pre-resolved telemetry handles for the pass
// pipeline. Compilation runs once per tested path — far too hot to
// format series keys — so the handles are resolved once, when
// the owning Tester is given a registry, and shared read-only by every
// Cogit instance afterwards.
type PassMetrics struct {
	compiled         *telemetry.Counter
	passes           *telemetry.Counter
	perPass          map[string]*telemetry.Timer
	verifyRuns       *telemetry.Counter
	verifyViolations *telemetry.Counter
	verifySeconds    *telemetry.Timer
}

// NewPassMetrics resolves the pipeline instruments against reg: a
// units-compiled counter, a passes-run counter, and one timer per
// distinct pass name across every variant's pipeline.
// Returns nil (a valid no-op) for a nil registry.
func NewPassMetrics(reg *telemetry.Registry, sw defects.Switches) *PassMetrics {
	if reg == nil {
		return nil
	}
	m := &PassMetrics{
		compiled:         reg.Counter(telemetry.MetricUnitsCompiled),
		passes:           reg.Counter(telemetry.MetricPassesRun),
		perPass:          make(map[string]*telemetry.Timer),
		verifyRuns:       reg.Counter(telemetry.MetricIRVerifyRuns),
		verifyViolations: reg.Counter(telemetry.MetricIRVerifyViolations),
		verifySeconds:    reg.Timer(telemetry.MetricIRVerifySeconds),
	}
	for _, v := range []Variant{SimpleStackBasedCogit, StackToRegisterCogit, RegisterAllocatingCogit, MetaJITCogit} {
		for _, p := range PipelineFor(v, sw) {
			if _, ok := m.perPass[p.Name]; !ok {
				m.perPass[p.Name] = reg.Timer(telemetry.MetricPassSeconds, "pass", p.Name)
			}
		}
	}
	return m
}

// unitCompiled counts one successful compilation. No-op on nil.
func (m *PassMetrics) unitCompiled() {
	if m == nil {
		return
	}
	m.compiled.Inc()
}

// observeVerify records one static-verifier run over a stage's output
// and the violations it found. No-op on nil.
func (m *PassMetrics) observeVerify(d time.Duration, violations int) {
	if m == nil {
		return
	}
	m.verifyRuns.Inc()
	m.verifyViolations.Add(int64(violations))
	m.verifySeconds.Observe(d)
}

// observePass records one pass execution. No-op on nil.
func (m *PassMetrics) observePass(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.passes.Inc()
	m.perPass[name].Observe(d)
}
