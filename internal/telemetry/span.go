package telemetry

import "time"

// Span times one run of a phase. It is a value type: starting and ending
// a span allocates nothing and takes no lock, because each phase's timer
// lives in the registry from its construction. The zero Span is a no-op.
type Span struct {
	timer *Timer
	start time.Time
}

// StartSpan opens a span for the phase. Its duration lands in the series
// cogdiff_span_seconds{phase="<name>"}. Safe on a nil registry (returns a
// no-op span).
func (r *Registry) StartSpan(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		timer: &r.spans[p],
		start: time.Now(), //cogdiff:allow-nondeterminism span timing is telemetry by definition
	}
}

// End closes the span. No-op for the zero Span.
func (s Span) End() {
	if s.timer == nil {
		return
	}
	s.timer.Observe(time.Since(s.start)) //cogdiff:allow-nondeterminism span timing is telemetry by definition
}
