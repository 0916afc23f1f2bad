// Package use is analyzer test input: registration call sites against
// the real telemetry Registry, checked by constant-folding the name
// argument.
package use

import "cogdiff/internal/telemetry"

const localName = "cogdiff_local_checks_total"

func register(r *telemetry.Registry, dynamic string) {
	r.Counter("cogdiff_campaign_runs_total")
	r.Counter(localName)
	r.Counter("cogdiff_campaign_runs")          // want "must end in"
	r.Counter("bad_name_total", "isa", "amd64") // want "does not match cogdiff_"
	r.Timer("cogdiff_compile_seconds")
	r.Timer("cogdiff_pass_seconds", "pass", "constfold")
	r.Timer("cogdiff_compile_time") // want "must end in"
	r.Counter(dynamic)              // dynamic names cannot be folded: not flagged
}
