package osm

import "fmt"

// Engine selects the director's execution engine. All engines produce
// the identical transition schedule — the differential tests in
// internal/experiments check this trace-for-trace — and differ only in
// how much work a control step costs:
//
//   - EngineEvent (the default) is the event-driven scheduler of
//     director_event.go: machines sleep on the managers that refused
//     them and only woken machines are re-evaluated.
//   - EngineScan is the reference scheduler, the paper's Figure 3
//     executed verbatim over the full machine population every step.
//   - EngineCompiled keeps the event-driven scheduling but executes
//     guards through a compiled guard program (compiled.go): flat
//     per-edge instruction arrays with pre-resolved managers,
//     pre-computed identifier slots and concrete-type fast paths for
//     the built-in managers, so the hot loop runs without interface
//     dispatch. The interpreted engines remain the differential
//     oracle.
//   - EngineGenerated also keeps the event-driven scheduling but
//     executes guards through generated Go edge functions
//     (generated.go) attached with Director.AttachGenerated — one
//     monomorphic function per edge, typically emitted by
//     internal/osm/gen from the same elaborated structures Compile
//     consumes, with When predicates and manager fast paths inlined
//     at source level.
type Engine uint8

const (
	// EngineEvent is the event-driven scheduler (the default).
	EngineEvent Engine = iota
	// EngineScan is the reference Figure 3 scan scheduler.
	EngineScan
	// EngineCompiled executes compiled guard programs under
	// event-driven scheduling.
	EngineCompiled
	// EngineGenerated executes generated Go edge functions under
	// event-driven scheduling (see Director.AttachGenerated).
	EngineGenerated
)

// String returns the engine's canonical spelling, as accepted by
// ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineScan:
		return "scan"
	case EngineCompiled:
		return "compiled"
	case EngineGenerated:
		return "generated"
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine parses an engine name. The empty string selects the
// default event-driven engine, matching the zero value of Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "event":
		return EngineEvent, nil
	case "scan":
		return EngineScan, nil
	case "compiled":
		return EngineCompiled, nil
	case "generated":
		return EngineGenerated, nil
	}
	return EngineEvent, fmt.Errorf("osm: unknown engine %q (want scan, event, compiled or generated)", s)
}

// engine resolves the effective engine for the next step: a custom
// Rank forces the reference scan (the event-driven schedulers require
// age-based ranking), otherwise the Engine field decides.
func (d *Director) engine() Engine {
	if d.Rank != nil {
		return EngineScan
	}
	return d.Engine
}
