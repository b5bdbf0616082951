//go:build race

package strongarm

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation allocates and slows simulation;
// allocation-count assertions skip themselves under it.
const raceEnabled = true
