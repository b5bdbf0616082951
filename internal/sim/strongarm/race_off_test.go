//go:build !race

package strongarm

const raceEnabled = false
