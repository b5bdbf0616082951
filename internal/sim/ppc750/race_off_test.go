//go:build !race

package ppc750

const raceEnabled = false
