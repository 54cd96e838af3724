//go:build !race

package mctext

const raceEnabled = false
