//go:build !race

package nau

const raceEnabled = false
