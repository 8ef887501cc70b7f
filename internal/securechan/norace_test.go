//go:build !race

package securechan

const raceEnabled = false
