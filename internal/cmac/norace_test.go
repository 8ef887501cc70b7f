//go:build !race

package cmac

const raceEnabled = false
