//go:build !race

package dssddi

const raceEnabled = false
