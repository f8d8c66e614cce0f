//go:build race

package dssddi

// raceEnabled lets slow subprocess reruns skip under the race
// detector.
const raceEnabled = true
