//go:build race

package serve

// raceDetector reports a build with the race detector.
const raceDetector = true
