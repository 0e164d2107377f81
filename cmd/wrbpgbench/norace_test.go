//go:build !race

package main

// raceDetector reports a build with the race detector.
const raceDetector = false
