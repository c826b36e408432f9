//go:build !race

package serve

// raceBuild reports a race-detector build (see race_test.go).
const raceBuild = false
