//go:build race

package serve

// raceBuild reports a race-detector build, whose sync.Pools drop items
// on purpose, so pooled paths allocate more than in a normal build.
const raceBuild = true
