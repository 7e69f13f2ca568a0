//go:build !race

package netsim

// raceBuild reports whether the race detector is built in.
const raceBuild = false
