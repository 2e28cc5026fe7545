//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// It makes sync.Pool drop Puts at random, so pool-hit pins skip.
const raceEnabled = false
