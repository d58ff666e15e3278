//go:build race

package erm

// raceEnabled reports a -race build, under which sync.Pool drops Put
// items at random and allocation counts through a pool are not exact.
const raceEnabled = true
