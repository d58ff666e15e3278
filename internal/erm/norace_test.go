//go:build !race

package erm

const raceEnabled = false
