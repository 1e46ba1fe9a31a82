//go:build race

package gcx_test

// Under the race detector sync.Pool drops objects at random, so the
// allocation ceilings that pin exact counts cannot hold.
func init() { raceEnabled = true }
