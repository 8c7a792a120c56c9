//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of its Puts on purpose, so allocation budgets of pooled
// paths cannot be asserted.
const raceEnabled = true
