//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of its Puts on purpose, so allocation budgets of pooled
// paths cannot be asserted.
const raceEnabled = true

// In race builds a recycled frame is poisoned, so a frame handed out while
// a copyOut still reads it delivers bytes no file holds.
func init() {
	poisonRecycled = func(b []byte) {
		for i := range b {
			b[i] = 0xDB
		}
	}
}
