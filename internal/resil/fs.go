package resil

import (
	"repro/internal/fsio"
)

// Wrap decorates inner so every FileSystem and File operation runs under
// the retry budget, as a hook of fsio.Intercept. Call sites in core and
// the tools keep their plain fsio code; resilience is layered on at mount
// time, which is exactly the decorator split the flaky lab uses on the
// injection side. Close is exempt: the handle is unusable after a failed
// Close either way, and retrying a close can double-release backend
// state. BlockSize has no error to retry.
//
// All retried operations are idempotent per the fsio.FileSystem contract,
// so a retry after an ambiguous failure (error after partial effect)
// converges to the same state.
func Wrap(inner fsio.FileSystem, b Budget, ctrs *Counters) fsio.FileSystem {
	return fsio.Intercept(inner, func(op fsio.Op) (int64, error) {
		if op.Call == "Close" || op.Call == "BlockSize" {
			return op.Do()
		}
		var n int64
		err := Do(b, ctrs, func() error {
			var e error
			n, e = op.Do()
			return e
		})
		return n, err
	})
}
