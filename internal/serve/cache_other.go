//go:build !linux

package serve

// adviseHugePages is a no-op where the cache does not advise huge pages:
// slabs stay on the platform's default pages.
func adviseHugePages([]byte) {}
