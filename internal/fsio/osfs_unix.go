//go:build unix

package fsio

import "syscall"

// dirBlockSize is st_blksize of directory dir, or 0 if it cannot be
// stat'ed.
func dirBlockSize(dir string) int64 {
	var st syscall.Stat_t
	if err := syscall.Stat(dir, &st); err != nil {
		return 0
	}
	return int64(st.Blksize)
}
