//go:build !unix

package fsio

// dirBlockSize reports nothing where stat has no st_blksize: BlockSize
// then falls back to 4096.
func dirBlockSize(string) int64 { return 0 }
