package serve

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent huge page size of x86-64 and of arm64 with
// 4 KiB pages.
const hugePage = 2 << 20

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall does
// not name.
const madvCollapse = 25

// adviseHugePages asks the kernel to map the 2 MiB-aligned interior of a
// new slab with huge pages: MADV_HUGEPAGE marks the range for the page
// fault path and khugepaged, and MADV_COLLAPSE collapses any of it the Go
// heap has already mapped with small pages. Each is advice: a kernel
// without it, a system with transparent huge pages off or no huge page to
// spare answers with an error, and the slab stays on small pages, as
// correct as before.
func adviseHugePages(slab []byte) {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(slab)))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(slab))) &^ (hugePage - 1)
	if hi <= lo {
		return
	}
	interior := slab[lo-start : hi-start]
	_ = syscall.Madvise(interior, syscall.MADV_HUGEPAGE)
	_ = syscall.Madvise(interior, madvCollapse)
}
