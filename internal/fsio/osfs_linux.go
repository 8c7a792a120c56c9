//go:build linux

package fsio

import (
	"io"
	"math/bits"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// On Linux the OS backend reads vectors with preadv(2). Elsewhere osFile
// has no ReadvAt, and the ReadvAt helper takes its copying fallback.

// iovMax is Linux's IOV_MAX: the most vectors one preadv accepts.
const iovMax = 1024

// iovecs recycles the iovec arrays of reads of more vectors than the
// stack holds, which are too large to zero on the stack per call.
var iovecs = sync.Pool{New: func() any { return new([iovMax]syscall.Iovec) }}

// ReadvAt implements VectorReaderAt: one preadv per iovMax vectors, or a
// pread of one (0.1 us less kernel work on a 16 KiB page-cache read, 2-vCPU
// VM), re-issued after a short read or EINTR until every buffer is full or
// the file ends. It uses the descriptor without the os.File's reference
// count, which is what the File concurrency contract allows: no Close may
// be in progress while reads are.
func (f *osFile) ReadvAt(bufs [][]byte, off int64) (int, error) {
	var small [4]syscall.Iovec
	iov := small[:]
	if len(bufs) > len(small) {
		big := iovecs.Get().(*[iovMax]syscall.Iovec)
		defer iovecs.Put(big)
		iov = big[:]
	}
	fd := f.std().Fd()
	n, i, skip := 0, 0, 0 // bufs[i][skip:] is the next byte to fill
	for {
		k, one := 0, []byte(nil)
		for j := i; j < len(bufs) && k < len(iov); j++ {
			b := bufs[j]
			if j == i {
				b = b[skip:]
			}
			if len(b) > 0 {
				iov[k].Base = &b[0]
				iov[k].SetLen(len(b))
				k, one = k+1, b
			}
		}
		if k == 0 {
			return n, nil
		}
		op, r, err := "pread", 0, error(nil)
		if k == 1 {
			r, err = syscall.Pread(int(fd), one, off)
		} else {
			// The offset travels as two words, low then high: on 32-bit
			// platforms both halves matter, on 64-bit the high word is zero.
			lo, hi := uintptr(off), uintptr(uint64(off)>>(bits.UintSize-1)>>1)
			r0, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(k), lo, hi, 0)
			if op, r = "preadv", int(r0); errno != 0 {
				err = errno
			}
		}
		runtime.KeepAlive(f)
		clear(iov[:k]) // a pooled array should not keep the buffers alive
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return n, mapOSErr(&os.PathError{Op: op, Path: f.std().Name(), Err: err})
		case r == 0:
			return n, io.EOF
		}
		n += r
		off += int64(r)
		for rest := r; ; i, skip = i+1, 0 {
			if i == len(bufs) || rest < len(bufs[i])-skip {
				skip += rest
				break
			}
			rest -= len(bufs[i]) - skip
		}
	}
}
