package fsio

import "sync"

// BufPool recycles byte buffers that grow on demand: a pooled buffer too
// small for a request is dropped in favour of a new one that fits, so a
// pool settles at the largest size its users ask for. Each user keeps an
// instance of its own, so size classes do not mix. The zero value is ready
// to use.
//
// Buffers go in and out as plain slices. A sync.Pool wants pointers, or
// every Put allocates a slice header; the headers Get empties are kept for
// Put to fill, so a Get/Put pair allocates nothing once the pool is warm.
type BufPool struct {
	bufs  sync.Pool // of *[]byte, each holding a buffer
	boxes sync.Pool // of *[]byte, each nil
}

// Get returns a buffer of length n with arbitrary contents.
func (bp *BufPool) Get(n int64) []byte {
	if box, _ := bp.bufs.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		bp.boxes.Put(box)
		if int64(cap(b)) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Put hands a buffer back; the caller must not touch it afterwards. A
// buffer without capacity is not worth keeping.
func (bp *BufPool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	box, _ := bp.boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	bp.bufs.Put(box)
}
