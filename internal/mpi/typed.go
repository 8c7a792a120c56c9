package mpi

import "encoding/binary"

// encodeInt64s packs vals little-endian.
func encodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// decodeInt64s unpacks a little-endian int64 slice.
func decodeInt64s(b []byte) []int64 {
	if len(b)%8 != 0 {
		panic("mpi: decodeInt64s on odd-length buffer")
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// GatherInt64Slice gathers a variable-length int64 slice per rank at root.
// The root decodes into one flat backing array and returns per-rank slice
// views into it instead of one allocation per rank: this sits on the
// ParOpen critical path (chunk-size and block-count gathers), where a
// 64 Ki-task open would otherwise pay 64 Ki root-side allocations.
func (c *Comm) GatherInt64Slice(root int, vals []int64) [][]int64 {
	parts := c.Gatherv(root, encodeInt64s(vals))
	if parts == nil {
		return nil
	}
	total := 0
	for _, p := range parts {
		total += len(p) / 8
	}
	flat := make([]int64, total)
	out := make([][]int64, len(parts))
	off := 0
	for i, p := range parts {
		n := len(p) / 8
		view := flat[off : off+n : off+n]
		for j := range view {
			view[j] = int64(binary.LittleEndian.Uint64(p[8*j:]))
		}
		out[i] = view
		off += n
	}
	return out
}

// ScatterInt64Slice distributes one variable-length int64 slice per rank
// from root and returns the caller's slice. The root flat-encodes all
// parts into one buffer and hands Scatterv per-rank views (Send copies,
// so the shared backing array is safe), avoiding one allocation per rank
// on the ParOpen critical path.
func (c *Comm) ScatterInt64Slice(root int, vals [][]int64) []int64 {
	var parts [][]byte
	if c.rank == root {
		total := 0
		for _, v := range vals {
			total += len(v)
		}
		flat := make([]byte, 8*total)
		parts = make([][]byte, len(vals))
		off := 0
		for i, v := range vals {
			end := off + 8*len(v)
			view := flat[off:end:end]
			for j, x := range v {
				binary.LittleEndian.PutUint64(view[8*j:], uint64(x))
			}
			parts[i] = view
			off = end
		}
	}
	return decodeInt64s(c.Scatterv(root, parts))
}

// BcastInt64s broadcasts an int64 slice from root.
func (c *Comm) BcastInt64s(root int, vals []int64) []int64 {
	var enc []byte
	if c.rank == root {
		enc = encodeInt64s(vals)
	}
	return decodeInt64s(c.Bcast(root, enc))
}
