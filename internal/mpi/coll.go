package mpi

import (
	"fmt"
	"sort"
)

// Reserved internal tags for collectives; user tags must be >= 0.
const (
	tagBarrierUp = -1 - iota
	tagBarrierDown
	tagBcast
	tagGather
	tagScatter
	tagReduce
)

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a binomial fan-in to rank 0 followed by a binomial
// fan-out, so the simulated cost is O(log P) message latencies.
func (c *Comm) Barrier() {
	c.fanIn(tagBarrierUp, nil)
	c.fanOut(tagBarrierDown, nil)
}

// fanIn sends a token up a binomial tree rooted at rank 0.
// Each rank first waits for all its children, then reports to its parent.
func (c *Comm) fanIn(tag int, payload []byte) {
	n, r := len(c.group), c.rank
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			c.Send(r^mask, tag, payload)
			return
		}
		if r|mask < n {
			c.Recv(r|mask, tag)
		}
	}
}

// fanOut propagates a token down a binomial tree rooted at rank 0 and
// returns the payload received (rank 0 returns payload unchanged).
func (c *Comm) fanOut(tag int, payload []byte) []byte {
	n, r := len(c.group), c.rank
	// Find the highest mask so we can walk the tree top-down.
	top := 1
	for top < n {
		top <<= 1
	}
	if r != 0 {
		// Wait for the parent's token.
		mask := 1
		for r&mask == 0 {
			mask <<= 1
		}
		payload = c.Recv(r^mask, tag)
		// Forward to children below that mask.
		for m := mask >> 1; m >= 1; m >>= 1 {
			if r|m < n && r&m == 0 {
				c.Send(r|m, tag, payload)
			}
		}
		return payload
	}
	for m := top >> 1; m >= 1; m >>= 1 {
		if m < n {
			c.Send(m, tag, payload)
		}
	}
	return payload
}

// Bcast broadcasts data from root to all ranks and returns the payload on
// every rank (root included).
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.checkRoot(root)
	// Rotate so the tree is rooted at `root`.
	rc := c.rotated(root)
	return rc.fanOut(tagBcast, data)
}

// Gatherv gathers each rank's byte slice at root. On root it returns one
// slice per rank (in rank order); on other ranks it returns nil.
// The gather is root-centric (linear), matching how an MPI_Gatherv of
// variable-size metadata behaves at the root.
func (c *Comm) Gatherv(root int, data []byte) [][]byte {
	c.checkRoot(root)
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]byte, len(c.group))
	for r := range c.group {
		if r == root {
			buf := make([]byte, len(data))
			copy(buf, data)
			out[r] = buf
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}

// Scatterv distributes parts[r] to each rank r from root and returns the
// caller's part. On non-root ranks, parts is ignored.
func (c *Comm) Scatterv(root int, parts [][]byte) []byte {
	c.checkRoot(root)
	if c.rank == root {
		if len(parts) != len(c.group) {
			panic(fmt.Sprintf("mpi: Scatterv with %d parts for %d ranks", len(parts), len(c.group)))
		}
		var own []byte
		for r := range c.group {
			if r == root {
				own = make([]byte, len(parts[r]))
				copy(own, parts[r])
				continue
			}
			c.Send(r, tagScatter, parts[r])
		}
		return own
	}
	return c.Recv(root, tagScatter)
}

// ReduceOp is a reduction operator over int64.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown ReduceOp")
}

// AllreduceInt64 reduces val across all ranks with op and returns the
// result on every rank (binomial reduce to 0, then broadcast).
func (c *Comm) AllreduceInt64(op ReduceOp, val int64) int64 {
	n, r := len(c.group), c.rank
	acc := val
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			c.Send(r^mask, tagReduce, encodeInt64s([]int64{acc}))
			break
		}
		if r|mask < n {
			v := decodeInt64s(c.Recv(r|mask, tagReduce))
			acc = op.apply(acc, v[0])
		}
	}
	out := c.Bcast(0, encodeInt64s([]int64{acc}))
	return decodeInt64s(out)[0]
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by (key, old rank). Every rank must call Split
// (it is collective). Ranks passing a negative color receive nil.
//
// Because this runtime is in-process, the membership tables are computed
// once at rank 0 and shared read-only with the members instead of being
// broadcast by value; at 64K ranks this avoids copying gigabytes while
// keeping MPI_Comm_split's collective semantics (gather + broadcast sync).
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ color, key, rank int }
	all := c.Gatherv(0, encodeInt64s([]int64{int64(color), int64(key)}))
	c.splits++
	token := fmt.Sprintf("%s/%d", c.cid, c.splits)
	if c.rank == 0 {
		members := make([]ck, 0, len(all))
		for r, b := range all {
			v := decodeInt64s(b)
			if v[0] >= 0 {
				members = append(members, ck{int(v[0]), int(v[1]), r})
			}
		}
		sort.Slice(members, func(i, j int) bool {
			if members[i].color != members[j].color {
				return members[i].color < members[j].color
			}
			if members[i].key != members[j].key {
				return members[i].key < members[j].key
			}
			return members[i].rank < members[j].rank
		})
		assign := make(map[int]splitAssign, len(members))
		for i := 0; i < len(members); {
			j := i
			for j < len(members) && members[j].color == members[i].color {
				j++
			}
			group := make([]int, j-i)
			for k := i; k < j; k++ {
				group[k-i] = c.group[members[k].rank]
			}
			for k := i; k < j; k++ {
				assign[members[k].rank] = splitAssign{
					group: group, rank: k - i, color: members[i].color,
				}
			}
			i = j
		}
		c.w.storeSplit(token, assign, len(c.group))
	}
	// The broadcast both synchronizes and publishes the shared table.
	c.Bcast(0, nil)
	a, ok := c.w.takeSplit(token, c.rank)
	if color < 0 {
		return nil
	}
	if !ok {
		panic("mpi: Split: missing assignment (inconsistent collective call?)")
	}
	return &Comm{
		w:     c.w,
		cid:   fmt.Sprintf("%s.%d", token, a.color),
		rank:  a.rank,
		group: a.group,
	}
}

// rotated returns a view of the communicator with ranks renumbered so that
// `root` becomes rank 0; message traffic stays on the parent's context.
func (c *Comm) rotated(root int) *Comm {
	if root == 0 {
		return c
	}
	n := len(c.group)
	group := make([]int, n)
	for i := 0; i < n; i++ {
		group[i] = c.group[(i+root)%n]
	}
	return &Comm{w: c.w, cid: c.cid + "@" + itoa(root), rank: (c.rank - root + n) % n, group: group}
}

func (c *Comm) checkRoot(root int) {
	if root < 0 || root >= len(c.group) {
		panic(fmt.Sprintf("mpi: invalid root %d (size %d)", root, len(c.group)))
	}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
