// Package mpi is a small in-process message-passing runtime standing in for
// MPI, which the paper's SIONlib uses for internal metadata exchange.
//
// It provides ranks, communicators (including Split for sub-communicators,
// used by SIONlib to group the tasks sharing one physical file), eager
// point-to-point messaging, and the usual collectives (Barrier, Bcast,
// Gather(v), Scatter(v), Allgather, Allreduce) implemented over
// point-to-point transfers with binomial-tree fan-in/out where profitable —
// the same communication structure a real MPI would use, so the simulated
// collective costs scale the same way (O(log P) barriers/bcasts, linear
// root-centric gathers).
//
// The runtime has two modes sharing all code paths:
//
//   - Real mode (Run): ranks are plain goroutines synchronizing through
//     channels; used by the examples and utilities on the real file system.
//   - Simulated mode (RunSim): ranks are vtime processes; every message
//     advances virtual clocks by latency + size/bandwidth, making metadata-
//     exchange costs part of the reproduced experiments.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/vtime"
)

// CostModel prices a message for simulated mode.
type CostModel struct {
	// Latency is the per-message latency in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes/second (0 = infinite).
	Bandwidth float64
}

// Transfer returns the wire time of an n-byte message.
func (c CostModel) Transfer(n int) float64 {
	t := c.Latency
	if c.Bandwidth > 0 {
		t += float64(n) / c.Bandwidth
	}
	return t
}

// DefaultCost approximates a Blue Gene/P-class interconnect.
var DefaultCost = CostModel{Latency: 3e-6, Bandwidth: 400e6}

// world holds the per-run shared state: one mailbox per global rank.
type world struct {
	n     int
	boxes []*mailbox
	cost  CostModel
	sim   bool

	splitMu sync.Mutex
	splits  map[string]*splitTable
}

// splitAssign is one rank's result of a Split.
type splitAssign struct {
	group []int // shared, read-only
	rank  int
	color int
}

// splitTable holds a Split's assignments until every participant has
// collected its entry.
type splitTable struct {
	assign  map[int]splitAssign
	readers int
}

// storeSplit publishes the assignments of one collective Split call.
func (w *world) storeSplit(token string, assign map[int]splitAssign, readers int) {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	if w.splits == nil {
		w.splits = make(map[string]*splitTable)
	}
	w.splits[token] = &splitTable{assign: assign, readers: readers}
}

// takeSplit retrieves one rank's assignment; the last reader frees the
// table.
func (w *world) takeSplit(token string, rank int) (splitAssign, bool) {
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	t := w.splits[token]
	if t == nil {
		return splitAssign{}, false
	}
	a, ok := t.assign[rank]
	t.readers--
	if t.readers == 0 {
		delete(w.splits, token)
	}
	return a, ok
}

// msgKey matches a message to a receive: communicator context, global
// source rank, and tag.
type msgKey struct {
	cid string
	src int
	tag int
}

type message struct {
	data    []byte
	arrival float64 // simulated arrival time (sim mode)
}

// mailbox is one rank's incoming-message store.
type mailbox struct {
	mu      sync.Mutex
	queue   map[msgKey][]message
	waitKey msgKey
	waiting bool
	waitCh  chan message // real mode hand-off
	proc    *vtime.Proc  // sim mode process (nil in real mode)
}

func newMailbox() *mailbox {
	return &mailbox{queue: make(map[msgKey][]message), waitCh: make(chan message, 1)}
}

// Comm is a communicator: an ordered group of ranks that can exchange
// messages and run collectives. The zero value is not usable; obtain a Comm
// from Run, RunSim, or Split.
type Comm struct {
	w      *world
	cid    string // context id isolating this communicator's traffic
	rank   int    // rank within this communicator
	group  []int  // global rank of each member
	splits int    // collective Split counter (consistent across members)
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// GlobalRank returns the caller's rank in the world communicator.
func (c *Comm) GlobalRank() int { return c.group[c.rank] }

// Proc returns the vtime process backing this rank in simulated mode, or
// nil in real mode. The experiment harness uses it to bind simulated
// file-system views to ranks.
func (c *Comm) Proc() *vtime.Proc { return c.w.boxes[c.group[c.rank]].proc }

// Now returns the rank's virtual time in simulated mode, 0 in real mode.
func (c *Comm) Now() float64 {
	if p := c.Proc(); p != nil {
		return p.Now()
	}
	return 0
}

// Advance advances the rank's virtual clock by dt seconds (compute time);
// it is a no-op in real mode.
func (c *Comm) Advance(dt float64) {
	if p := c.Proc(); p != nil {
		p.Advance(dt)
	}
}

// Run executes body on n ranks in real mode and returns when all finish.
func Run(n int, body func(*Comm)) {
	if n <= 0 {
		panic("mpi: Run with n <= 0")
	}
	w := &world{n: n, cost: CostModel{}, sim: false}
	w.boxes = make([]*mailbox, n)
	group := make([]int, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		group[i] = i
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		c := &Comm{w: w, cid: "w", rank: r, group: group}
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
}

// RunSim executes body on n ranks as vtime processes on engine e with the
// given message cost model, then runs the engine to completion. Each rank's
// virtual clock starts at 0.
func RunSim(e *vtime.Engine, n int, cost CostModel, body func(*Comm)) {
	if n <= 0 {
		panic("mpi: RunSim with n <= 0")
	}
	w := &world{n: n, cost: cost, sim: true}
	w.boxes = make([]*mailbox, n)
	group := make([]int, n)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		group[i] = i
	}
	for r := 0; r < n; r++ {
		r := r
		c := &Comm{w: w, cid: "w", rank: r, group: group}
		box := w.boxes[r]
		e.Spawn(0, func(p *vtime.Proc) {
			box.proc = p
			body(c)
		})
	}
	e.Run()
}

// Send delivers data to rank `to` (communicator rank) with the given tag.
// Sends are eager and buffered: Send never blocks waiting for the receiver.
// The data slice is copied, so the caller may reuse it immediately.
func (c *Comm) Send(to, tag int, data []byte) {
	if to < 0 || to >= len(c.group) {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", to, len(c.group)))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	dst := c.w.boxes[c.group[to]]
	key := msgKey{c.cid, c.group[c.rank], tag}
	m := message{data: buf}
	p := c.Proc()
	if p != nil {
		m.arrival = p.Now() + c.w.cost.Transfer(len(data))
		// Sender-side overhead: the latency portion occupies the sender.
		p.Advance(c.w.cost.Latency)
	}
	dst.mu.Lock()
	handoff := dst.waiting && dst.waitKey == key
	if handoff {
		dst.waiting = false
		dst.waitCh <- m
	} else {
		dst.queue[key] = append(dst.queue[key], m)
	}
	dst.mu.Unlock()
	if handoff && p != nil {
		p.WakeAt(dst.proc, m.arrival)
	}
}

// Recv blocks until a message from rank `from` with the given tag arrives
// and returns its payload.
func (c *Comm) Recv(from, tag int) []byte {
	if from < 0 || from >= len(c.group) {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d (size %d)", from, len(c.group)))
	}
	box := c.w.boxes[c.group[c.rank]]
	key := msgKey{c.cid, c.group[from], tag}

	box.mu.Lock()
	if q := box.queue[key]; len(q) > 0 {
		m := q[0]
		if len(q) == 1 {
			delete(box.queue, key)
		} else {
			box.queue[key] = q[1:]
		}
		box.mu.Unlock()
		if c.w.sim {
			p := c.Proc()
			if m.arrival > p.Now() {
				p.AdvanceTo(m.arrival)
			}
			// Receive-side processing overhead: a root draining a linear
			// gather pays per message, as a real MPI rank would.
			p.Advance(c.w.cost.Latency)
		}
		return m.data
	}
	if box.waiting {
		box.mu.Unlock()
		panic("mpi: concurrent Recv on one rank")
	}
	box.waiting = true
	box.waitKey = key
	box.mu.Unlock()

	if c.w.sim {
		// Block in virtual time; the sender wakes us at the arrival time.
		c.Proc().Block()
		m := <-box.waitCh
		c.Proc().Advance(c.w.cost.Latency) // receive-side overhead
		return m.data
	}
	m := <-box.waitCh
	return m.data
}

// TryRecv performs a non-blocking receive: if a message from rank `from`
// with the given tag is available, it returns (payload, true), otherwise
// (nil, false) immediately. In simulated mode a queued message counts as
// available only once its arrival time has passed the caller's virtual
// clock (a real MPI_Iprobe cannot see in-flight data either), and the
// receive-side latency is charged only on success; an empty probe is free.
//
// Sends are eager and buffered (Send never blocks), so Send+TryRecv
// together provide the overlap of MPI_Isend/MPI_Irecv: an async
// collector of internal/core takes the member frames that have arrived
// with TryRecv whenever it enters Write or Flush, and blocks in Recv only
// at Close.
func (c *Comm) TryRecv(from, tag int) ([]byte, bool) {
	if from < 0 || from >= len(c.group) {
		panic(fmt.Sprintf("mpi: TryRecv from invalid rank %d (size %d)", from, len(c.group)))
	}
	box := c.w.boxes[c.group[c.rank]]
	key := msgKey{c.cid, c.group[from], tag}

	var now float64
	if c.w.sim {
		now = c.Proc().Now()
	}
	box.mu.Lock()
	q := box.queue[key]
	if len(q) == 0 || (c.w.sim && q[0].arrival > now) {
		box.mu.Unlock()
		return nil, false
	}
	m := q[0]
	if len(q) == 1 {
		delete(box.queue, key)
	} else {
		box.queue[key] = q[1:]
	}
	box.mu.Unlock()
	if c.w.sim {
		c.Proc().Advance(c.w.cost.Latency) // receive-side overhead
	}
	return m.data, true
}
