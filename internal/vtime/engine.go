// Package vtime implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// Simulated processes (Proc) are backed by goroutines, but the engine lets
// exactly one process run at a time and always resumes the process with the
// smallest virtual clock (ties broken by process id). This yields fully
// deterministic simulations regardless of Go scheduling, and it guarantees
// the causality property resources rely on: when a process executes, its
// clock is globally minimal, so no other process can later act "in its past".
//
// The engine is the substrate for the simulated parallel file system
// (internal/simfs) and for the simulated mode of the message-passing runtime
// (internal/mpi).
package vtime

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"
)

// Engine coordinates a set of simulated processes.
// Create one with NewEngine, add processes with Spawn, then call Run.
type Engine struct {
	mu      sync.Mutex
	ready   procHeap // runnable processes, ordered by (wake time, id)
	nlive   int      // processes that have not finished
	nprocs  int      // total processes ever spawned (id source)
	blocked map[*Proc]struct{}
	started bool
	done    chan struct{} // closed when Run finishes
	failure string        // deadlock diagnostic, reported by Run
}

// Proc is a simulated process with its own virtual clock.
// All Proc methods must be called from the goroutine running the process
// body, except Wake/WakeAt, which are called by other processes.
type Proc struct {
	e    *Engine
	id   int
	now  float64
	wake float64 // scheduled wake time while in the ready heap
	run  chan struct{}
	dead bool
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{blocked: make(map[*Proc]struct{}), done: make(chan struct{})}
}

// Spawn registers a new process whose body is fn, starting at virtual time
// start. fn runs in its own goroutine once Run is called. Spawn may also be
// called from inside a running process.
func (e *Engine) Spawn(start float64, fn func(p *Proc)) *Proc {
	e.mu.Lock()
	p := &Proc{e: e, id: e.nprocs, now: start, wake: start, run: make(chan struct{}, 1)}
	e.nprocs++
	e.nlive++
	heap.Push(&e.ready, p)
	e.mu.Unlock()
	go func() {
		<-p.run // wait until scheduled for the first time
		fn(p)
		p.exit()
	}()
	return p
}

// Run executes the simulation until every spawned process has finished.
// It panics with a diagnostic if the simulation deadlocks (all live
// processes blocked with nobody to wake them).
func (e *Engine) Run() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("vtime: Run called twice")
	}
	e.started = true
	e.scheduleNextLocked()
	e.mu.Unlock()
	<-e.done
	if e.failure != "" {
		panic(e.failure)
	}
}

// scheduleNextLocked hands the execution token to the runnable process with
// the smallest (wake, id), or finishes/deadlock-panics when none is runnable.
func (e *Engine) scheduleNextLocked() {
	if e.ready.Len() == 0 {
		if e.nlive > 0 {
			// Deadlock: report through Run rather than crashing this
			// process's goroutine (the blocked goroutines are leaked,
			// but the simulation is unrecoverable anyway).
			e.failure = fmt.Sprintf("vtime: deadlock: %d processes blocked, none runnable: %s",
				len(e.blocked), e.describeBlockedLocked())
		}
		close(e.done)
		return
	}
	p := heap.Pop(&e.ready).(*Proc)
	p.now = p.wake
	p.run <- struct{}{}
}

func (e *Engine) describeBlockedLocked() string {
	ids := make([]int, 0, len(e.blocked))
	for p := range e.blocked {
		ids = append(ids, p.id)
	}
	sort.Ints(ids)
	if len(ids) > 16 {
		ids = ids[:16]
	}
	return fmt.Sprintf("blocked ids (first 16): %v", ids)
}

// Now returns the process's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.now }

// Engine returns the engine running this process, so running processes
// can spawn peers (e.g. background I/O workers) mid-simulation.
func (p *Proc) Engine() *Engine { return p.e }

// Advance moves the process's clock forward by dt seconds, yielding to any
// other process whose wake time is earlier. dt must be non-negative.
func (p *Proc) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("vtime: Advance(%g) negative", dt))
	}
	p.AdvanceTo(p.now + dt)
}

// AdvanceTo moves the process's clock to time t (a no-op reschedule if
// t <= now; the clock never moves backwards).
func (p *Proc) AdvanceTo(t float64) {
	if t < p.now {
		t = p.now
	}
	e := p.e
	e.mu.Lock()
	p.wake = t
	heap.Push(&e.ready, p)
	e.scheduleNextLocked()
	e.mu.Unlock()
	<-p.run
}

// Block suspends the process until another process calls Wake/WakeAt on it.
// It returns the (possibly advanced) current time.
func (p *Proc) Block() float64 {
	e := p.e
	e.mu.Lock()
	e.blocked[p] = struct{}{}
	e.scheduleNextLocked()
	e.mu.Unlock()
	<-p.run
	return p.now
}

// WakeAt makes blocked process q runnable at virtual time t (or at q's
// current time if t is in q's past). It must be called by a running process
// (or before Run). Waking a process that is not blocked panics.
func (p *Proc) WakeAt(q *Proc, t float64) {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.blocked[q]; !ok {
		panic(fmt.Sprintf("vtime: WakeAt(%d) but process is not blocked", q.id))
	}
	delete(e.blocked, q)
	if t < q.now {
		t = q.now
	}
	q.wake = t
	heap.Push(&e.ready, q)
	// The caller keeps running; q will be scheduled when it has minimal time.
}

// exit marks the process finished and passes control on.
func (p *Proc) exit() {
	e := p.e
	e.mu.Lock()
	p.dead = true
	e.nlive--
	e.scheduleNextLocked()
	e.mu.Unlock()
}

// procHeap orders processes by (wake, id).
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].wake != h[j].wake {
		return h[i].wake < h[j].wake
	}
	return h[i].id < h[j].id
}
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(*Proc)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
