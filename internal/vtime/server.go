package vtime

import "fmt"

// Server is a FIFO queueing resource: each Use occupies the server
// exclusively for a service duration, and requests issued while the server
// is busy wait their turn. Because the engine only runs the process with the
// globally minimal clock, the simple availability-time update below is
// causally correct: no process can later issue a request in the past.
type Server struct {
	Name  string
	avail float64 // next time the server is free
}

// NewServer returns an idle server.
func NewServer(name string) *Server { return &Server{Name: name} }

// Use occupies the server for dur seconds starting no earlier than p's
// current time, advancing p past any queueing delay plus the service time.
// It returns the total delay experienced (wait + service).
func (s *Server) Use(p *Proc, dur float64) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("vtime: Server %q Use(%g) negative", s.Name, dur))
	}
	start := p.Now()
	if s.avail > start {
		start = s.avail
	}
	end := start + dur
	s.avail = end
	delay := end - p.Now()
	p.Advance(delay)
	return delay
}

// Reserve books dur seconds of service starting no earlier than `at` and
// returns the completion time, without advancing any process clock. It lets
// a caller fan one logical operation out over several servers in parallel
// (e.g. a striped write) and then advance its own clock to the maximum
// completion time. `at` must not precede the calling process's clock
// (callers pass p.Now()), which preserves the engine's causality guarantee.
func (s *Server) Reserve(at, dur float64) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("vtime: Server %q Reserve(%g) negative", s.Name, dur))
	}
	start := at
	if s.avail > start {
		start = s.avail
	}
	end := start + dur
	s.avail = end
	return end
}

// Reset returns the server to the idle state at time zero.
func (s *Server) Reset() { s.avail = 0 }
