// Tracing: a Scalasca-style workflow (paper §5.2) on 8 parallel tasks. Each
// task records an SMG2000-like event stream and, at measurement finalization,
// flushes it zlib-compressed (sion.NewZWriter, the §6 plan) into one SION
// multifile with the buffer size as its chunk size. The post-mortem analysis
// loads every rank's trace through the serial task-local view (sion.OpenRank)
// and replays the communication in search of late-sender wait states. Task 3
// sends one message late to a receive task 4 has already posted: the exit is
// non-zero unless every trace decodes to exactly the events recorded and the
// search finds exactly that wait state.
//
// Run with: go run ./examples/tracing [dir]
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
)

const (
	ntasks     = 8
	iterations = 560 // ≈ 64 KiB of event records per task
	eventBytes = 29

	enter, leave, send, recv = 1, 2, 3, 4 // event kinds

	lateSender, lateRecver, lateTag = 3, 4, 9999
	lateBy                          = 250_000 // µs task 3 dawdles before that send
)

// event is one trace record: time is the task-local clock in µs, region the
// code region of an enter/leave, peer/tag/size the message of a send/recv.
type event struct {
	kind              uint8
	time              int64
	region, peer, tag uint32
	size              uint64
}

// record is one task's measurement: solver iterations that exchange halos
// around a ring (every receive completes after its send left), then the
// planted late sender.
func record(rank int) []event {
	var events []event
	var clock int64
	emit := func(e event) {
		e.time = clock
		events = append(events, e)
	}
	for it := uint32(0); it < iterations; it++ {
		emit(event{kind: enter, region: 1}) // the solver
		clock += 4000
		emit(event{kind: send, peer: uint32(rank+1) % ntasks, tag: it, size: 4096})
		clock += 500
		emit(event{kind: recv, peer: uint32(rank+ntasks-1) % ntasks, tag: it, size: 4096})
		clock += 500
		emit(event{kind: leave, region: 1})
	}
	if rank == lateRecver { // posted lateBy before the send below leaves
		emit(event{kind: recv, peer: lateSender, tag: lateTag, size: 1 << 16})
	} else if rank == lateSender {
		clock += lateBy
		emit(event{kind: send, peer: lateRecver, tag: lateTag, size: 1 << 16})
	}
	return events
}

// flush writes the task's buffer, compressed, as its logical file of the
// multifile. Collective; as in the paper's Scalasca integration the chunk
// is sized to the buffer, so one block per task suffices.
func flush(c *mpi.Comm, fsys fsio.FileSystem, name string, events []event) error {
	le := binary.LittleEndian
	var raw []byte
	for _, e := range events {
		raw = le.AppendUint64(append(raw, e.kind), uint64(e.time))
		raw = le.AppendUint32(le.AppendUint32(le.AppendUint32(raw, e.region), e.peer), e.tag)
		raw = le.AppendUint64(raw, e.size)
	}
	f, err := sion.ParOpen(c, fsys, name, sion.WriteMode, &sion.Options{ChunkSize: int64(len(raw)), NFiles: 2})
	if err != nil {
		return err
	}
	zw, err := sion.NewZWriter(f)
	if err == nil {
		if _, err = zw.Write(raw); err == nil {
			err = zw.Close()
		}
	}
	if cerr := f.Close(); err == nil { // Close is collective: reach it on every path
		err = cerr
	}
	return err
}

// load reads one rank's trace back through the serial task-local view.
func load(fsys fsio.FileSystem, name string, rank int) ([]event, error) {
	f, err := sion.OpenRank(fsys, name, rank)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := sion.NewZReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if len(raw)%eventBytes != 0 {
		return nil, fmt.Errorf("trace of %d bytes is not a multiple of the %d-byte record", len(raw), eventBytes)
	}
	events := make([]event, len(raw)/eventBytes)
	le := binary.LittleEndian
	for i := range events {
		rec := raw[i*eventBytes:]
		events[i] = event{kind: rec[0], time: int64(le.Uint64(rec[1:])), region: le.Uint32(rec[9:]),
			peer: le.Uint32(rec[13:]), tag: le.Uint32(rec[17:]), size: le.Uint64(rec[21:])}
	}
	return events, nil
}

// lateSenders replays the communication, matching receives with the sends of
// their (sender, receiver, tag) in FIFO order; a receive posted before its
// send left the sender is a late-sender wait state. It returns the µs waited.
func lateSenders(traces [][]event) map[[3]uint32]int64 {
	sent := map[[3]uint32][]int64{} // times of the sends not yet matched
	for r, events := range traces {
		for _, e := range events {
			if e.kind == send {
				k := [3]uint32{uint32(r), e.peer, e.tag}
				sent[k] = append(sent[k], e.time)
			}
		}
	}
	waited := map[[3]uint32]int64{}
	for r, events := range traces {
		for _, e := range events {
			k := [3]uint32{e.peer, uint32(r), e.tag}
			if e.kind != recv || len(sent[k]) == 0 {
				continue
			}
			if by := sent[k][0] - e.time; by > 0 {
				waited[k] += by
			}
			sent[k] = sent[k][1:]
		}
	}
	return waited
}

// run is measurement (record, flush), then post-mortem analysis (load, search).
func run(dir string) error {
	const name = "smg.sion"
	fsys := fsio.NewOS(dir)
	errs := make([]error, ntasks)
	mpi.Run(ntasks, func(c *mpi.Comm) { errs[c.Rank()] = flush(c, fsys, name, record(c.Rank())) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	traces := make([][]event, ntasks)
	for r := range traces {
		var err error
		if traces[r], err = load(fsys, name, r); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		if !slices.Equal(traces[r], record(r)) {
			return fmt.Errorf("rank %d: decoded events differ from the recorded ones", r)
		}
	}
	want := map[[3]uint32]int64{{lateSender, lateRecver, lateTag}: lateBy}
	if found := lateSenders(traces); !maps.Equal(found, want) {
		return fmt.Errorf("late-sender search found %v, want %v (sender, receiver, tag: µs)", found, want)
	}
	fmt.Printf("%d ranks x %d events flushed compressed into %s and read back; late sender %d -> %d (tag %d): wait %.3fs\n",
		ntasks, len(traces[0]), name, lateSender, lateRecver, lateTag, lateBy/1e6)
	return nil
}

func main() {
	dir := os.TempDir()
	if len(os.Args) > 1 {
		dir = os.Args[1]
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	if err := run(dir); err != nil {
		log.Fatal(err)
	}
}
