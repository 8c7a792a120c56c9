package expt

import (
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/simfs"
)

// The extension tables that read a multifile back (rescaled, served,
// under faults, through the cluster) all start from the same fixture: a
// dump of deterministic per-task payloads on one of tab3's machines.

// renamed returns p under an experiment's own name, which labels the
// machine's simulated servers.
func renamed(p *simfs.Profile, name string) *simfs.Profile {
	p.Name = name
	return p
}

// taskPayload is the deterministic per-writer payload (a copy of the test
// suite's generator, so experiments stay self-contained).
func taskPayload(rank, size int) []byte {
	out := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = byte(x >> 24)
	}
	return out
}

// payloadSize is writer g's payload for a dump of the given chunk size:
// about 1.5 chunks, varied per rank so byte-identity failures cannot hide
// behind uniform sizes.
func payloadSize(chunk int64, g int) int {
	return int(chunk) + int(chunk)/2 + g%251
}

// writeDump writes the multifile name with n tasks, task g storing
// taskPayload(g, size(g)) in one Write, and opens a fresh measurement
// window with cold caches for whatever reads it back. It returns the
// write phase's request counters.
func writeDump(fs *simfs.FS, n int, name string, opts *sion.Options, size func(g int) int) simfs.FileStats {
	simRun(fs, n, func(c *mpi.Comm, v fsio.FileSystem) {
		f, err := sion.ParOpen(c, v, name, sion.WriteMode, opts)
		if err != nil {
			panic(err)
		}
		if _, err := f.Write(taskPayload(c.Rank(), size(c.Rank()))); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
	})
	wst := dumpStats(fs, name, max(opts.NFiles, 1))
	fs.ResetServers()
	fs.DropCaches()
	return wst
}

// dumpStats sums the request counters over every physical file of the
// multifile.
func dumpStats(fs *simfs.FS, name string, nfiles int) simfs.FileStats {
	var tot simfs.FileStats
	for _, pn := range sion.PhysicalNames(name, nfiles) {
		st, ok := fs.Stats(pn)
		if !ok {
			continue
		}
		tot.Opens += st.Opens
		tot.ReadRequests += st.ReadRequests
		tot.WriteRequests += st.WriteRequests
		if st.ReaderTasks > tot.ReaderTasks {
			tot.ReaderTasks = st.ReaderTasks
		}
	}
	return tot
}
