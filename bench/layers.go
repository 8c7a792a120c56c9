package main

import (
	"runtime"
	"strings"
	"time"

	sion "repro/internal/core"
	"repro/internal/serve"
)

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// measureLayers is the traced run: bottom to top, each layer's own rungs
// and counters, then the self times from the spans it recorded.
func measureLayers(e *env, w *world, res *result, seed int64, secs float64) []span {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	tr := newTracer(w.sp.Name)
	k := w.ckpt(e, tr)

	layersMPI(e, w.sp, res)
	layersCkpt(k, res, secs)
	layersServing(e, w, tr, res, seed, secs)
	spans := tr.collect()
	layersSelfTimes(spans, res)

	runtime.ReadMemStats(&gc1)
	res.set("process.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	res.set("process.peak_rss_mb", peakRSSMB())
	res.set("process.build_s", e.buildTime.Seconds())
	return spans
}

// layersMPI times the collectives ParOpen is built from, at this
// workload's N.
func layersMPI(e *env, sp *spec, res *result) {
	barrier, bcast, gatherv := mpiRounds(sp.Tasks, e.mpiRounds)
	res.setSamples("mpi.barrier_us", barrier)
	res.setSamples("mpi.bcast_us", bcast)
	res.setSamples("mpi.gatherv_us", gatherv)
}

// layersCkpt alternates untraced and traced iterations of the checkpoint
// phases: the untraced ones give the rates and the efficiencies (each
// phase over the reference of its own iteration), plus P1's allocation
// counts and the two extra write rungs; the traced ones give the spans and
// what each phase asked of fsio.
func layersCkpt(k *ckpt, res *result, secs float64) {
	sp := k.job.sp
	k.iteration(0, false)
	var plain, traced ckptSamples
	var direct, collSync, allocsPerOp, allocBytes []float64
	var tracedIters []iterOut
	deadline := time.Now().Add(seconds(secs * tracedCkptShare))
	for iter := 1; iter <= 3 || time.Now().Before(deadline); iter++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p1 := k.runPhase("P1", iter, false, sp.Tasks, k.writeBody(nameExtra, k.optsP1()))
		runtime.ReadMemStats(&m1)
		k.remove(nameExtra)
		allocsPerOp = append(allocsPerOp, float64(m1.Mallocs-m0.Mallocs)/float64(p1.calls))
		allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(sp.DumpBytes()))

		plain.add(sp, k.iteration(iter, false))
		o := k.optsP1()
		o.BufferSize = sion.BufferOff
		direct = append(direct, k.extraWrite(iter, o).MBps(sp.DumpBytes()))
		o = k.optsP2()
		o.AsyncCollective = false
		collSync = append(collSync, k.extraWrite(iter, o).MBps(sp.DumpBytes()))
		it := k.iteration(iter, true)
		traced.add(sp, it)
		tracedIters = append(tracedIters, it)
	}
	plain.emit(res, sp, k.tally)
	res.setSamples("core.direct_write_MBps", direct)
	res.setSamples("core.coll_sync_write_MBps", collSync)
	res.setSamples("process.allocs_per_op", allocsPerOp)
	res.setSamples("process.alloc_bytes_per_user_byte", allocBytes)
	var tracedWall, plainWall float64
	for i := range plain.wallP {
		tracedWall += median(traced.wallP[i])
		plainWall += median(plain.wallP[i])
	}
	res.set("process.trace_overhead_ratio", tracedWall/plainWall)

	// One sample per traced iteration; p[0..3] are P1..P4.
	perIter := func(f func(p *[4]phaseOut) float64) []float64 {
		out := make([]float64, len(tracedIters))
		for i := range tracedIters {
			out[i] = f(&tracedIters[i].p)
		}
		return out
	}
	calls := func(ph, class int) []float64 {
		return perIter(func(p *[4]phaseOut) float64 { return float64(p[ph].fs.calls[class].Load()) })
	}
	res.setSamples("fsio.write_calls", calls(0, opWrite))
	res.setSamples("fsio.write_bytes", perIter(func(p *[4]phaseOut) float64 { return float64(p[0].fs.bytes[opWrite].Load()) }))
	res.setSamples("fsio.write_busy_ms", perIter(func(p *[4]phaseOut) float64 { return ms(p[0].fs.busyNs[opWrite].Load()) }))
	res.setSamples("fsio.read_calls", calls(2, opRead))
	res.setSamples("fsio.read_bytes", perIter(func(p *[4]phaseOut) float64 { return float64(p[2].fs.bytes[opRead].Load()) }))
	res.setSamples("fsio.read_busy_ms", perIter(func(p *[4]phaseOut) float64 { return ms(p[2].fs.busyNs[opRead].Load()) }))
	res.setSamples("fsio.meta_calls", perIter(func(p *[4]phaseOut) float64 {
		return float64(p[0].fs.calls[opMeta].Load() + p[2].fs.calls[opMeta].Load())
	}))
	res.setSamples("fsio.meta_busy_ms", perIter(func(p *[4]phaseOut) float64 {
		return ms(p[0].fs.busyNs[opMeta].Load() + p[2].fs.busyNs[opMeta].Load())
	}))
	res.setSamples("fsio.write_size_p50_bytes", perIter(func(p *[4]phaseOut) float64 { return median(p[0].fs.writeSizes) }))
	res.setSamples("fsio.unaligned_write_ratio", perIter(func(p *[4]phaseOut) float64 {
		return float64(p[0].fs.unalignedWrites.Load()) / float64(p[0].fs.calls[opWrite].Load())
	}))
	res.setSamples("fsio.coll_write_calls", calls(1, opWrite))
	res.setSamples("fsio.mapped_read_calls", calls(3, opRead))
	res.setSamples("core.write_calls_per_fs_write", perIter(func(p *[4]phaseOut) float64 {
		return float64(p[0].calls) / float64(p[0].fs.calls[opWrite].Load())
	}))
}

// layersServing gives each stack an untraced timed pass, for the rates and
// the stack's own counters, then a short pass with spans on, which ends
// after e.tracedReqs requests per client or its time share.
func layersServing(e *env, w *world, tr *tracer, res *result, seed int64, secs float64) {
	var passes [numStacks]passOut
	var stats [numStacks]serve.Stats
	var fsReads [numStacks]int64 // ReadAt calls under the stack during its timed pass
	var tracedServe, joined passOut
	var joinedStats serve.Stats
	var serveAllocs float64
	for stack := 0; stack < numStacks; stack++ {
		fs := w.fs[stack] // nil for sionserve: a subprocess cannot be handed a decorator
		if fs != nil {
			fsReads[stack] = -fs.c.calls[opRead].Load()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		passes[stack], stats[stack] = w.checkedPass(stack, seed, seconds(secs*tracedStackShare), 0, nil, 0)
		runtime.ReadMemStats(&m1)
		emitServing(res, stack, &passes[stack])
		if fs != nil {
			fsReads[stack] += fs.c.calls[opRead].Load()
		}
		if stack == stackServe {
			// The pass alternates with the pread reference, which allocates nothing.
			serveAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(passes[stack].reqs)
		}

		root := tr.recorder(0, -1, 0, 1)
		root.begin("bench", stackLayer[stack]+".pass")
		if fs != nil {
			fs.bg.Store(tr.background(0, root.top(), 4096))
		}
		out, _ := w.checkedPass(stack, seed, max(seconds(secs*tracedSpanShare), 50*time.Millisecond), e.tracedReqs, tr, root.top())
		if fs != nil {
			fs.bg.Store(nil)
		}
		root.end()
		if stack == stackServe {
			tracedServe = out
		}
		if stack == stackCluster {
			// A static ring never fills from a peer: every block is only
			// ever asked of its one primary. So a fourth node joins for a
			// short pass of its own. The blocks that remap to it sit in
			// their old primaries' caches (all of them when the data is
			// resident, few when it is not), which is the case peer fill
			// is for.
			w.tally.op(w.join(clusterNodes), "cluster join")
			joined, joinedStats = w.checkedPass(stack, seed, seconds(secs*tracedSpanShare), e.tracedReqs, nil, 0)
			w.tally.op(w.cl.Leave(nodeID(clusterNodes)), "cluster leave")
		}
	}
	per1k := func(n, reqs int64) float64 { return float64(n) / float64(reqs) * 1000 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sv, cv, hv := passes[stackServe], passes[stackCluster], passes[stackHTTP]
	sd, cd := stats[stackServe], stats[stackCluster]
	top := topPercentile(len(sv.latUs))
	res.note("serve.ptop_us is p%.5g of %d samples", top*100, len(sv.latUs))
	res.set("serve.ptop_us", percentile(sv.latUs, top))
	res.set("serve.new_ms", w.newTime.Seconds()*1e3)
	res.set("serve.hit_ratio", ratio(sd.Hits, sd.Hits+sd.Misses))
	res.set("serve.flight_hit_ratio", ratio(sd.FlightHits, sd.Misses))
	res.set("serve.backend_reads_per_1k_req", per1k(sd.BackendReads, sv.reqs))
	res.set("serve.backend_bytes_per_served_byte", ratio(sd.BackendBytes, sd.ServedBytes))
	res.set("serve.evictions_per_1k_req", per1k(sd.Evictions, sv.reqs))
	res.set("fsio.serve_reads_per_1k_req", per1k(fsReads[stackServe], sv.reqs))
	res.set("fsio.cluster_reads_per_1k_req", per1k(fsReads[stackCluster], cv.reqs))
	res.set("cluster.efficiency", median(cv.rates)/median(sv.rates))
	res.set("cluster.peer_fills_per_1k_req", per1k(joinedStats.PeerFills, joined.reqs))
	res.set("cluster.backend_reads_per_1k_req", per1k(cd.BackendReads, cv.reqs))
	res.set("http.efficiency", median(hv.rates)/median(sv.rates))
	res.set("http.overhead_us", percentile(hv.latUs, 0.5)-percentile(sv.latUs, 0.5))
	res.set("http.body_MBps", float64(hv.bytes)/hv.busy.Seconds()*float64(w.clients)/1e6)
	res.set("process.serve_allocs_per_req", serveAllocs)
	res.set("process.serve_trace_overhead_ratio", tracedServe.meanUs()/sv.meanUs())
}

// layersSelfTimes turns the spans into self times: per iteration, a core
// call's span minus its fsio children, summed over ranks.
func layersSelfTimes(spans []span, res *result) {
	self := selfTimes(spans)
	name := make(map[int32]string, len(spans))
	for _, s := range spans {
		name[s.ID] = s.Name
	}
	type key struct {
		iter int32
		call string // "P1.ParOpen"
	}
	sums := map[key]int64{}
	var fsReads, serveReqs []span
	for _, s := range spans {
		switch {
		case s.Layer == "core": // child of the rank's "P1.task" span
			sums[key{s.Iter, strings.TrimSuffix(name[s.Parent], "task") + s.Name}] += self[s.ID]
		case s.Layer == "fsio" && s.Name == "ReadAt":
			fsReads = append(fsReads, s)
		case s.Layer == "serve":
			serveReqs = append(serveReqs, s)
		}
	}
	selfMs := func(call string) []float64 {
		var out []float64
		for k, ns := range sums {
			if k.call == call {
				out = append(out, ms(ns))
			}
		}
		return out
	}
	res.setSamples("core.open_self_ms", selfMs("P1.ParOpen"))
	res.setSamples("core.write_self_ms", selfMs("P1.Write"))
	res.setSamples("core.close_self_ms", selfMs("P1.Close"))
	res.setSamples("core.read_self_ms", selfMs("P3.Read"))

	// serve's requests have no fsio children (fetchers do the reading), so
	// their self time is what backend reads in flight do not overlap.
	backend := newIntervalUnion(fsReads)
	var serveSelf int64
	for _, s := range serveReqs {
		serveSelf += s.End - s.Start - backend.covered(s.Start, s.End)
	}
	res.set("serve.self_us_per_req", float64(serveSelf)/1e3/float64(max(len(serveReqs), 1)))
}
