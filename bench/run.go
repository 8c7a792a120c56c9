package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// How one run's measuring time is shared out. The checkpoint phases and
// the three serving stacks each get a fixed share of -seconds; within its
// share each repeats (iterations, time slices) and reports a median.
const (
	setupsPerWorld = 2 // an untraced run sets each of its worlds up this often, timed, and measures on the last

	ckptShare  = 0.46 // untraced: the four phases, iterated
	stackShare = 0.18 // untraced: each serving stack

	tracedCkptShare  = 0.50 // traced: untraced + extra rungs + traced iterations
	tracedStackShare = 0.11 // traced: each stack's untraced pass
	tracedSpanShare  = 0.04 // traced: at most this for each stack's pass with spans on
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runner is the state of one run of one workload: the current world, which
// an untraced run replaces several times, and the fixtures of the serving
// references for it.
type runner struct {
	e      *env
	sp     *spec
	seed   int64
	trace  bool
	tally  *tally
	w      *world
	refs   *refs
	setups []float64 // seconds each counted set-up took
}

// setUp replaces the current world by a fresh one, n times, and counts
// each as a sample of setup_s if asked to. Each starts from a collected
// heap, so that none inherits the previous world's buffers and cache as
// garbage.
func (r *runner) setUp(n int, counted bool) error {
	for i := 0; i < n; i++ {
		r.tearDown()
		runtime.GC()
		start := time.Now()
		var err error
		if r.w, err = setUp(r.e, r.sp, r.seed, r.tally, r.trace); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if counted {
			r.setups = append(r.setups, time.Since(start).Seconds())
		}
	}
	return nil
}

// giveRefs gives the current world, which is about to be measured on, the
// fixtures of the serving references. That is outside setup_s: they are
// the yardstick's, not the program's. Every measured world gets its own,
// so that where a flat file happened to land in memory colours one world,
// not a run.
func (r *runner) giveRefs() error {
	var err error
	if r.refs, err = newRefs(r.e.dir, r.w.job); err != nil {
		return fmt.Errorf("set-up of the references: %w", err)
	}
	r.w.refs = r.refs
	return nil
}

func (r *runner) tearDown() {
	r.refs.close()
	r.refs = nil
	if r.w != nil {
		r.w.tearDown()
		r.w = nil
	}
}

// runWorkload is one run: set up, measure for about secs seconds, tear
// down. An untraced run yields the end-to-end metrics, a traced run the
// per-layer ones; spans (traced only) are returned for -spans.
func runWorkload(e *env, sp *spec, seed int64, secs float64, trace bool) (*result, []span, error) {
	res := newResult(sp, seed, secs, trace)
	r := &runner{e: e, sp: sp, seed: seed, trace: trace, tally: &tally{}}
	defer r.tearDown()
	res.note("%d tasks x %d B in %d-%d B records, chunk %d B, %d mapped readers; served: zipf %.1f, requests %d-%d B, cache %d B over %d B of data",
		sp.Tasks, sp.BytesPerTask, sp.RecMin, sp.RecMax, sp.ChunkSize, sp.Readers, sp.RankSkew, sp.ReqMin, sp.ReqMax, sp.CacheBytes, sp.DumpBytes())
	res.note("%d closed-loop serving clients (min(nproc, 4)); GOMAXPROCS %d", e.clients, runtime.GOMAXPROCS(0))
	res.note("scratch on %s; no fsync anywhere: sandbox page-cache numbers, not a device's", fsTypeOf(e.dir))

	// The first set-up is never counted: it alone pays for growing the heap
	// and first-touching the page cache, which took it from 1.0 s to
	// anywhere up to 2.3 s on ckpt-large.
	if err := r.setUp(1, false); err != nil {
		return nil, nil, err
	}
	var spans []span
	if trace {
		if err := r.giveRefs(); err != nil {
			return nil, nil, err
		}
		spans = measureLayers(e, r.w, res, seed, secs)
	} else if err := measureEndToEnd(r, res, secs); err != nil {
		return nil, nil, err
	}

	res.note("%d Sync calls (core's Close syncs each physical file) not passed on to the disk", r.tally.syncs.Load())
	res.Attempted, res.Failed = r.tally.attempted.Load(), r.tally.failed.Load()
	res.Correct = res.Failed == 0
	if err := res.check(); err != nil {
		return res, spans, err
	}
	return res, spans, nil
}

// ckptSamples collects one sample per iteration for each checkpoint
// metric: absolute (MB/s, ms) and as a ratio to the host-speed reference
// taken in the same iteration.
type ckptSamples struct {
	openMs, write, coll, read, mapped                []float64 // ms, MB/s
	openRatio, writeEff, collEff, readEff, mappedEff []float64 // over the reference of the same iteration
	vsLocal                                          []float64 // P1 over the N task-local files
	refWrite, refRead, refLocalWrite, refCreateMs    []float64 // the reference itself
	wallP                                            [4][]float64
	stored                                           int64
	storedVaries                                     bool
}

func (s *ckptSamples) add(sp *spec, it iterOut) {
	mbps := func(d time.Duration) float64 { return float64(sp.DumpBytes()) / d.Seconds() / 1e6 }
	over := func(ref, d time.Duration) float64 { return ref.Seconds() / d.Seconds() }
	s.openMs = append(s.openMs, it.p[0].open.Seconds()*1e3)
	s.write = append(s.write, mbps(it.p[0].wall))
	s.coll = append(s.coll, mbps(it.p[1].wall))
	s.read = append(s.read, mbps(it.p[2].wall))
	s.mapped = append(s.mapped, mbps(it.p[3].wall))
	s.openRatio = append(s.openRatio, over(it.p[0].open, it.ref.localCreate))
	s.writeEff = append(s.writeEff, over(it.ref.sharedWrite, it.p[0].wall))
	s.collEff = append(s.collEff, over(it.ref.sharedWrite, it.p[1].wall))
	s.readEff = append(s.readEff, over(it.ref.sharedRead, it.p[2].wall))
	s.mappedEff = append(s.mappedEff, over(it.ref.sharedRead, it.p[3].wall))
	s.vsLocal = append(s.vsLocal, over(it.ref.localWrite, it.p[0].wall))
	s.refWrite = append(s.refWrite, mbps(it.ref.sharedWrite))
	s.refRead = append(s.refRead, mbps(it.ref.sharedRead))
	s.refLocalWrite = append(s.refLocalWrite, mbps(it.ref.localWrite))
	s.refCreateMs = append(s.refCreateMs, it.ref.localCreate.Seconds()*1e3)
	for i := range s.wallP {
		s.wallP[i] = append(s.wallP[i], it.p[i].wall.Seconds())
	}
	if s.stored != 0 && s.stored != it.stored {
		s.storedVaries = true
	}
	s.stored = it.stored
}

// emit reports the ratios (end-to-end, and again as core's efficiencies in
// the traced run) and the absolute numbers behind them (per-layer); each
// kind of run keeps the names that are its own.
func (s *ckptSamples) emit(res *result, sp *spec, tl *tally) {
	res.setSamples("write_vs_pwrite", s.writeEff)
	res.setSamples("coll_write_vs_pwrite", s.collEff)
	res.setSamples("read_vs_pread", s.readEff)
	res.setSamples("mapped_read_vs_pread", s.mappedEff)
	res.setSamples("core.write_efficiency", s.writeEff)
	res.setSamples("core.coll_write_efficiency", s.collEff)
	res.setSamples("core.read_efficiency", s.readEff)
	res.setSamples("core.mapped_read_efficiency", s.mappedEff)
	res.setSamples("core.open_vs_tasklocal_create", s.openRatio)
	res.setSamples("core.vs_tasklocal_write_ratio", s.vsLocal)
	res.set("stored_bytes_per_user_byte", float64(s.stored)/float64(sp.DumpBytes()))
	res.setSamples("core.open_ms", s.openMs)
	res.setSamples("core.write_MBps", s.write)
	res.setSamples("core.coll_write_MBps", s.coll)
	res.setSamples("core.read_MBps", s.read)
	res.setSamples("core.mapped_read_MBps", s.mapped)
	res.setSamples("host.pwrite_MBps", s.refWrite)
	res.setSamples("host.pread_MBps", s.refRead)
	res.setSamples("host.tasklocal_write_MBps", s.refLocalWrite)
	res.setSamples("host.tasklocal_create_ms", s.refCreateMs)
	res.note("absolute: open %.3f ms, write %.0f, collective write %.0f, read %.0f, mapped read %.0f MB/s; reference: create %.3f ms, pwrite %.0f, pread %.0f MB/s",
		median(s.openMs), median(s.write), median(s.coll), median(s.read), median(s.mapped),
		median(s.refCreateMs), median(s.refWrite), median(s.refRead))
	tl.ops(1)
	if s.storedVaries {
		tl.fail("stored size of the P1 dump varies between iterations")
	}
}

// emitServing reports one stack's timed passes: ratios to the reference
// (end-to-end) and the absolute numbers behind them (per-layer). It leaves
// out's latencies in ascending order.
func emitServing(res *result, stack int, out *passOut) {
	layer := stackLayer[stack]
	ref := [numStacks]string{"pread", "pread", "barehttp"}[stack]
	sort.Float64s(out.latUs)
	sort.Float64s(out.refLatUs)
	p50, refP50 := percentile(out.latUs, 0.5), percentile(out.refLatUs, 0.5)
	res.setSamples(layer+"_vs_"+ref, out.ratios)
	res.set(layer+"_p50_vs_"+ref, p50/refP50)
	res.setSamples(layer+".req_per_s", out.rates)
	res.set(layer+".p50_us", p50)
	res.set(layer+".p99_us", percentile(out.latUs, 0.99))
	res.set("host."+layer+"_ref_p50_us", refP50)
	res.note("absolute: %s %.0f req/s, p50 %.2f us over %d requests; reference (%s) p50 %.2f us",
		layer, median(out.rates), p50, len(out.latUs), ref, refP50)
}

// measureEndToEnd is the untraced run. It goes through several worlds,
// each set up setupsPerWorld times: set-up is a metric itself, and spread
// over the run like this a slow spell of the host shorter than a run cannot
// colour every sample of it. The serving stacks are measured on every
// world and the passes pooled, so that what differs from one world to the
// next (where the dump and the heap landed in memory, which thread sits on
// which core) averages out within a run. The checkpoint phases run on the
// first world only, back to back: they make and delete files the size of
// the dump, and after every pause in that the first iteration is several
// times slower than the rest (the memory the deleted files gave back has to
// be faulted in again, hypervisor included).
func measureEndToEnd(r *runner, res *result, secs float64) error {
	var passes [numStacks]passOut
	for n := 0; n < r.e.worlds; n++ {
		if err := r.setUp(setupsPerWorld, true); err != nil {
			return err
		}
		if err := r.giveRefs(); err != nil {
			return err
		}
		if n == 0 {
			k := r.w.ckpt(r.e, nil)
			// Iteration 0 is the untimed warm-up-and-verify pass of every phase.
			k.iteration(0, false)
			var s ckptSamples
			deadline := time.Now().Add(seconds(secs * ckptShare))
			for iter := 1; iter <= 3 || time.Now().Before(deadline); iter++ {
				s.add(r.sp, k.iteration(iter, false))
			}
			s.emit(res, r.sp, r.tally)
		}
		for stack := range passes {
			out, _ := r.w.checkedPass(stack, r.seed, seconds(secs*stackShare/float64(r.e.worlds)), 0, nil, 0)
			passes[stack].merge(out)
		}
	}
	for stack := range passes {
		emitServing(res, stack, &passes[stack])
	}
	res.setSamples("setup_s", r.setups)
	res.note("set-ups took %.3f s", r.setups)
	return nil
}

// peakRSSMB reads the process's high-water RSS.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsTypeOf names the file system a directory is on.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "an unknown file system"
	}
	names := map[int64]string{0xef53: "ext2/3/4", 0x01021994: "tmpfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("file system type %#x", st.Type)
}
