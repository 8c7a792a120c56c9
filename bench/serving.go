package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/serve"
)

// The three serving stacks, bottom to top. The same seeded request stream
// is replayed through each.
const (
	stackServe = iota
	stackCluster
	stackHTTP
	numStacks
)

var stackLayer = [numStacks]string{"serve", "cluster", "http"}

const (
	nameServed   = "served.sion"
	nameFlat     = "served.flat"
	clusterNodes = 3
	scanPiece    = 256 << 10             // warm-scan request size
	sliceLen     = 30 * time.Millisecond // a timed pass sends through the stack for this long, then through the reference
	maxLatencies = 1 << 20               // latency samples kept per client and pass
)

// world is one set-up serving world: the dump on disk and the three
// stacks over it, warm.
type world struct {
	sp      *spec
	job     *job
	tally   *tally
	clients int

	os      *pageCacheFS
	extents [][]sion.BlockExtent // the dump's chunk extents, per rank
	fs      [numStacks]*timedFS  // traced runs only: the backend as serve and cluster see it
	refs    *refs
	srv     *serve.Server
	cl      *cluster.Cluster
	nodeFS  fsio.FileSystem // the backend of every cluster node
	nodeCfg serve.Config
	proc    *subprocess
	newTime time.Duration // serve.New
}

// refs are the fixtures of the serving references, standard library only:
// a flat file of every rank's stream back to back for the pread reference,
// and a bare net/http server answering from memory (see runner.giveRefs).
type refs struct {
	flat     *os.File
	flatPath string
	http     *refServer
}

func newRefs(dir string, j *job) (*refs, error) {
	r := &refs{flatPath: filepath.Join(dir, nameFlat)}
	var err error
	if r.flat, err = os.Create(r.flatPath); err != nil {
		return r, err
	}
	for g, data := range j.payload {
		if _, err := r.flat.WriteAt(data, int64(g)*j.sp.BytesPerTask); err != nil {
			return r, err
		}
	}
	r.http, err = startRefServer(j.payload)
	return r, err
}

func (r *refs) close() {
	if r == nil {
		return
	}
	if r.http != nil {
		r.http.stop()
	}
	if r.flat != nil {
		r.flat.Close()
		os.Remove(r.flatPath)
	}
}

// env is what a run needs from its surroundings.
type env struct {
	dir       string        // scratch directory, removed at exit
	sionserve string        // path of the built cmd/sionserve
	buildTime time.Duration // of that build
	clients   int
	jan       *janitor

	worlds     int // worlds an untraced run goes through
	mpiRounds  int // rounds each mpi collective is timed for (traced run)
	tracedReqs int // requests per client in each stack's traced pass
}

// setUp generates the workload's inputs, writes the dump to be served,
// brings up the three stacks over it and warms them with a full scan.
// Everything here is what setup_s times.
func setUp(e *env, sp *spec, seed int64, tl *tally, trace bool) (*world, error) {
	w := &world{sp: sp, tally: tl, clients: e.clients, os: newPageCacheFS(e.dir, &tl.syncs)}
	w.job = newJob(sp, seed)
	k := w.ckpt(e, nil)
	k.runPhase("setup", 0, false, sp.Tasks, k.writeBody(nameServed, k.optsP1()))
	if tl.failed.Load() > 0 {
		return w, fmt.Errorf("writing %s failed", nameServed)
	}

	backend := func(i int) fsio.FileSystem {
		if !trace {
			return w.os
		}
		w.fs[i] = &timedFS{inner: w.os, c: &fsCounters{}, blk: w.os.BlockSize(nameServed)}
		return w.fs[i]
	}
	start := time.Now()
	srv, err := serve.New(backend(stackServe), nameServed, &serve.Config{CacheBytes: sp.CacheBytes})
	if err != nil {
		return w, err
	}
	w.srv, w.newTime = srv, time.Since(start)
	w.extents = make([][]sion.BlockExtent, sp.Tasks)
	for g := range w.extents {
		w.extents[g] = srv.Layout().RankBlocks(g)
	}

	// Each node gets a third of the cache, in whole blocks.
	blk := srv.Layout().FSBlockSize()
	w.nodeCfg = serve.Config{CacheBytes: (sp.CacheBytes/clusterNodes + blk - 1) / blk * blk}
	w.nodeFS = backend(stackCluster)
	w.cl = cluster.New(nil)
	for i := 0; i < clusterNodes; i++ {
		if err := w.join(i); err != nil {
			return w, err
		}
	}

	w.proc, err = startSionserve(e, filepath.Join(e.dir, nameServed), sp.CacheBytes)
	if err != nil {
		return w, err
	}
	for stack := 0; stack < numStacks; stack++ {
		w.scan(stack)
	}
	if tl.failed.Load() > 0 {
		return w, fmt.Errorf("warm scan failed")
	}
	return w, nil
}

func nodeID(i int) string { return fmt.Sprintf("node%d", i) }

// join adds node i to the cluster.
func (w *world) join(i int) error {
	cfg := w.nodeCfg
	_, err := w.cl.Join(nodeID(i), w.nodeFS, nameServed, &cfg)
	return err
}

// ckpt returns the checkpoint-phase runner over this world's job.
func (w *world) ckpt(e *env, tr *tracer) *ckpt {
	return &ckpt{job: w.job, dir: e.dir, os: w.os, blk: w.os.BlockSize(nameP1), extents: w.extents, tr: tr, tally: w.tally}
}

func (w *world) tearDown() {
	if w.proc != nil {
		w.proc.stop()
	}
	if w.cl != nil {
		w.cl.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	w.os.Remove(nameServed) // missing if set-up failed early
}

// reader is one client's connection to a stack; read fills p from rank's
// logical stream at off.
type reader interface {
	read(rank int, p []byte, off int64) error
}

// handleReader reads through in-process serve.Handles, opened on first use.
type handleReader struct {
	open    func(rank int) (*serve.Handle, error)
	handles []*serve.Handle
}

func (r *handleReader) read(rank int, p []byte, off int64) error {
	h := r.handles[rank]
	if h == nil {
		var err error
		if h, err = r.open(rank); err != nil {
			return err
		}
		r.handles[rank] = h
	}
	_, err := h.ReadLogicalAt(p, off)
	return err
}

// httpReader is one keep-alive connection to sionserve.
type httpReader struct {
	c    *http.Client
	base string
	url  []byte
}

func (r *httpReader) read(rank int, p []byte, off int64) error {
	u := append(r.url[:0], r.base...)
	u = append(u, "/rank/"...)
	u = strconv.AppendInt(u, int64(rank), 10)
	u = append(u, "?off="...)
	u = strconv.AppendInt(u, off, 10)
	u = append(u, "&n="...)
	u = strconv.AppendInt(u, int64(len(p)), 10)
	r.url = u
	resp, err := r.c.Get(string(u))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	if _, err := io.ReadFull(resp.Body, p); err != nil {
		return fmt.Errorf("GET %s: body: %w", u, err)
	}
	if extra, _ := io.Copy(io.Discard, resp.Body); extra != 0 {
		return fmt.Errorf("GET %s: %d bytes beyond the %d asked for", u, extra, len(p))
	}
	return nil
}

// preadReader is the reference for the in-process stacks: the same request
// answered by one pread from a flat file of all ranks' streams, which is
// what a reader without a serving tier would do. No code of this
// repository is involved.
type preadReader struct {
	f      *os.File
	stride int64 // bytes per rank
}

func (r preadReader) read(rank int, p []byte, off int64) error {
	_, err := r.f.ReadAt(p, int64(rank)*r.stride+off)
	return err
}

func newHTTPReader(base string) *httpReader {
	return &httpReader{base: base, c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (w *world) newReader(stack int) reader {
	switch stack {
	case stackServe:
		return &handleReader{open: w.srv.Open, handles: make([]*serve.Handle, w.sp.Tasks)}
	case stackCluster:
		return &handleReader{open: w.cl.Open, handles: make([]*serve.Handle, w.sp.Tasks)}
	default:
		return newHTTPReader(w.proc.url)
	}
}

// newRefReader is the host-speed reference of a stack: what the standard
// library alone needs for the same requests (see refServer for HTTP).
func (w *world) newRefReader(stack int) reader {
	if stack == stackHTTP {
		return newHTTPReader(w.refs.http.url)
	}
	return preadReader{w.refs.flat, w.sp.BytesPerTask}
}

// scan reads every rank's whole stream through a stack and checks it
// against the generator: the warm-up-and-verify pass.
func (w *world) scan(stack int) {
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := w.newReader(stack)
			buf := make([]byte, min(scanPiece, w.sp.BytesPerTask))
			for g := c; g < w.sp.Tasks; g += w.clients {
				for off := int64(0); off < w.sp.BytesPerTask; off += int64(len(buf)) {
					p := buf[:min(int64(len(buf)), w.sp.BytesPerTask-off)]
					w.tally.ops(1)
					if err := rd.read(g, p, off); err != nil {
						w.tally.fail("%s scan: rank %d off %d: %v", stackLayer[stack], g, off, err)
					} else if !bytes.Equal(p, w.job.payload[g][off:off+int64(len(p))]) {
						w.tally.fail("%s scan: rank %d off %d: wrong bytes", stackLayer[stack], g, off)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// sliceStat is what one client did in one slice of a pass.
type sliceStat struct {
	count         int64
	busy, refBusy time.Duration // time inside the slice's requests: through the stack, through the reference
}

// passOut is one replay of the request stream through one stack, or
// several of them pooled.
type passOut struct {
	reqs, bytes int64         // through the stack
	busy        time.Duration // time inside the stack's requests, summed over clients
	latUs       []float64     // per-request latency through the stack
	refLatUs    []float64     // the same requests through the reference
	rates       []float64     // req/s of each slice
	ratios      []float64     // each slice's rate ÷ the reference's rate on the same requests
}

func (o passOut) meanUs() float64 { return float64(o.busy) / 1e3 / float64(o.reqs) }

// merge pools another pass of the same stack into o.
func (o *passOut) merge(p passOut) {
	o.reqs, o.bytes, o.busy = o.reqs+p.reqs, o.bytes+p.bytes, o.busy+p.busy
	o.latUs, o.refLatUs = append(o.latUs, p.latUs...), append(o.refLatUs, p.refLatUs...)
	o.rates, o.ratios = append(o.rates, p.rates...), append(o.ratios, p.ratios...)
}

// barrier lets n goroutines wait for each other, any number of times.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting, b.round = 0, b.round+1
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// pass has every client replay its request stream, closed loop: the next
// request goes out when the previous one has been checked. Only the time
// inside a request counts: generating the request and checking the
// returned bytes against the generator happen between requests and are
// kept out of both latency and throughput.
//
// A timed pass (maxReqs == 0) lasts d, in slices: the clients send
// requests through the stack for sliceLen and then, all together, put the
// very requests of that slice through the stack's reference, so every
// slice's rate is stated against what the host did with the same requests
// within a few milliseconds, and the mix of request sizes, which differs
// from slice to slice, cancels.
//
// A counted pass is one slice of at most maxReqs requests per client and
// at most d, and has no reference. tr, when not nil, records one span per
// request under root.
func (w *world) pass(stack int, seed int64, d time.Duration, maxReqs int, tr *tracer, root int32) passOut {
	maxSlices, stackLen := int(d/sliceLen)+1, sliceLen
	if maxReqs > 0 {
		maxSlices, stackLen = 1, d
	}
	type client struct {
		reqs, bytes int64
		slices      []sliceStat
		lat, refLat []uint32
	}
	cs := make([]client, w.clients)
	name := "ReadLogicalAt"
	if stack == stackHTTP {
		name = "GET"
	}
	// Every slice starts, and turns to the reference, when all clients are
	// there, so that both always run under the full client count. Client 0
	// decides between slices whether the pass is over.
	bar := newBarrier(w.clients)
	var over atomic.Bool
	var start time.Time
	var wg sync.WaitGroup
	for c := range cs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &cs[c]
			cl.lat, cl.refLat = make([]uint32, 0, maxLatencies), make([]uint32, 0, maxLatencies)
			real, ref := w.newReader(stack), w.newRefReader(stack)
			gen := newRequestGen(w.sp, seed, c)
			buf := make([]byte, w.sp.ReqMax)
			var asked []request // of the current slice
			var rec *recorder
			if tr != nil {
				rec = tr.recorder(0, c, root, maxReqs)
			}
			// timed puts one request through rd and checks what came back.
			timed := func(rd reader, rq request, lats *[]uint32, what string) time.Duration {
				p := buf[:rq.N]
				t0 := time.Now()
				err := rd.read(rq.Rank, p, rq.Off)
				lat := time.Since(t0)
				if len(*lats) < cap(*lats) {
					*lats = append(*lats, uint32(min(lat, time.Duration(1<<32-1))))
				}
				if err != nil {
					w.tally.fail("%s%s: rank %d off %d n %d: %v", stackLayer[stack], what, rq.Rank, rq.Off, rq.N, err)
				} else if !bytes.Equal(p, w.job.payload[rq.Rank][rq.Off:rq.Off+int64(rq.N)]) {
					w.tally.fail("%s%s: rank %d off %d n %d: wrong bytes", stackLayer[stack], what, rq.Rank, rq.Off, rq.N)
				}
				return lat
			}
			for {
				bar.wait()
				if c == 0 {
					if start.IsZero() {
						start = time.Now()
					}
					over.Store(len(cl.slices) == maxSlices || (len(cl.slices) > 0 && time.Since(start) >= d))
				}
				bar.wait()
				if over.Load() {
					return
				}
				var st sliceStat
				asked = asked[:0]
				for t0 := time.Now(); time.Since(t0) < stackLen && (maxReqs == 0 || cl.reqs < int64(maxReqs)); {
					rq := gen.next()
					asked = append(asked, rq)
					if rec != nil {
						rec.begin(stackLayer[stack], name)
					}
					st.busy += timed(real, rq, &cl.lat, "")
					if rec != nil {
						rec.end()
					}
					st.count++
					cl.reqs++
					cl.bytes += int64(rq.N)
				}
				if maxReqs == 0 {
					bar.wait()
					for _, rq := range asked {
						st.refBusy += timed(ref, rq, &cl.refLat, " reference")
					}
				}
				cl.slices = append(cl.slices, st)
			}
		}()
	}
	wg.Wait()
	nslices := len(cs[0].slices)

	var out passOut
	micros := func(dst []float64, src []uint32) []float64 {
		for _, l := range src {
			dst = append(dst, float64(l)/1e3)
		}
		return dst
	}
	for i := range cs {
		cl := &cs[i]
		out.reqs += cl.reqs
		out.bytes += cl.bytes
		out.latUs, out.refLatUs = micros(out.latUs, cl.lat), micros(out.refLatUs, cl.refLat)
		for s := 0; s < nslices; s++ {
			out.busy += cl.slices[s].busy
		}
	}
	w.tally.ops(out.reqs)
	if maxReqs > 0 {
		return out
	}
	// A slice's rate is Σ over clients of requests ÷ time inside requests:
	// what a closed loop with no think time would complete per second.
	for s := 0; s < nslices; s++ {
		var rate, refRate float64
		for i := range cs {
			st := cs[i].slices[s]
			rate += float64(st.count) / st.busy.Seconds()
			refRate += float64(st.count) / st.refBusy.Seconds()
		}
		out.rates = append(out.rates, rate)
		out.ratios = append(out.ratios, rate/refRate)
	}
	return out
}

// refServer is the reference for the HTTP stack: the same GETs answered
// from memory by a bare net/http server in this process, no code of this
// repository. What sionserve adds on top of it is the repository's.
type refServer struct {
	srv *http.Server
	url string
}

func startRefServer(payload [][]byte) (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rank, err1 := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/rank/"))
		q := r.URL.Query()
		off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
		n, err3 := strconv.ParseInt(q.Get("n"), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || rank < 0 || rank >= len(payload) ||
			off < 0 || n < 0 || off+n > int64(len(payload[rank])) {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
		w.Write(payload[rank][off : off+n])
	})
	s := &refServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go s.srv.Serve(ln)
	return s, nil
}

func (s *refServer) stop() { s.srv.Close() }

// stats returns the serve counters of a stack (summed over nodes for the
// cluster, fetched from /stats for sionserve).
func (w *world) stats(stack int) (serve.Stats, error) {
	switch stack {
	case stackServe:
		return w.srv.Stats(), nil
	case stackCluster:
		return w.cl.Stats().Serve, nil
	}
	var st serve.Stats
	resp, err := http.Get(w.proc.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkedPass is pass plus the books: the stack's own count of served
// bytes must equal what the clients received.
func (w *world) checkedPass(stack int, seed int64, d time.Duration, maxReqs int, tr *tracer, root int32) (passOut, serve.Stats) {
	before, err1 := w.stats(stack)
	out := w.pass(stack, seed, d, maxReqs, tr, root)
	after, err2 := w.stats(stack)
	w.tally.ops(1)
	if err1 != nil || err2 != nil {
		w.tally.fail("%s: reading stats: %v %v", stackLayer[stack], err1, err2)
	} else if got := after.ServedBytes - before.ServedBytes; got != out.bytes {
		w.tally.fail("%s: stack counted %d served bytes, clients received %d", stackLayer[stack], got, out.bytes)
	}
	return out, statsDelta(after, before)
}

func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, FlightHits: a.FlightHits - b.FlightHits,
		BackendReads: a.BackendReads - b.BackendReads, BackendBytes: a.BackendBytes - b.BackendBytes,
		ServedBytes: a.ServedBytes - b.ServedBytes, Evictions: a.Evictions - b.Evictions,
		PeerFills: a.PeerFills - b.PeerFills,
	}
}

// subprocess is a running sionserve.
type subprocess struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	jan    *janitor
}

// startSionserve launches sionserve on a free loopback port and waits
// until /healthz answers 200. sionserve cannot report a port it picked
// itself, so the port is picked here; if something else grabs it in
// between, sionserve exits and another port is tried.
func startSionserve(e *env, multifile string, cacheBytes int64) (*subprocess, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		p := &subprocess{url: "http://" + addr, exited: make(chan struct{}), jan: e.jan}
		p.cmd = exec.Command(e.sionserve, "-addr", addr, "-slow-ms", "0",
			"-cache-mb", strconv.FormatInt(max((cacheBytes+(1<<20)-1)>>20, 1), 10), multifile)
		p.cmd.Stderr = os.Stderr
		if err := p.cmd.Start(); err != nil {
			return nil, err
		}
		e.jan.add(p)
		go func() {
			p.cmd.Wait()
			close(p.exited)
		}()
		if lastErr = p.waitHealthy(10 * time.Second); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, fmt.Errorf("sionserve did not come up: %w", lastErr)
}

func (p *subprocess) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz: %s", resp.Status)
		}
		select {
		case <-p.exited:
			return fmt.Errorf("sionserve exited before it was healthy (last: %v)", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sionserve not healthy after %v (last: %v)", limit, err)
		}
	}
}

// stop kills the process and returns once it has ended.
func (p *subprocess) stop() {
	p.cmd.Process.Kill()
	<-p.exited
	p.jan.remove(p)
}

// janitor knows every subprocess and scratch directory of the run, so that
// every exit path, a signal included, leaves nothing behind.
type janitor struct {
	mu    sync.Mutex
	procs map[*subprocess]struct{}
	dirs  []string
}

func (j *janitor) add(p *subprocess) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.procs == nil {
		j.procs = map[*subprocess]struct{}{}
	}
	j.procs[p] = struct{}{}
}

func (j *janitor) remove(p *subprocess) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.procs, p)
}

func (j *janitor) sweep() {
	j.mu.Lock()
	procs := make([]*subprocess, 0, len(j.procs))
	for p := range j.procs {
		procs = append(procs, p)
	}
	dirs := j.dirs
	j.dirs = nil
	j.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// buildSionserve compiles cmd/sionserve of the repository this benchmark
// sits in (the working directory or its parent) into dir and reports how
// long that took.
func buildSionserve(dir string) (string, time.Duration, error) {
	root := "."
	if _, err := os.Stat("cmd/sionserve"); err != nil {
		root = ".."
	}
	bin, err := filepath.Abs(filepath.Join(dir, "sionserve"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sionserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/sionserve in %s: %v\n%s", root, err, out)
	}
	return bin, time.Since(start), nil
}
