package expt

import (
	"errors"
	"fmt"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/simfs"
	"repro/internal/workload"
)

// Table 8 (extension): transient-fault resilience under a seeded fault
// storm — the flaky-FS model (simfs.Flaky), the retry/backoff budgets
// (internal/resil), and the per-physical-file circuit breakers
// (internal/serve) exercised together as a chaos experiment. The paper's
// machines hide most storage faults behind GPFS/Lustre retry layers, but
// at 64k tasks even a 1e-4 per-op transient rate hits every collective;
// the resilience layers make those faults invisible to the paper's
// workloads. Four phases, every assertion checked in-run (panic on
// violation), everything deterministic from tab8Seed:
//
//   - serve-storm: a zipfian client population (workload.ZipfClients,
//     tab6's access pattern in one-block windows) reads a multifile
//     through serve.Server while every backend read fails transiently
//     with probability tab8ReadErr. Without retries the storm surfaces
//     as failed requests; under the bounded backoff budget at least
//     tab8SuccessFloor of requests succeed (in practice all of them), and
//     every successful read is verified byte-identical to the written
//     payload.
//
//   - writer-storm: tab8Writers vtime-metered ranks stream a watermarked
//     multifile through resil-wrapped flaky views (write, sync, and
//     metadata ops all fault-injected; latency spikes and backoff delays
//     advance the ranks' virtual clocks). The storm must be fully
//     absorbed: zero give-ups, and the multifile reads back
//     byte-identically once the injection is off.
//
//   - breaker-drill: a deterministic hard outage (a Flaky rule) on one
//     physical file walks its circuit through closed → open → half-open
//     → closed. While the circuit is open, cache hits keep serving and
//     misses fail fast with serve.ErrDegraded (no backend retries are
//     burned); when the outage lifts, the cooldown admits a probe whose
//     success restores full byte-identical service.
//
//   - no-injection: the same serve configuration with injection disabled
//     must leave every resilience counter at exactly zero — the fault
//     machinery costs nothing when the backend is healthy.
const (
	tab8Writers = 64
	tab8Chunk   = int64(16) << 10
	tab8FSBlk   = int64(1) << 10
	tab8NFiles  = 2
	tab8Clients = 512
	tab8ReadLen = 1024 // bytes per window: one cache block

	tab8Seed     = 0x7ab80001
	tab8ReadErr  = 0.08 // serve-storm per-read transient fault probability
	tab8Attempts = 8    // bounded backoff budget in the storm phases

	tab8Threshold = 3 // breaker-drill: consecutive give-ups to open
	tab8Cooldown  = 6 // breaker-drill: rejects before the half-open probe

	tab8SuccessFloor = 0.99 // asserted request success rate under retries
)

// tab8Budget is the no-real-sleep bounded backoff budget the serve phases
// run under (the serving layer is outside vtime, exactly as in tab6; the
// backoff delays are therefore not metered, only counted).
func tab8Budget(attempts int) *resil.Budget {
	return &resil.Budget{MaxAttempts: attempts, Seed: tab8Seed, Sleep: func(time.Duration) {}}
}

// tab8Size is writer g's payload size in every phase.
func tab8Size(g int) int { return payloadSize(tab8Chunk, g) }

// tab8Read reads q through stack and checks its bytes. Each read is a replay
// of its own, so a failed one ends only itself.
func tab8Read(stack workload.Stack, q workload.Request) error {
	_, err := workload.Replay(stack, []workload.Request{q}, func(g int) []byte { return taskPayload(g, tab8Size(g)) }, nil)
	return err
}

// tab8Dump is a clean (un-injected) tab3 machine holding the multifile the
// serve phases read, watermark-free. The in-file layout uses tab8FSBlk, and
// the serve phases pin it as their cache block, so the client windows land
// on many distinct cache blocks even at test scale.
func tab8Dump(nwriters int) *simfs.FS {
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab8"))
	writeDump(fs, nwriters, "tab8.sion", &sion.Options{
		ChunkSize: tab8Chunk, FSBlockSize: tab8FSBlk, NFiles: tab8NFiles,
	}, tab8Size)
	return fs
}

// tab8ServeStorm replays the zipfian client workload against a serve
// stack whose backend fails transiently with probability tab8ReadErr
// (inject=true) or not at all (inject=false). Breakers are disabled so
// the phase isolates the retry budget; the drill phase owns the breaker.
// Every successful read is byte-verified. Returns the request/success
// counts and the server's resilience counters.
func tab8ServeStorm(nwriters, nclients, attempts int, inject bool) (requests, ok int, st serve.Stats, injected int64) {
	fs := tab8Dump(nwriters)
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: tab8Seed, ReadErrProb: tab8ReadErr})
	fl.SetEnabled(false) // the metadata load in New is not under the retry path
	srv, err := serve.New(fl.Wrap(fs.View(nwriters, nil), nil), "tab8.sion", &serve.Config{
		CacheBytes:       1 << 20,
		BlockBytes:       tab8FSBlk, // tab8ReadLen is one cache block
		Retry:            tab8Budget(attempts),
		BreakerThreshold: -1,
	})
	check(err == nil, "tab8: serve.New: %v", err)
	fl.SetEnabled(inject)

	stack := workload.Server(srv)
	for _, q := range workload.ZipfClients(tab8Seed, nwriters, nclients, tab8ReadLen, 0, tab8Size) {
		requests++
		if err := tab8Read(stack, q); err != nil {
			// Only a retry-exhausted transient fault is an acceptable
			// failure under the storm; anything else, a wrong byte
			// included, is a bug.
			check(resil.Classify(err) == resil.ClassTransient, "tab8: under faults: %v", err)
			continue
		}
		ok++
	}
	st = srv.Stats()
	injected = fl.Stats().Injected
	err = srv.Close()
	check(err == nil, "tab8: serve.Close: %v", err)
	return requests, ok, st, injected
}

// tab8WriterStorm streams a watermarked multifile from vtime-metered
// ranks whose views inject transient faults on every op kind plus latency
// spikes; the resil wrapper's backoff delays and the spikes both advance
// the writing rank's virtual clock. Returns the fault-model op/injection
// counts and the retry counters; panics unless the storm is fully
// absorbed (zero give-ups, byte-identical read-back).
func tab8WriterStorm(nwriters int) (flst simfs.FlakyStats, rst resil.CounterSnapshot) {
	fs := simfs.New(renamed(tab3Profile(), "jugene-64k-tab8"))
	fl := simfs.NewFlaky(simfs.FlakyConfig{
		Seed:         tab8Seed + 1,
		ReadErrProb:  0.04,
		WriteErrProb: 0.04,
		MetaErrProb:  0.02,
		LatencyProb:  0.05,
		LatencySecs:  0.02,
	})
	var ctrs resil.Counters
	simRun(fs, nwriters, func(c *mpi.Comm, v fsio.FileSystem) {
		spike := func(secs float64) { c.Proc().AdvanceTo(c.Now() + secs) }
		b := resil.Budget{
			MaxAttempts: tab8Attempts,
			Seed:        tab8Seed + uint64(c.Rank()),
			Sleep:       func(d time.Duration) { c.Proc().AdvanceTo(c.Now() + d.Seconds()) },
		}
		rv := resil.Wrap(fl.Wrap(v, spike), b, &ctrs)
		f, err := sion.ParOpen(c, rv, "storm.sion", sion.WriteMode, &sion.Options{
			ChunkSize: tab8Chunk, FSBlockSize: tab8FSBlk, NFiles: tab8NFiles, Watermarks: true,
		})
		check(err == nil, "tab8: storm writer %d: ParOpen: %v", c.Rank(), err)
		payload := taskPayload(c.Rank(), tab8Size(c.Rank()))
		// Stream in four flush batches so the watermark machinery (sync +
		// sidecar commit) runs inside the storm too.
		for i := 0; i < 4; i++ {
			lo, hi := i*len(payload)/4, (i+1)*len(payload)/4
			_, err := f.Write(payload[lo:hi])
			check(err == nil, "tab8: storm writer %d batch %d: %v", c.Rank(), i, err)
			err = f.Flush()
			check(err == nil, "tab8: storm writer %d: Flush: %v", c.Rank(), err)
		}
		err = f.Close()
		check(err == nil, "tab8: storm writer %d: Close: %v", c.Rank(), err)
	})
	giveUps := ctrs.GiveUps.Load()
	check(giveUps == 0, "tab8: writer storm was not absorbed: %d give-ups", giveUps)
	// Injection off: the multifile must read back byte-identically.
	fl.SetEnabled(false)
	v := fs.View(nwriters, nil)
	stream := make([]workload.Request, nwriters)
	for g := range stream {
		stream[g] = workload.Request{Client: g, Rank: g, N: int64(tab8Size(g))}
	}
	uncached := workload.Stack{Open: func(_, g int) (sion.LogicalReaderAt, error) { return sion.OpenRank(v, "storm.sion", g) }}
	_, err := workload.Replay(uncached, stream, func(g int) []byte { return taskPayload(g, tab8Size(g)) }, nil)
	check(err == nil, "tab8: read-back after the writer storm: %v", err)
	return fl.Stats(), ctrs.Snapshot()
}

// tab8BreakerDrill drives one physical file's circuit through its full
// lifecycle under a deterministic outage and asserts every transition:
// give-ups open it, cache hits survive it, misses fail fast with
// ErrDegraded while it is open, and the post-outage cooldown probe closes
// it again. Returns the request/success counts and final server stats.
func tab8BreakerDrill(nwriters int) (requests, ok int, st serve.Stats) {
	fs := tab8Dump(nwriters)
	fl := simfs.NewFlaky(simfs.FlakyConfig{Seed: tab8Seed + 2}) // rule only
	srv, err := serve.New(fl.Wrap(fs.View(nwriters, nil), nil), "tab8.sion", &serve.Config{
		CacheBytes:       1 << 20,
		BlockBytes:       tab8FSBlk, // the storm phases' geometry
		Retry:            tab8Budget(2),
		BreakerThreshold: tab8Threshold,
		BreakerCooldown:  tab8Cooldown,
	})
	check(err == nil, "tab8: drill serve.New: %v", err)

	stack := workload.Server(srv)
	read := func(g int) error {
		requests++
		err := tab8Read(stack, workload.Request{Rank: g, N: int64(tab8Size(g))})
		if err == nil {
			ok++
		}
		return err
	}
	state := func() string { return srv.Health()[0].StateName }

	// Warm rank 0 (physical file 0 under the contiguous mapping), then
	// start a hard outage on that file.
	err = read(0)
	check(err == nil, "tab8: drill warm read: %v", err)
	phys := srv.Health()[0].Path
	fl.SetRule(func(op fsio.Op) error {
		if op.Name != phys {
			return nil
		}
		return fmt.Errorf("tab8: %s: outage: %w", phys, fsio.ErrTransient)
	})

	// Uncached reads of a neighbor rank give up after retries; after
	// tab8Threshold consecutive give-ups the circuit is open.
	for i := 0; i < tab8Threshold; i++ {
		err := read(1)
		check(err != nil, "tab8: drill outage read %d succeeded", i)
		check(!errors.Is(err, serve.ErrDegraded), "tab8: drill degraded before the threshold (read %d)", i)
	}
	s := state()
	check(s == "open", "tab8: after %d give-ups the circuit is %q, want open", tab8Threshold, s)
	check(srv.Degraded(), "tab8: server does not report degraded with an open circuit")
	// Open circuit: cache hits still serve byte-identically, misses fail
	// fast with the typed error and burn no backend retries.
	err = read(0)
	check(err == nil, "tab8: cached read with open circuit: %v", err)
	retriesOpen := srv.Stats().Retries
	fl.SetRule(nil) // the outage ends, but the circuit is still open
	for tries := 0; state() != "half-open"; tries++ {
		err := read(1)
		check(errors.Is(err, serve.ErrDegraded), "tab8: open-circuit read: %v, want ErrDegraded", err)
		check(tries <= 2*tab8Cooldown, "tab8: cooldown never reached half-open")
	}
	r := srv.Stats().Retries
	check(r == retriesOpen, "tab8: retries advanced during fail-fast: %d -> %d", retriesOpen, r)
	// The half-open probe succeeds and closes the circuit; full service
	// is restored byte-identically.
	err = read(1)
	check(err == nil, "tab8: half-open probe failed: %v", err)
	s = state()
	check(s == "closed", "tab8: after the probe the circuit is %q, want closed", s)
	for g := 0; g < nwriters; g++ {
		err := read(g)
		check(err == nil, "tab8: rank %d after recovery: %v", g, err)
	}
	st = srv.Stats()
	check(st.BreakerOpens == 1, "tab8: BreakerOpens = %d, want 1", st.BreakerOpens)
	check(st.Degraded != 0 && st.GiveUps != 0, "tab8: drill left no degraded/give-up trace: %+v", st)
	err = srv.Close()
	check(err == nil, "tab8: drill serve.Close: %v", err)
	return requests, ok, st
}

// tab8Pct formats ok/requests as a percentage.
func tab8Pct(ok, requests int) string {
	return fmt.Sprintf("%.1f", 100*float64(ok)/float64(requests))
}

// Table8 regenerates the chaos table: the zipfian serve workload and a
// streaming writer under a seeded transient-fault storm, the circuit
// breaker's outage lifecycle, and the zero-overhead guard, with the
// retry/give-up/degraded counters as evidence.
func Table8(scale int) *Result {
	res := &Result{
		Name:   "tab8",
		Title:  "Table 8 (ext): transient-fault resilience (simfs.Flaky + internal/resil + serve breakers), seeded chaos storm, jugene",
		Header: []string{"phase", "mode", "requests", "ok%", "retries", "giveups", "degraded", "opens"},
	}
	nwriters := scaleDown(tab8Writers, scale, 16)
	nclients := scaleDown(tab8Clients, scale, 96)

	// Serve storm, without and with the retry budget.
	req0, ok0, st0, inj0 := tab8ServeStorm(nwriters, nclients, 1, true)
	check(inj0 != 0 && st0.Retries == 0, "tab8: no-retry storm: injected %d, retries %d", inj0, st0.Retries)
	res.Rows = append(res.Rows, []string{"serve-storm", "no-retry",
		fmt.Sprint(req0), tab8Pct(ok0, req0), fmt.Sprint(st0.Retries), fmt.Sprint(st0.GiveUps),
		fmt.Sprint(st0.Degraded), "-"})

	req1, ok1, st1, inj1 := tab8ServeStorm(nwriters, nclients, tab8Attempts, true)
	check(inj1 != 0, "tab8: retry storm injected nothing")
	frac := float64(ok1) / float64(req1)
	check(frac >= tab8SuccessFloor, "tab8: retry storm success %.4f < %.2f floor", frac, tab8SuccessFloor)
	res.Rows = append(res.Rows, []string{"serve-storm", fmt.Sprintf("retry x%d", tab8Attempts),
		fmt.Sprint(req1), tab8Pct(ok1, req1), fmt.Sprint(st1.Retries), fmt.Sprint(st1.GiveUps),
		fmt.Sprint(st1.Degraded), "-"})

	// Writer storm: requests are backend ops seen by the fault model.
	flst, rst := tab8WriterStorm(nwriters)
	check(flst.Injected != 0 && rst.Retries != 0, "tab8: writer storm injected %d / retried %d", flst.Injected, rst.Retries)
	res.Rows = append(res.Rows, []string{"writer-storm", "retry+vtime",
		fmt.Sprint(flst.Ops), "100.0", fmt.Sprint(rst.Retries), fmt.Sprint(rst.GiveUps), "-", "-"})

	// Breaker drill.
	reqD, okD, stD := tab8BreakerDrill(nwriters)
	res.Rows = append(res.Rows, []string{"breaker-drill", "outage",
		fmt.Sprint(reqD), tab8Pct(okD, reqD), fmt.Sprint(stD.Retries), fmt.Sprint(stD.GiveUps),
		fmt.Sprint(stD.Degraded), fmt.Sprint(stD.BreakerOpens)})

	// Zero-overhead guard: injection off, counters must be exactly zero.
	reqC, okC, stC, injC := tab8ServeStorm(nwriters, nclients, tab8Attempts, false)
	check(injC == 0 && okC == reqC, "tab8: clean run injected %d, ok %d/%d", injC, okC, reqC)
	check(stC.Retries == 0 && stC.GiveUps == 0 && stC.Degraded == 0 && stC.BreakerOpens == 0,
		"tab8: clean run moved resilience counters: %+v", stC)
	res.Rows = append(res.Rows, []string{"no-injection", fmt.Sprintf("retry x%d", tab8Attempts),
		fmt.Sprint(reqC), tab8Pct(okC, reqC), "0", "0", "0", "0"})

	res.Notes = append(res.Notes,
		fmt.Sprintf("seeded storm: p(read fault)=%.2f, budget %d attempts, seed %#x; byte identity asserted on every successful read",
			tab8ReadErr, tab8Attempts, tab8Seed),
		fmt.Sprintf("breaker drill asserts closed->open->half-open->closed (threshold %d, cooldown %d) with cache hits served throughout",
			tab8Threshold, tab8Cooldown),
	)
	return res
}
