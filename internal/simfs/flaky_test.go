package simfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fsio"
)

// flakyTrace runs a fixed op script against a fresh Flaky-wrapped FS and
// returns a replayable transcript of which ops failed.
func flakyTrace(t *testing.T, cfg FlakyConfig, ops int) string {
	t.Helper()
	fs := New(Jugene())
	fl := NewFlaky(cfg)
	w := fl.Wrap(fs.View(1, nil), nil)
	out := ""
	f, err := w.Create("a")
	for f == nil {
		if !errors.Is(err, fsio.ErrTransient) {
			t.Fatalf("Create: %v", err)
		}
		out += "C!"
		f, err = w.Create("a")
	}
	buf := []byte("payload")
	for i := 0; i < ops; i++ {
		var err error
		if i%2 == 0 {
			_, err = f.WriteAt(buf, int64(i))
		} else {
			_, err = f.ReadAt(buf, 0)
		}
		if err == nil {
			out += "."
		} else if errors.Is(err, fsio.ErrTransient) {
			out += "!"
		} else {
			t.Fatalf("op %d: unexpected permanent error %v", i, err)
		}
	}
	return out
}

func TestFlakyDeterministicFromSeed(t *testing.T) {
	cfg := FlakyConfig{Seed: 42, ReadErrProb: 0.3, WriteErrProb: 0.3, MetaErrProb: 0.3}
	a := flakyTrace(t, cfg, 200)
	b := flakyTrace(t, cfg, 200)
	if a != b {
		t.Fatalf("same seed produced different fault schedules:\n%s\n%s", a, b)
	}
	c := flakyTrace(t, FlakyConfig{Seed: 43, ReadErrProb: 0.3, WriteErrProb: 0.3, MetaErrProb: 0.3}, 200)
	if a == c {
		t.Fatalf("different seeds produced identical 200-op fault schedules")
	}
	wantFails := 0
	for _, ch := range a {
		if ch == '!' {
			wantFails++
		}
	}
	if wantFails == 0 {
		t.Fatalf("p=0.3 over 200 ops injected nothing: %s", a)
	}
}

func TestFlakyZeroProbInjectsNothing(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 7})
	fs := New(Jugene())
	w := fl.Wrap(fs.View(1, nil), nil)
	f, err := w.Create("clean")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 500; i++ {
		if _, err := f.WriteAt([]byte{1, 2, 3}, int64(3*i)); err != nil {
			t.Fatalf("WriteAt %d: %v", i, err)
		}
	}
	st := fl.Stats()
	if st.Injected != 0 || st.Spikes != 0 {
		t.Fatalf("zero-prob config injected: %+v", st)
	}
	if st.Ops == 0 {
		t.Fatalf("fault model was never consulted")
	}
}

func TestFlakyDisabled(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 1, ReadErrProb: 1, WriteErrProb: 1, MetaErrProb: 1})
	fl.SetEnabled(false)
	fs := New(Jugene())
	w := fl.Wrap(fs.View(1, nil), nil)
	f, err := w.Create("off")
	if err != nil {
		t.Fatalf("Create with injection disabled: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("WriteAt with injection disabled: %v", err)
	}
	fl.SetEnabled(true)
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, fsio.ErrTransient) {
		t.Fatalf("p=1 write after re-enable: got %v, want transient", err)
	}
}

// TestFlakyRule pins the rule contract: it sees every call with its name,
// file and byte range; its error is injected as returned (here permanent)
// and counted; it may keep unlocked state; SetEnabled(false) silences it
// and SetRule(nil) clears it.
func TestFlakyRule(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 9})
	fs := New(Jugene())
	w := fl.Wrap(fs.View(1, nil), nil)

	fa, err := w.Create("a")
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	fb, err := w.Create("b")
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}

	// The 3rd to 5th calls on "a" from now fail; "b" is untouched.
	errDown := errors.New("a is down")
	var seen []ruleCall
	nthA := 0
	fl.SetRule(func(op fsio.Op) error {
		seen = append(seen, callOf(op))
		if op.Name != "a" {
			return nil
		}
		nthA++
		if nthA >= 3 && nthA < 6 {
			return errDown
		}
		return nil
	})
	for i := 1; i <= 8; i++ {
		_, errA := fa.WriteAt([]byte("AA"), int64(10*i))
		if _, errB := fb.WriteAt([]byte("B"), int64(i)); errB != nil {
			t.Fatalf("rule on a leaked to b at call %d: %v", i, errB)
		}
		if fail := i >= 3 && i < 6; fail != (errA != nil) || fail && (errA != errDown) {
			t.Fatalf("a call %d: err = %v, want the rule's error returned unchanged: %v", i, errA, fail)
		}
	}
	if got := fl.Stats().Injected; got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
	if want := (ruleCall{Call: "WriteAt", Name: "a", Off: 80, Len: 2}); seen[14] != want {
		t.Fatalf("the rule saw %+v, want %+v", seen[14], want)
	}
	for _, call := range []struct {
		do   func()
		want ruleCall
	}{
		{func() { fa.ReadAt(make([]byte, 4), 7) }, ruleCall{Call: "ReadAt", Name: "a", Off: 7, Len: 4}},
		{func() { fa.WriteZeroAt(5, 9) }, ruleCall{Call: "WriteZeroAt", Name: "a", Off: 9, Len: 5}},
		{func() { fa.Truncate(6) }, ruleCall{Call: "Truncate", Name: "a", Off: 6}},
		{func() { fa.Sync() }, ruleCall{Call: "Sync", Name: "a"}},
		{func() { w.OpenRW("./a") }, ruleCall{Call: "OpenRW", Name: "a"}},
		{func() { w.Stat("b") }, ruleCall{Call: "Stat", Name: "b"}},
	} {
		call.do()
		if got := seen[len(seen)-1]; got != call.want {
			t.Fatalf("the rule saw %+v, want %+v", got, call.want)
		}
	}

	// Disabled, the rule is not consulted; nil clears it.
	fl.SetRule(func(fsio.Op) error { return errDown })
	fl.SetEnabled(false)
	if _, err := fa.WriteAt([]byte("A"), 99); err != nil {
		t.Fatalf("write with injection disabled: %v", err)
	}
	fl.SetEnabled(true)
	if _, err := fa.WriteAt([]byte("A"), 99); err != errDown {
		t.Fatalf("write under an always-failing rule: %v", err)
	}
	fl.SetRule(nil)
	if _, err := fa.WriteAt([]byte("A"), 100); err != nil {
		t.Fatalf("write after SetRule(nil): %v", err)
	}
}

// TestFlakyForwardsReadvAt: over a backend with a vectored read the
// wrapped handle keeps ReadvAt, makes one decision per vector call, and a
// rule's fault surfaces through fsio.ReadvAt; over simfs, which has none,
// the handle hides it and the helper's fallback reaches ReadAt.
func TestFlakyForwardsReadvAt(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 13})
	osfs := fl.Wrap(fsio.NewOS(t.TempDir()), nil)
	f, err := osfs.Create("v")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := []byte("0123456789abcdef")
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	_, vec := f.(fsio.VectorReaderAt)
	if _, osVec := mustOpen(t, fsio.NewOS(t.TempDir())).(fsio.VectorReaderAt); vec != osVec {
		t.Fatalf("the flaky handle has ReadvAt %v, its backend %v", vec, osVec)
	}
	var ops []ruleCall
	errDown := errors.New("vector read down")
	fl.SetRule(func(op fsio.Op) error {
		ops = append(ops, callOf(op))
		if op.Off == 4 {
			return errDown
		}
		return nil
	})
	bufs := [][]byte{make([]byte, 3), make([]byte, 5)}
	if _, err := fsio.ReadvAt(f, bufs, 4); !errors.Is(err, errDown) {
		t.Fatalf("ReadvAt under a failing rule: %v", err)
	}
	if n, err := fsio.ReadvAt(f, bufs, 2); n != 8 || err != nil || string(bufs[0])+string(bufs[1]) != "23456789" {
		t.Fatalf("ReadvAt = (%d, %v) %q", n, err, bufs)
	}
	op := "ReadAt"
	if vec {
		op = "ReadvAt"
	}
	if want := []ruleCall{{op, "v", 4, 8}, {op, "v", 2, 8}}; fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("the rule saw %v, want one call per vector: %v", ops, want)
	}

	simf, err := fl.Wrap(New(Jugene()).View(1, nil), nil).Create("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := simf.(fsio.VectorReaderAt); ok {
		t.Fatal("a flaky handle over simfs claims a vectored read its backend lacks")
	}
}

// ruleCall is what a rule sees of an op, in a comparable struct.
type ruleCall struct {
	Call, Name string
	Off, Len   int64
}

func callOf(op fsio.Op) ruleCall { return ruleCall{op.Call, op.Name, op.Off, op.Len} }

// mustOpen creates a scratch file on fsys and returns its handle, closed
// when the test ends.
func mustOpen(t *testing.T, fsys fsio.FileSystem) fsio.File {
	t.Helper()
	f, err := fsys.Create("probe")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFlakyLatencySpikes(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 11, LatencyProb: 1, LatencySecs: 0.25})
	fs := New(Jugene())
	var slept float64
	w := fl.Wrap(fs.View(1, nil), func(s float64) { slept += s })
	f, err := w.Create("slow")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f.WriteAt([]byte("z"), int64(i)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	// Create + 4 writes = 5 ops, each spiking 0.25s.
	if want := 5 * 0.25; slept != want {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	if st := fl.Stats(); st.Spikes != 5 {
		t.Fatalf("Spikes = %d, want 5", st.Spikes)
	}
}

// TestFlakyErrorsAreTransient pins the classification contract: every
// drawn fault, any op kind, wraps fsio.ErrTransient and mentions an errno
// flavor.
func TestFlakyErrorsAreTransient(t *testing.T) {
	fl := NewFlaky(FlakyConfig{Seed: 3, ReadErrProb: 1, WriteErrProb: 1, MetaErrProb: 1})
	fs := New(Jugene())
	w := fl.Wrap(fs.View(1, nil), nil)
	if _, err := w.Create("x"); !errors.Is(err, fsio.ErrTransient) {
		t.Fatalf("Create: %v not transient", err)
	}
	fl.SetEnabled(false)
	f, err := w.Create("x")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	fl.SetEnabled(true)
	cases := []struct {
		op  string
		err func() error
	}{
		{"ReadAt", func() error { _, e := f.ReadAt(make([]byte, 1), 0); return e }},
		{"ReadDiscardAt", func() error { _, e := f.ReadDiscardAt(1, 0); return e }},
		{"WriteAt", func() error { _, e := f.WriteAt([]byte("y"), 0); return e }},
		{"WriteZeroAt", func() error { return f.WriteZeroAt(1, 0) }},
		{"Truncate", func() error { return f.Truncate(4) }},
		{"Sync", func() error { return f.Sync() }},
		{"Size", func() error { _, e := f.Size(); return e }},
		{"Stat", func() error { _, e := w.Stat("x"); return e }},
		{"Remove", func() error { return w.Remove("x") }},
	}
	for _, tc := range cases {
		err := tc.err()
		if !errors.Is(err, fsio.ErrTransient) {
			t.Errorf("%s: %v does not wrap ErrTransient", tc.op, err)
			continue
		}
		msg := fmt.Sprint(err)
		if !contains(msg, "EIO") && !contains(msg, "EAGAIN") {
			t.Errorf("%s: error %q names no errno flavor", tc.op, msg)
		}
	}
	// Close is exempt by design.
	if err := f.Close(); err != nil {
		t.Fatalf("Close must not be flaky: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
