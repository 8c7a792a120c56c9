package main

import "testing"

// The example checks itself: run fails unless the restart is bit-exact.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
