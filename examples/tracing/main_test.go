package main

import "testing"

// The example checks itself: run fails unless every trace reads back event
// for event and the late-sender search finds the wait state record plants.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
