package main

import "testing"

// The example checks itself: run fails unless every client's bytes match
// and the backend saw fewer span reads than there were clients.
func TestRun(t *testing.T) {
	if err := run(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
