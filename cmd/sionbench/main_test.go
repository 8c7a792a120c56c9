package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Stdout is the tables and nothing else — at scale 16, internal/expt's
// goldens in the order asked for — and the wall-time notes go to stderr.
func TestStdoutIsTheGoldens(t *testing.T) {
	var want []byte
	for _, name := range []string{"tab1", "fig6"} {
		g, err := os.ReadFile(filepath.Join("..", "..", "internal", "expt", "testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, g...)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "tab1,fig6", "-scale", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout is not tab1.golden + fig6.golden:\n%s", stdout.String())
	}
	for _, name := range []string{"tab1", "fig6"} {
		if !strings.Contains(stderr.String(), name+" regenerated in ") {
			t.Errorf("stderr lacks %s's wall-time note:\n%s", name, stderr.String())
		}
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "tab99"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "tab99"`) {
		t.Errorf("stderr does not name the unknown id:\n%s", stderr.String())
	}
}
