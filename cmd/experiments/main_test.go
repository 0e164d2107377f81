package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/short.golden from this build's output")

// TestShortGolden runs the -short suite in process and compares every
// table and figure byte for byte with testdata/short.golden.
func TestShortGolden(t *testing.T) {
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()
	*flagShort, *flagAll = true, true
	defer func() { *flagShort, *flagAll = false, false }()
	render()

	path := filepath.Join("testdata", "short.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		lines := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(lines); i++ {
			if !bytes.Equal(got[i], lines[i]) {
				t.Fatalf("output differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, got[i], lines[i])
			}
		}
		t.Fatalf("output differs from %s: %d lines, want %d", path, len(got), len(lines))
	}
}
