package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestParseFileProcs: the GOMAXPROCS suffix is read off every line, an
// unsuffixed run counts as 1, and a file mixing counts is refused.
func TestParseFileProcs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := write("one.txt", "BenchmarkA \t 1 \t 100 ns/op \t 7 allocs/op\n"+
		"BenchmarkB/workers=4 \t 1 \t 100 ns/op \t 9 allocs/op\n")
	two := write("two.txt", "BenchmarkA-2 \t 1 \t 100 ns/op \t 8 allocs/op\n"+
		"BenchmarkB/workers=4-2 \t 1 \t 100 ns/op \t 9 allocs/op\n")
	mixed := write("mixed.txt", "BenchmarkA \t 1 \t 100 ns/op\nBenchmarkA-2 \t 1 \t 100 ns/op\n")

	for _, c := range []struct {
		path  string
		procs int
	}{{one, 1}, {two, 2}} {
		m, names, procs, err := parseFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if procs != c.procs || len(names) != 2 || names[1] != "BenchmarkB/workers=4" {
			t.Errorf("%s: procs %d names %v, want %d and suffix-free names", c.path, procs, names, c.procs)
		}
		if m["BenchmarkA"] == nil || m["BenchmarkA"].values["allocs/op"] == 0 {
			t.Errorf("%s: BenchmarkA metrics missing: %+v", c.path, m)
		}
	}
	if _, _, _, err := parseFile(mixed); !errors.Is(err, errProcsMismatch) {
		t.Errorf("mixed GOMAXPROCS file: err %v, want errProcsMismatch", err)
	}
}
