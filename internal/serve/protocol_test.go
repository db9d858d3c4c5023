package serve

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the golden protocol files with current responses")

// testSweep keeps golden and engine tests in the sub-second range: a
// short Bernoulli horizon and a tight drain cap on tiny grids.
func testSweep() core.PatternSweepConfig {
	sc := core.DefaultPatternSweep()
	sc.Workload.Cycles = 400
	sc.NoC.MaxCycles = 20000
	return sc
}

// newTestEngine builds an engine on the fast test sweep; Close is owned
// by the test.
func newTestEngine(t *testing.T, mutate ...func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultEngineConfig()
	cfg.Sweep = testSweep()
	cfg.Workers = 2
	for _, m := range mutate {
		m(&cfg)
	}
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	return e
}

// runGolden replays a golden protocol file: "> request" lines are served
// through the engine's line handler, "< response" lines pin the exact
// bytes the server must answer (comments and blanks pass through). With
// -update the file is rewritten from the live responses.
func runGolden(t *testing.T, e *Engine, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	var pending string // request awaiting its "<" line
	lineNo := 0
	flush := func(wantLine string, haveWant bool) {
		if pending == "" {
			if haveWant {
				t.Fatalf("%s:%d: response line without a preceding request", path, lineNo)
			}
			return
		}
		got := string(e.handleLine(context.Background(), pending))
		if haveWant && !*update && got != wantLine {
			t.Errorf("%s:%d: response drift for request %s\n got %s\nwant %s",
				path, lineNo, pending, got, wantLine)
		}
		out = append(out, "< "+got)
		pending = ""
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "> "):
			flush("", false) // request without recorded response yet
			pending = strings.TrimPrefix(line, "> ")
			out = append(out, line)
		case strings.HasPrefix(line, "< "):
			flush(strings.TrimPrefix(line, "< "), true)
		default:
			flush("", false)
			out = append(out, sc.Text())
		}
	}
	flush("", false)
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
}

// TestGoldenErrors pins the structured rejection for every protocol error
// class reachable from a request line: byte-stable codes, fields and
// messages.
func TestGoldenErrors(t *testing.T) {
	runGolden(t, newTestEngine(t), filepath.Join("testdata", "golden_errors.txt"))
}

// TestGoldenMatrix pins a successful response for every registered
// kind × pattern combination (plus express, want and kernel variants):
// the full wire-level determinism contract.
func TestGoldenMatrix(t *testing.T) {
	runGolden(t, newTestEngine(t), filepath.Join("testdata", "golden_matrix.txt"))
}

// TestCanonicalFoldsEquivalents: spellings that mean the same query must
// share one cache key, and defaults must land on their documented values.
func TestCanonicalFoldsEquivalents(t *testing.T) {
	minimal, errObj := Request{Pattern: "uniform", Load: 0.05}.Canonical(DefaultMaxNodes)
	if errObj != nil {
		t.Fatal(errObj)
	}
	spelled, errObj := Request{
		ID: "other", Topology: "MESH", Width: 8, Height: 8,
		Base: "E", Express: "H", Pattern: "Uniform", Load: 0.05,
		Want: WantLatency,
	}.Canonical(DefaultMaxNodes)
	if errObj != nil {
		t.Fatal(errObj)
	}
	if minimal.key() != spelled.key() {
		t.Errorf("equivalent queries got distinct keys:\n %s\n %s", minimal.key(), spelled.key())
	}
	if minimal.Topology != "mesh" || minimal.Width != 8 || minimal.Height != 8 ||
		minimal.Base != "Electronic" || minimal.Express != "Electronic" ||
		minimal.Want != WantLatency {
		t.Errorf("defaults not folded: %+v", minimal)
	}
	// Hops=0 folds express onto base; with hops the technologies diverge.
	withHops, errObj := Request{Pattern: "uniform", Load: 0.05, Express: "HyPPI", Hops: 3}.Canonical(DefaultMaxNodes)
	if errObj != nil {
		t.Fatal(errObj)
	}
	if withHops.key() == minimal.key() {
		t.Error("express design point must not share the plain key")
	}
}

// TestCanonicalGeometryFieldAttribution: the bad_geometry rejection names
// the dimension that actually violated the bound.
func TestCanonicalGeometryFieldAttribution(t *testing.T) {
	cases := []struct {
		req   Request
		field string
	}{
		{Request{Width: 1, Height: 4, Pattern: "uniform", Load: 0.1}, "width"},
		{Request{Width: 4, Height: -1, Pattern: "uniform", Load: 0.1}, "height"},
		{Request{Hops: -2, Pattern: "uniform", Load: 0.1}, "hops"},
	}
	for _, c := range cases {
		_, errObj := c.req.Canonical(DefaultMaxNodes)
		if errObj == nil || errObj.Code != CodeBadGeometry || errObj.Field != c.field {
			t.Errorf("%+v: want bad_geometry on %q, got %v", c.req, c.field, errObj)
		}
	}
}

// TestDecodeRequestEchoesID: an ID readable from a rejected request must
// survive into the error response.
func TestDecodeRequestEchoesID(t *testing.T) {
	req, errObj := DecodeRequest([]byte(`{"id":"q7","load":"high"}`))
	if errObj == nil || errObj.Code != CodeBadJSON || errObj.Field != "load" {
		t.Fatalf("want bad_json on load, got %v", errObj)
	}
	if req.ID != "q7" {
		t.Errorf("ID lost on decode error: %+v", req)
	}
}

// TestResponseEncodeStable: encoding is deterministic byte-for-byte.
func TestResponseEncodeStable(t *testing.T) {
	r := Response{ID: "x", OK: true, Result: &Result{
		Topology: "mesh", Point: "p", Width: 8, Height: 8,
		Pattern: "uniform", Load: 0.05, Want: WantLatency,
		AvgLatencyClks: 12.5, Cycles: 400, Packets: 99,
	}}
	a, b := r.Encode(), r.Encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("unstable encoding:\n%s\n%s", a, b)
	}
	if bytes.Contains(a, []byte("\n")) {
		t.Fatalf("encoded response spans lines: %q", a)
	}
}

// TestErrorMessagesListRegisteredNames: registry rejections must teach the
// caller the valid vocabulary, mirroring the CLI usage strings.
func TestErrorMessagesListRegisteredNames(t *testing.T) {
	_, errObj := Request{Pattern: "nope", Load: 0.1}.Canonical(DefaultMaxNodes)
	if errObj == nil {
		t.Fatal("unknown pattern accepted")
	}
	for _, name := range []string{"uniform", "transpose", "tornado", "hotspot"} {
		if !strings.Contains(errObj.Message, name) {
			t.Errorf("unknown_pattern message misses %q: %s", name, errObj.Message)
		}
	}
	_, errObj = Request{Topology: "ring", Pattern: "uniform", Load: 0.1}.Canonical(DefaultMaxNodes)
	if errObj == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, name := range []string{"mesh", "torus", "cmesh", "fbfly"} {
		if !strings.Contains(errObj.Message, name) {
			t.Errorf("unknown_kind message misses %q: %s", name, errObj.Message)
		}
	}
}

// TestGoldenFilesCoverEveryKindAndPattern guards the matrix file itself:
// adding a topology kind or traffic pattern to the registries without
// extending the golden matrix is a test failure, not silent shrinkage.
func TestGoldenFilesCoverEveryKindAndPattern(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_matrix.txt"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, kind := range topology.Names() {
		if !strings.Contains(text, fmt.Sprintf("%q", kind)) {
			t.Errorf("golden matrix misses topology kind %q", kind)
		}
	}
	for _, pat := range traffic.Names() {
		if !strings.Contains(text, fmt.Sprintf("%q", pat)) {
			t.Errorf("golden matrix misses pattern %q", pat)
		}
	}
}
