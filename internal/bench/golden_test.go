package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim.golden from this run")

// TestSimGolden pins the virtual-clock experiments byte for byte: the
// scheduler, autoscaler and billing code they drive may be restructured,
// but every table cell and shape verdict must come out the same. Titles and
// captions are prose and stay out of the file.
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	pinned := map[string]bool{"E2": true, "E3": true, "E5": true, "E8": true, "E9": true, "A1": true, "A2": true, "A3": true}
	var sb strings.Builder
	for _, e := range Registry() {
		if !pinned[e.ID] {
			continue
		}
		r := e.Run()
		var block strings.Builder
		Render(&block, r)
		_, table, _ := strings.Cut(block.String(), "\npaper: "+r.Paper+"\n")
		sb.WriteString("== " + r.ID + " ==\n" + table)
	}
	path := filepath.Join("testdata", "sim.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("virtual-clock experiment output changed (go test ./internal/bench -run TestSimGolden -update rewrites it):\n--- got\n%s--- want\n%s", got, want)
	}
}
