// pixels-bench regenerates every figure and calibrated claim of the paper
// (see README.md, "Paper experiments") and prints paper-vs-measured
// tables. Performance numbers come from the benchmark/ harness instead.
//
// Usage:
//
//	pixels-bench                   # run everything
//	pixels-bench -exp e2           # run one experiment (e1..e9, a1..a3)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var exp = flag.String("exp", "", "run a single experiment (e1..e9, a1..a3)")
	flag.Parse()

	ran := 0
	matched := 0
	for _, e := range bench.Registry() {
		if *exp != "" && !strings.EqualFold(e.ID, *exp) {
			continue
		}
		r := e.Run()
		bench.Render(os.Stdout, r)
		ran++
		if r.ShapeOK {
			matched++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("%d/%d experiments match the paper's reported shape\n", matched, ran)
	if matched != ran {
		os.Exit(1)
	}
}
