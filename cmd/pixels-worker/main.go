// Command pixels-worker is the CF worker process of the Pixels-Turbo
// reproduction: for each JSON engine.WorkerRequest on stdin it executes the
// serialized plan fragment over its file partition against the request's
// object store, writes the result back to the store as an intermediate
// pixfile, and reports one JSON engine.WorkerResponse on stdout. It exits
// at EOF on stdin.
//
// The coordinator (engine.ProcessInvoker, wired through pixels-server's
// -cf-exec=process mode) keeps pixels-worker processes warm and sends each
// one task at a time — the local stand-in for a warm cloud-function
// instance, with the same store-based shuffle the real CF tier uses.
package main

import (
	"os"

	"repro/internal/engine"
)

func main() {
	os.Exit(engine.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
}
