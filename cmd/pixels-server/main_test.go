package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	pixelsdb "repro"
)

// TestFlagTableMatchesReadme requires README.md's "pixels-server flags"
// table and the flag definitions in main.go to list the same names, so a
// flag cannot be added or dropped without the table changing.
func TestFlagTableMatchesReadme(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### `pixels-server` flags\n")
	if !ok {
		t.Fatal("README.md has no `pixels-server` flags section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\| [^|]+ \\| ([a-z ]+) \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
		switch m[2] {
		case "deployment", "paper parameter", "capacity":
		default:
			t.Errorf("README: flag -%s has class %q, want deployment, paper parameter or capacity", m[1], m[2])
		}
	}
	if len(documented) == 0 {
		t.Fatal("no rows parsed from the flag table")
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.[A-Z]\w*\("([^"]+)"`).FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
		if !documented[m[1]] {
			t.Errorf("main.go defines -%s; the README flag table does not list it", m[1])
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("the README flag table lists -%s; main.go does not define it", name)
		}
	}
}

// TestServeClosesDBOnShutdown: when its context ends — a signal, in main —
// serve stops the HTTP server and closes the database, so the catalog is
// saved (and the warm CF workers reaped) instead of lost with the process.
func TestServeClosesDBOnShutdown(t *testing.T) {
	dir := t.TempDir()
	db, err := pixelsdb.Open(pixelsdb.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(context.Background(), "", "CREATE DATABASE kept"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, db, &http.Server{Addr: "127.0.0.1:0", Handler: db.Handler("kept", "")}) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * shutdownGrace):
		t.Fatal("serve did not return after its context ended")
	}

	reopened, err := pixelsdb.Open(pixelsdb.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if !reopened.Engine().Catalog().HasDatabase("kept") {
		t.Fatal("the catalog was not saved on shutdown")
	}
}
