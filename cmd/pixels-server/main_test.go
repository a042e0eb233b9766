package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
