package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"domino"
)

// TestBanzaiSmoke builds the binary and runs every catalog algorithm that
// compiles: each must exit 0, i.e. every departing packet and the final
// state agree with the reference interpreter.
func TestBanzaiSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "banzai")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, e := range domino.Catalog() {
		if !e.Maps {
			continue
		}
		out, err := exec.Command(bin, "-alg", e.Name, "-n", "2000").CombinedOutput()
		if err != nil {
			t.Errorf("banzai -alg %s: %v\n%s", e.Name, err, out)
		} else if !strings.Contains(string(out), "2000 packets") || !strings.Contains(string(out), " 0 mismatches") {
			t.Errorf("banzai -alg %s exited 0 without reporting 2000 packets, 0 mismatches:\n%s", e.Name, out)
		}
	}
}
