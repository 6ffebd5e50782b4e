package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDominocSmoke builds the binary and checks the invocations the usage
// text advertises: good ones exit 0 and print what was asked for, bad ones
// exit non-zero with the reason on stderr.
func TestDominocSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "dominoc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		fail bool
		want string // substring of the combined output
	}{
		{args: []string{"-list"}, want: "heavy_hitters"},
		{args: []string{"-alg", "flowlets"}, want: "generated P4 LOC"},
		{args: []string{"-alg", "flowlets", "-p4"}, want: "control DominoIngress"},
		{args: []string{"-alg", "codel"}, fail: true, want: "line rate"},
		{args: []string{"-file", "x", "-alg", "y"}, fail: true, want: "either -file or -alg"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if failed := err != nil; failed != tc.fail {
			t.Errorf("dominoc %v: err = %v, want failure = %v\n%s", tc.args, err, tc.fail, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("dominoc %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
