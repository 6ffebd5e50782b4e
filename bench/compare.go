package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// gap is how much worse b is than a, as a share of a: positive means b
// regressed in the metric's own direction.
func gap(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-300
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per (metric, workload), both medians with their
// quartiles, the relative gap of b against a and the metric's bound. It
// reports false when a gap exceeds its bound, when a count or simulated
// value differs, or when b fails an operation a did not.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ma, mb := a.Manifest, b.Manifest
	if !ma.Comparable || !mb.Comparable {
		return false, fmt.Errorf("a result measured with -scale != 1 is not comparable")
	}
	if ma.Seed != mb.Seed || ma.GOMAXPROCS != mb.GOMAXPROCS || ma.Seconds != mb.Seconds || ma.Traced != mb.Traced {
		return false, fmt.Errorf("results differ in seed, GOMAXPROCS, run length or tracing (%d/%d/%gs/%v vs %d/%d/%gs/%v): not comparable",
			ma.Seed, ma.GOMAXPROCS, ma.Seconds, ma.Traced, mb.Seed, mb.GOMAXPROCS, mb.Seconds, mb.Traced)
	}
	fmt.Fprintf(w, "a: %s rev %s   b: %s rev %s   seed %d\n", pathA, ma.GitRev, pathB, mb.GitRev, ma.Seed)

	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	ok := true
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from %s\n", ra.Workload, pathB)
			ok = false
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", ra.Workload)
		for _, def := range reported {
			sa, inA := ra.EndToEnd[def.Name]
			sb, inB := rb.EndToEnd[def.Name]
			if !inA && !inB {
				continue
			}
			g := gap(def.Better, sa.Median, sb.Median)
			verdict, bad := "ok", false
			switch {
			case inA != inB:
				verdict, bad = "MISSING", true
			case def.Exact:
				if sa.Median != sb.Median {
					verdict, bad = "DIFFERS (must repeat exactly)", true
				}
			case ma.Traced:
				// A traced run sets up once and repeats 11 times: its
				// timings are shown, and gated only in untraced files.
				verdict = "not gated (traced)"
			case g > def.Bound:
				verdict, bad = "REGRESSION", true
			}
			if bad {
				ok = false
			}
			fmt.Fprintf(w, "  %-20s a %.6g [%.6g, %.6g]  b %.6g [%.6g, %.6g] %s  gap %+.2f%%  bound %.0f%%  %s\n",
				def.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, def.Unit, 100*g, 100*def.Bound, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "  failed operations rose from %d to %d\n", ra.Failed, rb.Failed)
			ok = false
		}
		if ra.TraceDigest != rb.TraceDigest {
			fmt.Fprintf(w, "  inputs differ: %s vs %s\n", ra.TraceDigest, rb.TraceDigest)
			ok = false
		}
		if ra.PerLayer == nil || rb.PerLayer == nil {
			continue
		}
		for _, def := range perLayer {
			va, vb := ra.PerLayer[def.Name], rb.PerLayer[def.Name]
			if va == 0 && vb == 0 {
				continue
			}
			verdict := ""
			if def.Exact && va != vb {
				verdict = "DIFFERS (must repeat exactly)"
				ok = false
			}
			fmt.Fprintf(w, "    %-34s a %.6g  b %.6g %s  gap %+.2f%%  %s\n",
				def.Name, va, vb, def.Unit, 100*gap(def.Better, va, vb), verdict)
		}
	}
	return ok, nil
}
