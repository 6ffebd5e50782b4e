// Command banzai compiles a Domino program and runs a synthetic workload
// through the resulting atom pipeline on the cycle-accurate Banzai machine,
// cross-checking every packet against the sequential reference interpreter.
//
// Usage:
//
//	banzai -alg flowlets -n 10000
//	banzai -alg heavy_hitters -n 100000 -target Pairs
package main

import (
	"flag"
	"fmt"
	"os"

	"domino"
	"domino/internal/interp"
	"domino/internal/workload"
)

func main() {
	var (
		alg    = flag.String("alg", "flowlets", "catalog algorithm to run")
		n      = flag.Int("n", 10000, "number of packets")
		target = flag.String("target", "", "Banzai target (default: least expressive)")
		seed   = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	src, err := domino.CatalogSource(*alg)
	if err != nil {
		fatal(err)
	}
	var prog *domino.Program
	if *target == "" {
		prog, err = domino.CompileLeast(src)
	} else {
		tgt, terr := domino.TargetFor(*target)
		if terr != nil {
			fatal(terr)
		}
		prog, err = domino.Compile(src, tgt)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: target %s, %d stages, max %d atoms/stage\n",
		*alg, prog.Target().Name, prog.NumStages(), prog.MaxAtomsPerStage())

	m, err := prog.NewMachine()
	if err != nil {
		fatal(err)
	}
	ref, err := domino.NewInterpreter(src)
	if err != nil {
		fatal(err)
	}

	// The pipeline is in order, so the k-th departure (from Tick, then from
	// Drain) is the k-th packet in: compare it with the interpreter's
	// result for that packet on every declared field.
	trace := traceFor(*alg, *seed, *n)
	fields := prog.Fields()
	var wants []domino.Packet // interpreter results for the packets still in the pipeline
	mismatches, emitted := 0, 0
	check := func(out domino.Packet) {
		want := wants[0]
		wants = wants[1:]
		for _, f := range fields {
			if out[f] != want[f] {
				if mismatches == 0 {
					fmt.Fprintf(os.Stderr, "banzai: packet %d field %s = %d, the interpreter says %d\n",
						emitted, f, out[f], want[f])
				}
				mismatches++
				break
			}
		}
		emitted++
	}
	for _, pkt := range trace {
		want := pkt.Clone()
		if err := ref.Run(want); err != nil {
			fatal(err)
		}
		wants = append(wants, want)
		if out, ok := m.Tick(pkt); ok {
			check(out)
		}
	}
	for _, out := range m.Drain() {
		check(out)
	}
	if emitted != len(trace) {
		fatal(fmt.Errorf("pipeline emitted %d of %d packets", emitted, len(trace)))
	}
	fmt.Printf("ran %d packets in %d cycles (one packet per clock + drain); %d mismatches\n",
		len(trace), m.Cycles(), mismatches)
	if mismatches > 0 {
		fatal(fmt.Errorf("%d of %d departing packets differ from the sequential reference", mismatches, len(trace)))
	}
	if !ref.State().Equal(m.State()) {
		fatal(fmt.Errorf("pipeline state diverged from the sequential reference"))
	}
	fmt.Println("pipeline state ≡ serial transaction execution ✓")
}

// traceFor picks a workload matching the algorithm's packet fields.
func traceFor(alg string, seed int64, n int) []interp.Packet {
	switch alg {
	case "flowlets":
		return workload.FlowletTrace(seed, 100, n, 10, 50)
	case "bloom_filter", "heavy_hitters":
		tr, _ := workload.HeavyHitterTrace(seed, 1000, n, 1.2)
		return tr
	case "rcp":
		return workload.RTTTrace(seed, n, 15, 30)
	case "dns_ttl":
		tr, _ := workload.DNSTrace(seed, 512, n, 0.1)
		return tr
	case "conga":
		return workload.CongaTrace(seed, 16, 64, n)
	case "hull", "avq":
		return workload.AQMTrace(seed, n)
	case "stfq_wfq":
		return workload.STFQTrace(seed, 64, n)
	default: // sampled_netflow and anything field-free
		out := make([]interp.Packet, n)
		for i := range out {
			out[i] = interp.Packet{}
		}
		return out
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "banzai:", err)
	os.Exit(1)
}
