package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"domino/internal/interp"
	"domino/internal/ir"
	"domino/internal/pvsm"
	"domino/internal/token"
)

// This file keeps the map-based verification loop the slot-indexed one in
// verify.go replaced — concreteExec over the statements, eval over the
// expression trees, fresh maps per vector — as the oracle the new loop is
// diffed against. It is the previous code verbatim but for one thing: the
// compares walk states and fields in name order (the old loop ranged over
// the maps), so that the first counterexample is one text, not one of a few.
//
// corpus_test.go feeds the check* functions every program the repo ships.

// concreteExec runs the codelet on concrete values, for verification.
// It returns the new state values and the defined packet fields.
func concreteExec(c *pvsm.Codelet, states map[string]int32, fields map[string]int32) (map[string]int32, map[string]int32, error) {
	st := make(map[string]int32, len(states))
	for k, v := range states {
		st[k] = v
	}
	defs := map[string]int32{}
	get := func(o ir.Operand) int32 {
		if o.IsConst() {
			return o.Value
		}
		if v, ok := defs[o.Name]; ok {
			return v
		}
		return fields[o.Name]
	}
	for _, s := range c.Stmts {
		switch x := s.(type) {
		case *ir.Move:
			defs[x.Dst] = get(x.Src)
		case *ir.BinOp:
			v, err := interp.EvalBinary(x.Op, get(x.A), get(x.B))
			if err != nil {
				return nil, nil, err
			}
			defs[x.Dst] = v
		case *ir.CondMove:
			if get(x.Cond) != 0 {
				defs[x.Dst] = get(x.A)
			} else {
				defs[x.Dst] = get(x.B)
			}
		case *ir.ReadState:
			defs[x.Dst] = st[x.State]
		case *ir.WriteState:
			st[x.State] = get(x.Src)
		default:
			return nil, nil, fmt.Errorf("synth: unexpected statement %T", s)
		}
	}
	return st, defs, nil
}

// env is an evaluation environment for verification.
type env struct {
	fields map[string]int32
	states map[string]int32
}

// eval evaluates e under en with Domino's int32 semantics.
func eval(e expr, en *env) (int32, error) {
	switch x := e.(type) {
	case eConst:
		return x.v, nil
	case eField:
		return en.fields[x.name], nil
	case eState:
		return en.states[x.name], nil
	case *eBin:
		a, err := eval(x.a, en)
		if err != nil {
			return 0, err
		}
		b, err := eval(x.b, en)
		if err != nil {
			return 0, err
		}
		return interp.EvalBinary(x.op, a, b)
	case *eCond:
		c, err := eval(x.c, en)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return eval(x.a, en)
		}
		return eval(x.b, en)
	}
	return 0, fmt.Errorf("synth: unknown expr %T", e)
}

// oracleVerify is the map-based verify.
func oracleVerify(c *pvsm.Codelet, sum *summary, opts Options) (int, error) {
	inputs := c.Reads()
	states := append([]string(nil), c.StateVars...)
	sort.Strings(states)

	vars := append(append([]string{}, states...), inputs...)
	small := []int32{-31, -2, -1, 0, 1, 2, 5, 31}

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	checked := 0

	check := func(assign map[string]int32) error {
		stVals := map[string]int32{}
		for _, s := range states {
			stVals[s] = assign[s]
		}
		fVals := map[string]int32{}
		for _, f := range inputs {
			fVals[f] = assign[f]
		}
		wantState, wantDefs, err := concreteExec(c, stVals, fVals)
		if err != nil {
			return err
		}
		en := &env{fields: fVals, states: stVals}
		for _, sv := range sortedKeys(sum.states) {
			got, err := eval(sum.states[sv], en)
			if err != nil {
				return err
			}
			if got != wantState[sv] {
				return fmt.Errorf("state %s: atom=%d codelet=%d under %v", sv, got, wantState[sv], assign)
			}
		}
		for _, f := range sortedKeys(sum.defs) {
			got, err := eval(sum.defs[f], en)
			if err != nil {
				return err
			}
			if got != wantDefs[f] {
				return fmt.Errorf("field %s: atom=%d codelet=%d under %v", f, got, wantDefs[f], assign)
			}
		}
		checked++
		return nil
	}

	// Exhaustive grid while it stays small; sampled grid otherwise.
	total := 1
	exhaustive := true
	for range vars {
		if total > 32768/len(small) {
			exhaustive = false
			break
		}
		total *= len(small)
	}
	assign := map[string]int32{}
	if exhaustive && len(vars) > 0 {
		idx := make([]int, len(vars))
		for {
			for i, v := range vars {
				assign[v] = small[idx[i]]
			}
			if err := check(assign); err != nil {
				return checked, err
			}
			j := 0
			for ; j < len(idx); j++ {
				idx[j]++
				if idx[j] < len(small) {
					break
				}
				idx[j] = 0
			}
			if j == len(idx) {
				break
			}
		}
	} else {
		for i := 0; i < 32768; i++ {
			for _, v := range vars {
				assign[v] = small[rng.Intn(len(small))]
			}
			if err := check(assign); err != nil {
				return checked, err
			}
		}
	}

	for i := 0; i < opts.VerifyVectors; i++ {
		for _, v := range vars {
			assign[v] = int32(rng.Uint32())
		}
		if err := check(assign); err != nil {
			return checked, err
		}
	}
	return checked, nil
}

// summarized is one stateful codelet with its symbolic summary.
type summarized struct {
	c   *pvsm.Codelet
	sum *summary
}

// statefulCodelets compiles src to its pipeline and returns every stateful
// codelet symexec accepts (CoDel's sqrt codelet is the one it does not).
func statefulCodelets(t *testing.T, src string) []summarized {
	t.Helper()
	pl := pipelineOf(t, src)
	var out []summarized
	for _, st := range pl.Stages {
		for _, c := range st {
			if !c.Stateful() || len(c.StateVars) > 2 {
				continue
			}
			if sum, err := symexec(c); err == nil {
				out = append(out, summarized{c, sum})
			}
		}
	}
	return out
}

var testOpts = Options{VerifyVectors: 2000}

// same fails the test unless the two loops checked the same number of
// vectors and reached the same verdict in the same words.
func same(t *testing.T, what string, n int, err error, on int, oerr error) {
	t.Helper()
	if n != on || fmt.Sprint(err) != fmt.Sprint(oerr) {
		t.Errorf("%s:\n slot-indexed: %d vectors, %v\n map oracle:   %d vectors, %v", what, n, err, on, oerr)
	}
}

// checkAgainstOracle verifies every stateful codelet of src with both
// loops — as synthesized, and with a mismatch planted in one state update
// and in one packet output — and returns how many codelets it compared.
func checkAgainstOracle(t *testing.T, src string) int {
	t.Helper()
	cs := statefulCodelets(t, src)
	for _, sc := range cs {
		n, err := verify(sc.c, sc.sum, testOpts)
		on, oerr := oracleVerify(sc.c, sc.sum, testOpts)
		same(t, sc.c.String(), n, err, on, oerr)
		if err != nil {
			t.Errorf("%s: %v", sc.c, err)
		}
		if res, rerr := MapCodelet(sc.c, Options{}); rerr == nil && res.Verified != on {
			t.Errorf("%s: MapCodelet verified %d vectors, the oracle %d", sc.c, res.Verified, on)
		}

		plant := func(m map[string]expr, k string) {
			old := m[k]
			m[k] = &eBin{op: token.Plus, a: old, b: eConst{1}}
			n, err := verify(sc.c, sc.sum, testOpts)
			on, oerr := oracleVerify(sc.c, sc.sum, testOpts)
			m[k] = old
			same(t, "planted in "+k+" of "+sc.c.String(), n, err, on, oerr)
			if err == nil || n != 0 {
				t.Errorf("planted mismatch in %s survived %d vectors: %v", k, n, err)
			}
		}
		plant(sc.sum.states, sc.sum.order[0])
		if fs := sortedKeys(sc.sum.defs); len(fs) > 0 {
			plant(sc.sum.defs, fs[len(fs)-1])
		}
	}
	return len(cs)
}

// mutants returns every single-site mutation of e: an add/subtract flipped,
// a conditional's arms swapped, a constant off by one, a relational
// operator replaced by its neighbour.
func mutants(e expr) []expr {
	var out []expr
	switch x := e.(type) {
	case eConst:
		out = append(out, eConst{x.v + 1})
	case *eBin:
		flip := map[token.Kind]token.Kind{
			token.Plus: token.Minus, token.Minus: token.Plus,
			token.Lt: token.Leq, token.Leq: token.Lt, token.Gt: token.Geq, token.Geq: token.Gt,
			token.Eq: token.Neq, token.Neq: token.Eq,
		}
		if op, ok := flip[x.op]; ok {
			out = append(out, &eBin{op: op, a: x.a, b: x.b})
		}
		for _, m := range mutants(x.a) {
			out = append(out, &eBin{op: x.op, a: m, b: x.b})
		}
		for _, m := range mutants(x.b) {
			out = append(out, &eBin{op: x.op, a: x.a, b: m})
		}
	case *eCond:
		out = append(out, &eCond{c: x.c, a: x.b, b: x.a})
		for _, m := range mutants(x.c) {
			out = append(out, &eCond{c: m, a: x.a, b: x.b})
		}
		for _, m := range mutants(x.a) {
			out = append(out, &eCond{c: x.c, a: m, b: x.b})
		}
		for _, m := range mutants(x.b) {
			out = append(out, &eCond{c: x.c, a: x.a, b: m})
		}
	}
	return out
}

// swapFields renames field a to b and b to a throughout e.
func swapFields(e expr, a, b string) expr {
	switch x := e.(type) {
	case eField:
		switch x.name {
		case a:
			return eField{b}
		case b:
			return eField{a}
		}
	case *eBin:
		return &eBin{op: x.op, a: swapFields(x.a, a, b), b: swapFields(x.b, a, b)}
	case *eCond:
		return &eCond{c: swapFields(x.c, a, b), a: swapFields(x.a, a, b), b: swapFields(x.b, a, b)}
	}
	return e
}

// mutationScore is what the sampled check is worth on a set of codelets:
// mutants planted in the symbolic summaries, and how many each loop killed.
type mutationScore struct{ planted, oracleKilled, killed int }

// checkMutants plants every mutant of every output of every stateful
// codelet of src — the single-site ones of mutants, each state write turned
// into "unchanged", each pair of neighbouring input fields swapped — and
// fails unless the slot-indexed loop kills each one the oracle kills, at the
// same vector with the same counterexample.
func checkMutants(t *testing.T, src string, score *mutationScore) {
	t.Helper()
	for _, sc := range statefulCodelets(t, src) {
		try := func(m map[string]expr, k string, mutant expr) {
			old := m[k]
			if equalExpr(old, mutant) {
				return
			}
			m[k] = mutant
			n, err := verify(sc.c, sc.sum, testOpts)
			on, oerr := oracleVerify(sc.c, sc.sum, testOpts)
			m[k] = old
			same(t, fmt.Sprintf("mutant %s = %s of %s", k, mutant, sc.c), n, err, on, oerr)
			score.planted++
			if oerr != nil {
				score.oracleKilled++
			}
			if err != nil {
				score.killed++
			}
		}
		each := func(m map[string]expr) {
			for _, k := range sortedKeys(m) {
				for _, mu := range mutants(m[k]) {
					try(m, k, mu)
				}
				fields, _ := freeVars(m[k])
				for i := 0; i+1 < len(fields); i++ {
					try(m, k, swapFields(m[k], fields[i], fields[i+1]))
				}
			}
		}
		each(sc.sum.states)
		each(sc.sum.defs)
		for _, sv := range sc.sum.order {
			try(sc.sum.states, sv, eState{sv})
		}
	}
}

// checkZeroAlloc fails unless checking one vector of the codelet owning the
// named state variable allocates nothing.
func checkZeroAlloc(t *testing.T, src, state string) {
	t.Helper()
	for _, sc := range statefulCodelets(t, src) {
		for _, sv := range sc.c.StateVars {
			if sv != state {
				continue
			}
			p, err := lower(sc.c, sc.sum)
			if err != nil {
				t.Fatal(err)
			}
			v := int32(0)
			allocs := testing.AllocsPerRun(1000, func() {
				for _, r := range p.vars {
					v = v*31 + 7
					p.regs[r] = v
				}
				if p.check() >= 0 {
					t.Errorf("vector %d: %v", v, p.counterexample(p.check()))
				}
			})
			if allocs != 0 {
				t.Errorf("checking one vector of {%s} allocates %v times, want 0", sc.c, allocs)
			}
			return
		}
	}
	t.Fatalf("no stateful codelet owns %q", state)
}
