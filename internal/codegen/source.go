package codegen

import (
	"fmt"

	"domino/internal/parser"
	"domino/internal/passes"
	"domino/internal/sema"
)

// Analyze runs the front end on Domino source — parse, typecheck,
// normalize — and returns what the back end compiles from.
func Analyze(src string) (*sema.Info, *passes.NormResult, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, nil, err
	}
	norm, err := passes.Normalize(info)
	if err != nil {
		return nil, nil, err
	}
	return info, norm, nil
}

// CompileLeastSource runs the whole compiler on Domino source — Analyze,
// then LeastTarget — returning the program for the least expressive target
// that runs it at line rate. It is the one-call form for callers that need
// no intermediate results (rank transactions, tests, demos); callers that
// inspect the IR or choose targets themselves call Analyze and Compile.
func CompileLeastSource(src string) (*Program, error) {
	info, norm, err := Analyze(src)
	if err != nil {
		return nil, err
	}
	p, ok, lastErr := LeastTarget(info, norm.IR)
	if !ok {
		return nil, fmt.Errorf("codegen: program cannot run at line rate on any target: %w", lastErr)
	}
	return p, nil
}
