// Package ir defines the Domino compiler's three-address code intermediate
// representation (paper §4.1, "Flattening to three-address code").
//
// After normalization, a packet transaction is a straight-line sequence of
// statements in which every statement is one of:
//
//   - pkt.f = a                      (move)
//   - pkt.f = a op b                 (binary operation)
//   - pkt.f = c ? a : b              (conditional; the one 4-operand form)
//   - pkt.f = intrinsic(a, ...) op b (intrinsic call, optionally folded op)
//   - pkt.f = state / state[idx]     (state read — read flank)
//   - state / state[idx] = a         (state write — write flank)
//
// where a, b, c are operands: packet fields or constants. All arithmetic
// happens on packet fields; state appears only in reads and writes
// (established by the flank-rewriting pass).
package ir

import (
	"fmt"
	"strings"
	"sync"

	"domino/internal/token"
)

// OperandKind discriminates Operand.
type OperandKind int

const (
	// Field is a packet field operand.
	Field OperandKind = iota
	// Const is an integer literal operand.
	Const
)

// Operand is a packet field or constant.
type Operand struct {
	Kind  OperandKind
	Name  string // field name when Kind == Field
	Value int32  // literal value when Kind == Const
}

// F returns a field operand.
func F(name string) Operand { return Operand{Kind: Field, Name: name} }

// C returns a constant operand.
func C(v int32) Operand { return Operand{Kind: Const, Value: v} }

// IsField reports whether o is a packet-field operand.
func (o Operand) IsField() bool { return o.Kind == Field }

// IsConst reports whether o is a constant operand.
func (o Operand) IsConst() bool { return o.Kind == Const }

func (o Operand) String() string {
	if o.Kind == Const {
		return fmt.Sprintf("%d", o.Value)
	}
	return "pkt." + o.Name
}

// Stmt is a three-address code statement.
type Stmt interface {
	// Reads returns the variables the statement reads: packet fields as
	// "pkt.<name>" and state variables as "state.<name>".
	Reads() []string
	// Writes returns the variable the statement writes, in the same naming
	// scheme.
	Writes() string
	// String renders the statement in the paper's notation.
	String() string
	stmt()
}

// FieldVar and StateVar build the variable IDs used by Reads/Writes.
func FieldVar(name string) string { return "pkt." + name }

// StateVar returns the dependency-variable ID for a state variable.
func StateVar(name string) string { return "state." + name }

// IsStateVar reports whether a variable ID from Reads/Writes names state.
func IsStateVar(v string) bool { return strings.HasPrefix(v, "state.") }

func operandReads(ops ...Operand) []string {
	var r []string
	for _, o := range ops {
		if o.IsField() {
			r = append(r, FieldVar(o.Name))
		}
	}
	return r
}

// Move is "pkt.Dst = Src".
type Move struct {
	Dst string
	Src Operand
}

func (s *Move) stmt()           {}
func (s *Move) Reads() []string { return operandReads(s.Src) }
func (s *Move) Writes() string  { return FieldVar(s.Dst) }
func (s *Move) String() string  { return fmt.Sprintf("pkt.%s = %s;", s.Dst, s.Src) }

// BinOp is "pkt.Dst = A op B".
type BinOp struct {
	Dst  string
	Op   token.Kind
	A, B Operand
}

func (s *BinOp) stmt()           {}
func (s *BinOp) Reads() []string { return operandReads(s.A, s.B) }
func (s *BinOp) Writes() string  { return FieldVar(s.Dst) }
func (s *BinOp) String() string {
	return fmt.Sprintf("pkt.%s = %s %s %s;", s.Dst, s.A, s.Op, s.B)
}

// CondMove is "pkt.Dst = Cond ? A : B" (the 4-operand conditional form the
// paper notes in §4.1 footnote 5).
type CondMove struct {
	Dst        string
	Cond, A, B Operand
}

func (s *CondMove) stmt()           {}
func (s *CondMove) Reads() []string { return operandReads(s.Cond, s.A, s.B) }
func (s *CondMove) Writes() string  { return FieldVar(s.Dst) }
func (s *CondMove) String() string {
	return fmt.Sprintf("pkt.%s = %s ? %s : %s;", s.Dst, s.Cond, s.A, s.B)
}

// Call is "pkt.Dst = Fun(Args...)" optionally followed by a folded binary
// op: "pkt.Dst = Fun(Args...) op B" (e.g. hash2(...) % 8000). Op is
// token.Illegal when absent.
type Call struct {
	Dst  string
	Fun  string
	Args []Operand
	Op   token.Kind
	B    Operand
}

func (s *Call) stmt() {}
func (s *Call) Reads() []string {
	r := operandReads(s.Args...)
	if s.Op != token.Illegal {
		r = append(r, operandReads(s.B)...)
	}
	return r
}
func (s *Call) Writes() string { return FieldVar(s.Dst) }
func (s *Call) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	call := fmt.Sprintf("%s(%s)", s.Fun, strings.Join(args, ", "))
	if s.Op == token.Illegal {
		return fmt.Sprintf("pkt.%s = %s;", s.Dst, call)
	}
	return fmt.Sprintf("pkt.%s = %s %s %s;", s.Dst, call, s.Op, s.B)
}

// ReadState is a read flank: "pkt.Dst = State" or "pkt.Dst = State[Index]".
type ReadState struct {
	Dst   string
	State string
	Index *Operand // nil for scalars; a field operand for arrays
}

func (s *ReadState) stmt() {}
func (s *ReadState) Reads() []string {
	r := []string{StateVar(s.State)}
	if s.Index != nil {
		r = append(r, operandReads(*s.Index)...)
	}
	return r
}
func (s *ReadState) Writes() string { return FieldVar(s.Dst) }
func (s *ReadState) String() string {
	if s.Index == nil {
		return fmt.Sprintf("pkt.%s = %s;", s.Dst, s.State)
	}
	return fmt.Sprintf("pkt.%s = %s[%s];", s.Dst, s.State, s.Index)
}

// WriteState is a write flank: "State = Src" or "State[Index] = Src".
type WriteState struct {
	State string
	Index *Operand
	Src   Operand
}

func (s *WriteState) stmt() {}
func (s *WriteState) Reads() []string {
	r := operandReads(s.Src)
	if s.Index != nil {
		r = append(r, operandReads(*s.Index)...)
	}
	return r
}
func (s *WriteState) Writes() string { return StateVar(s.State) }
func (s *WriteState) String() string {
	if s.Index == nil {
		return fmt.Sprintf("%s = %s;", s.State, s.Src)
	}
	return fmt.Sprintf("%s[%s] = %s;", s.State, s.Index, s.Src)
}

// Program is a normalized transaction: the statement sequence plus the field
// bookkeeping the later stages need.
type Program struct {
	Stmts []Stmt

	// Fields is every packet field name in use after normalization,
	// including compiler temporaries and SSA versions, in first-use order.
	Fields []string

	// FinalVersion maps each original packet field to its last SSA version,
	// i.e. the field whose value leaves the pipeline. Fields never assigned
	// map to themselves.
	FinalVersion map[string]string

	// StateReads/StateWrites record which state variables have read/write
	// flanks, in flank order.
	StateReads  []string
	StateWrites []string

	derivedOnce sync.Once
	derived     any
}

// Derived returns what build returned the first time Derived was called on
// this program, from any goroutine. It is the back end's place to keep what
// it works out from the program alone and would otherwise work out again
// for every target: the value lives exactly as long as the program, and a
// program is never taken for another. The program must not change after
// the first call.
func (p *Program) Derived(build func() any) any {
	p.derivedOnce.Do(func() { p.derived = build() })
	return p.derived
}

func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.Stmts {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks the structural invariants of normalized code: SSA (every
// field written at most once), state touched only by flanks (at most one
// read and one write per state variable), and definition-before-use.
func (p *Program) Validate() error {
	writtenFields := map[string]bool{}
	stateRead := map[string]bool{}
	stateWritten := map[string]bool{}
	defined := map[string]bool{}

	for i, s := range p.Stmts {
		for _, r := range s.Reads() {
			if IsStateVar(r) {
				continue
			}
			if writtenAt, ok := firstWriter(p.Stmts[:i], r); ok {
				_ = writtenAt
			} else if !defined[r] {
				// Field read before any write: must be an original packet
				// field (not a compiler temp). Temps are detectable by name
				// later; here just note it as externally defined.
				defined[r] = true
			}
		}
		w := s.Writes()
		if IsStateVar(w) {
			if stateWritten[w] {
				return fmt.Errorf("ir: state %s written twice (flanks must be unique)", w)
			}
			stateWritten[w] = true
			continue
		}
		if writtenFields[w] {
			return fmt.Errorf("ir: field %s assigned more than once (SSA violated) at stmt %d: %s", w, i, s)
		}
		writtenFields[w] = true
		if rs, ok := s.(*ReadState); ok {
			sv := StateVar(rs.State)
			if stateRead[sv] {
				return fmt.Errorf("ir: state %s read twice (flanks must be unique)", sv)
			}
			if stateWritten[sv] {
				return fmt.Errorf("ir: state %s read after write", sv)
			}
			stateRead[sv] = true
		}
	}
	return nil
}

func firstWriter(stmts []Stmt, v string) (int, bool) {
	for i, s := range stmts {
		if s.Writes() == v {
			return i, true
		}
	}
	return 0, false
}
