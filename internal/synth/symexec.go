package synth

import (
	"fmt"

	"domino/internal/ir"
	"domino/internal/pvsm"
)

// summary is the symbolic effect of a codelet: the new value of each state
// variable it owns and the value of each packet field it defines, all as
// expressions over old state and input packet fields.
type summary struct {
	// states maps each owned state variable to its new-value expression
	// (eState{v} itself when the codelet never writes v).
	states map[string]expr
	// defs maps every packet field the codelet defines to its value.
	defs map[string]expr
	// order lists owned state variables deterministically.
	order []string
	// indexField is the address operand for array state (one per array).
	indexField map[string]string
}

// symexec symbolically executes a codelet's statements in order.
func symexec(c *pvsm.Codelet) (*summary, error) {
	s := &summary{
		states:     map[string]expr{},
		defs:       map[string]expr{},
		indexField: map[string]string{},
	}
	for _, v := range c.StateVars {
		s.states[v] = eState{name: v}
		s.order = append(s.order, v)
	}

	// resolve maps an operand to its current symbolic value.
	resolve := func(o ir.Operand) expr {
		if o.IsConst() {
			return eConst{o.Value}
		}
		if e, ok := s.defs[o.Name]; ok {
			return e
		}
		return eField{name: o.Name}
	}

	recordIndex := func(state string, idx *ir.Operand) error {
		if idx == nil {
			return nil
		}
		if !idx.IsField() {
			// A constant address is fine: model it as a fixed field.
			s.indexField[state] = idx.String()
			return nil
		}
		if _, defined := s.defs[idx.Name]; defined {
			return fmt.Errorf("array %s is addressed by a field computed inside its own atom", state)
		}
		s.indexField[state] = idx.Name
		return nil
	}

	for _, st := range c.Stmts {
		switch x := st.(type) {
		case *ir.Move:
			s.defs[x.Dst] = resolve(x.Src)
		case *ir.BinOp:
			s.defs[x.Dst] = &eBin{op: x.Op, a: resolve(x.A), b: resolve(x.B)}
		case *ir.CondMove:
			s.defs[x.Dst] = &eCond{c: resolve(x.Cond), a: resolve(x.A), b: resolve(x.B)}
		case *ir.Call:
			// Hash units live outside stateful atoms; a call can only end up
			// inside a codelet if its result feeds a state write that feeds
			// back into the call's arguments — not implementable by any atom.
			if len(c.StateVars) > 0 {
				return nil, fmt.Errorf("intrinsic %s inside a stateful codelet: no atom provides intrinsics on state", x.Fun)
			}
			return nil, fmt.Errorf("intrinsic %s cannot be symbolically folded", x.Fun)
		case *ir.ReadState:
			if err := recordIndex(x.State, x.Index); err != nil {
				return nil, err
			}
			s.defs[x.Dst] = s.states[x.State] // old value at read time
		case *ir.WriteState:
			if err := recordIndex(x.State, x.Index); err != nil {
				return nil, err
			}
			s.states[x.State] = resolve(x.Src)
		default:
			return nil, fmt.Errorf("synth: unexpected statement %T", st)
		}
	}

	for v, e := range s.states {
		s.states[v] = simplify(e)
	}
	for f, e := range s.defs {
		s.defs[f] = simplify(e)
	}
	return s, nil
}
