package vm

import (
	"fmt"
	"math"

	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
)

// The threaded backend compiles a program once into a flat micro-op stream
// per function (mop.go) that the dispatch loop runs: operands widened,
// opcode × data type monomorphized into one dense kind, width constants
// (mask/shift/order-bias) precomputed, and the hot instruction pairs the
// lowering emits fused into superinstructions (const+arith, cmp+jmpIf,
// loadState+arith+storeState). Rare shapes (Float32 math, ill-typed ops)
// call through one pre-bound closure.
//
// Fuel is charged per basic block at dispatch, in the same check-before-
// execute order as the reference. When the budget dies at a block head, the
// affordable prefix of the block is compiled on the spot to unfused
// micro-ops and run, so partial side effects and the HangError pc match the
// reference switch interpreter exactly (see replayPrefix).
//
// The compiled Code is immutable and shared: one compile serves any number
// of Threaded machines.

// execState is the mutable register/state/output file a compiled program
// executes against. Each Threaded machine owns one.
type execState struct {
	regs  []uint64
	state []uint64
	out   []uint64
	in    []uint64
	rec   *coverage.Recorder
}

// Code is a program compiled for threaded dispatch.
type Code struct {
	prog *ir.Program

	// init/step are the pre-decoded micro-op streams with superinstructions
	// installed at fusion heads.
	init []mop
	step []mop

	fused int // superinstructions formed across both functions
}

// Program returns the program this code was compiled from.
func (c *Code) Program() *ir.Program { return c.prog }

// Fused returns how many superinstructions the compiler formed — tests use
// it to assert the fusion patterns actually fire.
func (c *Code) Fused() int { return c.fused }

// CompileThreaded translates a program into threaded code. The result is
// immutable and safe to share across machines.
//
// The program must be valid: the compiled stream addresses the register
// file without per-access bounds checks, relying on Validate's range checks
// as the one-time proof. An invalid program is a caller bug, reported by
// panic rather than by memory corruption at execution time.
func CompileThreaded(p *ir.Program) *Code {
	if err := p.Validate(); err != nil {
		panic("vm: CompileThreaded on invalid program: " + err.Error())
	}
	c := &Code{prog: p}
	var nf int
	c.init, nf = compileFunc(p.Init)
	c.fused += nf
	c.step, nf = compileFunc(p.Step)
	c.fused += nf
	return c
}

// Threaded executes one program instance through compiled micro-ops. It is a
// drop-in Backend: same fuel accounting, HangError attribution, probe
// recording and output/state surfaces as the reference Machine.
type Threaded struct {
	code *Code
	s    execState
	fuel int64
	used int64
}

var _ Backend = (*Threaded)(nil)

// NewThreaded compiles the program and returns a threaded machine. rec may
// be nil to run without coverage collection.
func NewThreaded(p *ir.Program, rec *coverage.Recorder) *Threaded {
	return NewThreadedFromCode(CompileThreaded(p), rec)
}

// NewThreadedFromCode returns a threaded machine over already-compiled code
// (sharing one compile across machines).
func NewThreadedFromCode(c *Code, rec *coverage.Recorder) *Threaded {
	p := c.prog
	return &Threaded{
		code: c,
		s: execState{
			regs:  make([]uint64, p.NumRegs),
			state: make([]uint64, p.NumState),
			out:   make([]uint64, len(p.Out)),
			rec:   rec,
		},
		fuel: DefaultFuel,
	}
}

// SetFuel sets the per-call instruction budget; n <= 0 restores DefaultFuel.
func (t *Threaded) SetFuel(n int64) {
	if n <= 0 {
		n = DefaultFuel
	}
	t.fuel = n
}

// Fuel returns the per-call instruction budget.
func (t *Threaded) Fuel() int64 { return t.fuel }

// LastFuelUsed returns how many instructions the most recent Init or Step
// call executed.
func (t *Threaded) LastFuelUsed() int64 { return t.used }

// Program returns the machine's program.
func (t *Threaded) Program() *ir.Program { return t.code.prog }

// Out returns the output values of the last step (reused across steps).
func (t *Threaded) Out() []uint64 { return t.s.out }

// State exposes the persistent state vector.
func (t *Threaded) State() []uint64 { return t.s.state }

// Init resets the machine and runs the program's init function.
func (t *Threaded) Init() error {
	clear(t.s.state)
	clear(t.s.out)
	return t.exec("init", t.code.init, t.code.prog.Init)
}

// Step runs one model iteration with the given input tuple.
func (t *Threaded) Step(in []uint64) error {
	t.s.in = in
	return t.exec("step", t.code.step, t.code.prog.Step)
}

func (t *Threaded) exec(fn string, ms []mop, code []ir.Instr) error {
	left, hangPC, hung := runMops(ms, code, &t.s, t.fuel)
	if hung {
		t.used = t.fuel
		return &HangError{Func: fn, PC: hangPC, Fuel: t.fuel, Site: t.code.prog.LoopSiteFor(fn, hangPC)}
	}
	t.used = t.fuel - left
	return nil
}

// compileFunc translates one function body: a pre-decoded micro-op per pc,
// then superinstructions installed at fusion heads where no covered pc
// starts a basic block.
func compileFunc(code []ir.Instr) (ms []mop, fused int) {
	ms = compileMops(code)
	heads := blockHeads(code)
	fused = fuseMops(code, ms, heads)
	blockCosts(code, ms, heads)
	return ms, fused
}

// compileMops pre-decodes every instruction of code, unfused at one fuel
// unit each, and ends the stream in a sentinel: every exit path lands there
// — sequential fall-through, an explicit halt's jump, or a branch to
// pc == len(code). Its zero cost can never trip the fuel check, so the
// dispatch loop needs neither a pc < n test nor a bounds check on the mop
// fetch.
func compileMops(code []ir.Instr) []mop {
	n := len(code)
	ms := make([]mop, n+1)
	for pc := range code {
		ms[pc] = compileMop(&code[pc], pc, n)
	}
	ms[n] = mop{kind: mHalt}
	return ms
}

// blockHeads marks the first pc of every basic block: the entry, every pc
// some jump lands on, and every pc after a control transfer (Halt ends a
// block like a jump).
func blockHeads(code []ir.Instr) []bool {
	head := make([]bool, len(code)+1)
	head[0] = true
	for pc := range code {
		switch code[pc].Op {
		case ir.OpJmp, ir.OpJmpIf, ir.OpJmpIfNot:
			if code[pc].Imm <= uint64(len(code)) {
				head[code[pc].Imm] = true
			}
			head[pc+1] = true
		case ir.OpHalt:
			head[pc+1] = true
		}
	}
	return head
}

func isArith(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMin, ir.OpMax:
		return true
	}
	return false
}

func isCmp(op ir.Op) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// jumpTo resolves a jump immediate at compile time. Targets beyond the
// function end fall off cleanly (Validate allows target == len); a target
// that does not fit an int cannot be represented and panics at compile like
// the reference interpreter would at run time.
func jumpTo(imm uint64, n int) int {
	t := int(imm)
	if t < 0 {
		panic(fmt.Sprintf("vm: jump target %d overflows", imm))
	}
	if t > n {
		t = n
	}
	return t
}

// --- monomorphized value functions ------------------------------------------
//
// The fused arith/compare superinstructions and the mCall2 fallback carry a
// value function. Each builder runs the opcode × data-type dispatch once at
// compile time and returns a closure whose body is the bare decode/op/encode
// sequence over captured width constants. The specialized paths are
// transcriptions of arith/compare from the reference interpreter — the
// differential rig and the semantics matrix test hold them to bit equality.
// Bool arithmetic and ill-typed combinations (which the verifier rejects but
// random or mutated programs may contain) fall back to the reference helpers
// themselves.
//
// Width tricks the integer paths rely on (w = bit width, mask = 2^w-1):
//   - add/sub/mul are determined by the low w bits, so one masked uint64
//     computation serves signed and unsigned alike;
//   - eq/ne compare masked raws (sign extension is injective);
//   - div/min/max and the ordered compares decode for real: sign-extend
//     (signed) or mask (unsigned).

// maskOf returns the payload mask of an integer-like type: 1 for Bool (one
// payload bit), 2^w-1 for w-bit integers, 0 for types with no integer
// payload (matching model.DecodeInt's 0 for them).
func maskOf(dt model.DType) uint64 {
	if dt == model.Bool {
		return 1
	}
	if !dt.IsInteger() {
		return 0
	}
	return uint64(1)<<uint(dt.Size()*8) - 1
}

// binFn builds the value function of a binary arithmetic, bitwise or
// relational op.
func binFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	if isArith(op) {
		return arithFn(op, dt)
	}
	if isCmp(op) {
		return compareFn(op, dt)
	}
	return bitFn(op, dt)
}

func arithFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	switch dt {
	case model.Float64:
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
			}
		case ir.OpSub:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
			}
		case ir.OpMul:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
			}
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := math.Float64frombits(b)
				if y == 0 {
					return 0
				}
				return math.Float64bits(math.Float64frombits(a) / y)
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Min(math.Float64frombits(a), math.Float64frombits(b)))
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				return math.Float64bits(math.Max(math.Float64frombits(a), math.Float64frombits(b)))
			}
		}
	case model.Float32:
		// Decode to float64, operate, round once on encode — the exact
		// sequence of the reference arith() so results are bit-identical.
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) + float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpSub:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) - float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMul:
			return func(a, b uint64) uint64 {
				v := float64(math.Float32frombits(uint32(a))) * float64(math.Float32frombits(uint32(b)))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := float64(math.Float32frombits(uint32(b)))
				if y == 0 {
					return uint64(math.Float32bits(0))
				}
				v := float64(math.Float32frombits(uint32(a))) / y
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				v := math.Min(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
				return uint64(math.Float32bits(float32(v)))
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				v := math.Max(float64(math.Float32frombits(uint32(a))), float64(math.Float32frombits(uint32(b))))
				return uint64(math.Float32bits(float32(v)))
			}
		}
	}
	if dt.IsInteger() {
		mask := maskOf(dt)
		switch op {
		case ir.OpAdd:
			return func(a, b uint64) uint64 { return (a&mask + b&mask) & mask }
		case ir.OpSub:
			return func(a, b uint64) uint64 { return (a&mask - b&mask) & mask }
		case ir.OpMul:
			return func(a, b uint64) uint64 { return (a & mask) * (b & mask) & mask }
		}
		if dt.IsSigned() {
			sh := 64 - uint(dt.Size()*8)
			switch op {
			case ir.OpDiv:
				return func(a, b uint64) uint64 {
					y := int64(b<<sh) >> sh
					if y == 0 {
						return 0
					}
					return uint64((int64(a<<sh)>>sh)/y) & mask
				}
			case ir.OpMin:
				return func(a, b uint64) uint64 {
					x, y := int64(a<<sh)>>sh, int64(b<<sh)>>sh
					if y < x {
						x = y
					}
					return uint64(x) & mask
				}
			case ir.OpMax:
				return func(a, b uint64) uint64 {
					x, y := int64(a<<sh)>>sh, int64(b<<sh)>>sh
					if y > x {
						x = y
					}
					return uint64(x) & mask
				}
			}
		}
		switch op {
		case ir.OpDiv:
			return func(a, b uint64) uint64 {
				y := b & mask
				if y == 0 {
					return 0
				}
				return (a & mask) / y
			}
		case ir.OpMin:
			return func(a, b uint64) uint64 {
				x, y := a&mask, b&mask
				if y < x {
					return y
				}
				return x
			}
		case ir.OpMax:
			return func(a, b uint64) uint64 {
				x, y := a&mask, b&mask
				if y > x {
					return y
				}
				return x
			}
		}
	}
	// Bool arithmetic and invalid types: reference helper verbatim.
	return func(a, b uint64) uint64 { return arith(op, dt, a, b) }
}

func compareFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	switch dt {
	case model.Float64:
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) == math.Float64frombits(b))
			}
		case ir.OpNe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) != math.Float64frombits(b))
			}
		case ir.OpLt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) < math.Float64frombits(b))
			}
		case ir.OpLe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) <= math.Float64frombits(b))
			}
		case ir.OpGt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) > math.Float64frombits(b))
			}
		case ir.OpGe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float64frombits(a) >= math.Float64frombits(b))
			}
		}
	case model.Float32:
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) == math.Float32frombits(uint32(b)))
			}
		case ir.OpNe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) != math.Float32frombits(uint32(b)))
			}
		case ir.OpLt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) < math.Float32frombits(uint32(b)))
			}
		case ir.OpLe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) <= math.Float32frombits(uint32(b)))
			}
		case ir.OpGt:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) > math.Float32frombits(uint32(b)))
			}
		case ir.OpGe:
			return func(a, b uint64) uint64 {
				return b2u(math.Float32frombits(uint32(a)) >= math.Float32frombits(uint32(b)))
			}
		}
	}
	if dt == model.Bool || dt.IsInteger() {
		mask := maskOf(dt)
		switch op {
		case ir.OpEq:
			return func(a, b uint64) uint64 { return b2u(a&mask == b&mask) }
		case ir.OpNe:
			return func(a, b uint64) uint64 { return b2u(a&mask != b&mask) }
		}
		if dt.IsSigned() {
			sh := 64 - uint(dt.Size()*8)
			switch op {
			case ir.OpLt:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh < int64(b<<sh)>>sh) }
			case ir.OpLe:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh <= int64(b<<sh)>>sh) }
			case ir.OpGt:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh > int64(b<<sh)>>sh) }
			case ir.OpGe:
				return func(a, b uint64) uint64 { return b2u(int64(a<<sh)>>sh >= int64(b<<sh)>>sh) }
			}
		}
		switch op {
		case ir.OpLt:
			return func(a, b uint64) uint64 { return b2u(a&mask < b&mask) }
		case ir.OpLe:
			return func(a, b uint64) uint64 { return b2u(a&mask <= b&mask) }
		case ir.OpGt:
			return func(a, b uint64) uint64 { return b2u(a&mask > b&mask) }
		case ir.OpGe:
			return func(a, b uint64) uint64 { return b2u(a&mask >= b&mask) }
		}
	}
	// Invalid types: reference helper verbatim.
	return func(a, b uint64) uint64 { return compare(op, dt, a, b) }
}

// bitFn builds the value function of a bitwise op on a type without an
// integer payload layout (Bool, floats, invalid). Integer types never reach
// it: compileMop gives them dense kinds. The body is the reference
// encode/decode path verbatim.
func bitFn(op ir.Op, dt model.DType) func(a, b uint64) uint64 {
	switch op {
	case ir.OpBitAnd:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)&model.DecodeInt(dt, b))
		}
	case ir.OpBitOr:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)|model.DecodeInt(dt, b))
		}
	case ir.OpBitXor:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)^model.DecodeInt(dt, b))
		}
	case ir.OpShl:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)<<(uint(model.DecodeInt(dt, b))&31))
		}
	case ir.OpShr:
		return func(a, b uint64) uint64 {
			return model.EncodeInt(dt, model.DecodeInt(dt, a)>>(uint(model.DecodeInt(dt, b))&31))
		}
	}
	return func(a, b uint64) uint64 { return 0 }
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
