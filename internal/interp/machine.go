package interp

import (
	"context"
	"fmt"
	"math/bits"

	"lowutil/internal/ir"
)

const (
	// DefaultMaxSteps bounds runaway programs.
	DefaultMaxSteps = int64(1) << 34
	// DefaultMaxDepth bounds call-stack depth.
	DefaultMaxDepth = 1 << 16
	// DBQueryCost is the synthetic work (in virtual instructions) charged
	// for each NativeDBQuery call; it models the database round-trip the
	// tradebeans/derby case studies pay per query.
	DBQueryCost = 500
	// cancelCheckMask gates the cancellation poll in the main loop: the
	// machine consults Ctx.Done() once every cancelCheckMask+1 executed
	// steps. 8192 steps is microseconds of interpretation, so cancellation
	// is prompt while the per-step cost stays one masked compare on the
	// already-maintained step counter (benchmarked at well under 2%
	// overhead on the profiler hot path).
	cancelCheckMask = 1<<13 - 1
)

// Machine executes an ir.Program. A Machine is single-use per Run but its
// configuration fields may be set freely before Run.
type Machine struct {
	Prog *ir.Program
	// Tracer, when non-nil, observes every executed instruction.
	Tracer Tracer
	// Ctx, when non-nil, is polled periodically by the main loop; once it
	// is done the run stops with a VMError of kind ErrCanceled whose Cause
	// is the context error. A nil Ctx costs nothing per step.
	Ctx context.Context
	// MaxSteps and MaxDepth bound execution; zero means the defaults.
	MaxSteps int64
	MaxDepth int
	// Seed seeds the deterministic PRNG behind NativeRand.
	Seed uint64
	// Prune, when non-nil, is indexed by ir.Instr.ID: marked instructions
	// execute normally but their events are not reported to the Tracer.
	// Produced by staticanalysis.PruneSet; valid only for tracers that
	// ignore base-pointer flow (thin slicing). Must be set before the first
	// Run/CallMethod: the handler-table dispatcher folds it into the
	// per-method tables it builds on first entry.
	Prune []bool

	// Statics holds static-field storage, indexed by StaticField.Slot.
	Statics []Value
	// Output collects values written by NativePrint/NativePrintChar.
	Output []int64

	// Steps counts executed instruction instances — the paper's #I.
	Steps int64
	// Allocs counts object and array allocations.
	Allocs int64
	// AllocsBySite counts allocations per allocation site.
	AllocsBySite []int64
	// NativeWork accumulates synthetic native cost (DB queries).
	NativeWork int64
	// AssertFailures counts NativeAssert calls with a zero argument.
	AssertFailures int64
	// PrunedEvents counts tracer events suppressed by Prune.
	PrunedEvents int64
	// ICHits/ICMisses count virtual dispatches resolved by the inline
	// caches vs. through the method-name lookup (handler-table engine only).
	ICHits   int64
	ICMisses int64

	frames     []*Frame
	rng        uint64
	clock      int64
	seq        int64
	lastReturn Value

	// Handler-table engine state: machine-local views of the per-method
	// dispatch tables (shared per program via ir.Program.TabCache, or
	// private when Prune is set), the per-method inline-cache slices (always
	// machine-private — the only mutable dispatch state), the base frame
	// index of the innermost loopUntil, and the single reusable event record
	// handed to the tracer. All indexed by Method.ID, built lazily.
	tabs     [][]dinstr
	ics      [][]icSite
	loopBase int
	ev       Event

	// framePool recycles frames popped by the return handlers. A popped
	// frame is never revisited, so pushCall reuses the record and its locals
	// slice; frames abandoned on error paths are simply dropped.
	framePool []*Frame
}

// New returns a Machine for prog with default limits.
func New(prog *ir.Program) *Machine {
	return &Machine{
		Prog:         prog,
		MaxSteps:     DefaultMaxSteps,
		MaxDepth:     DefaultMaxDepth,
		Seed:         0x9E3779B97F4A7C15,
		Statics:      make([]Value, len(prog.Statics)),
		AllocsBySite: make([]int64, prog.NumAllocSites()),
	}
}

// Depth returns the current call-stack depth.
func (m *Machine) Depth() int { return len(m.frames) }

// Frames returns the live call stack, innermost last. The returned slice is
// the machine's own; callers must not mutate it.
func (m *Machine) Frames() []*Frame { return m.frames }

// NewObject allocates a class instance as the VM would, without executing an
// instruction. Tests and clients use it to fabricate receivers.
func (m *Machine) NewObject(c *ir.Class, site int) *Object {
	m.seq++
	m.Allocs++
	fields := make([]Value, c.NumFieldSlots())
	for slot, isRef := range c.RefSlots() {
		if isRef {
			fields[slot] = Null
		}
	}
	return &Object{Class: c, Fields: fields, Site: site, Seq: m.seq}
}

// initStatics allocates static storage and nulls reference-typed slots.
func (m *Machine) initStatics() {
	if m.Statics != nil {
		return
	}
	m.Statics = make([]Value, len(m.Prog.Statics))
	for _, sf := range m.Prog.Statics {
		if sf.Type.IsRef() {
			m.Statics[sf.Slot] = Null
		}
	}
}

func (m *Machine) newArray(elem *ir.Type, n int64, site int) (*Object, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative array length %d", n)
	}
	m.seq++
	m.Allocs++
	return &Object{Elems: make([]Value, n), ElemT: elem, Site: site, Seq: m.seq}, nil
}

func (m *Machine) fail(kind ErrKind, in *ir.Instr, fr *Frame, format string, args ...any) error {
	return &VMError{Kind: kind, In: in, Frame: fr, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) nextRand() uint64 {
	// xorshift64*: deterministic, fast, good enough for workload shaping.
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 0x2545F4914F6CDD1D
}

const floatBitsKey = 0x5A5A_C3C3_0F0F_9696

// packFloatBits is the NativeFloatToBits transform; it is a bijection so
// NativeBitsToFloat can invert it exactly, modelling
// Float.floatToIntBits/intBitsToFloat round-trips.
func packFloatBits(x int64) int64 {
	return int64(bits.RotateLeft64(uint64(x), 17) ^ floatBitsKey)
}

func unpackFloatBits(y int64) int64 {
	return int64(bits.RotateLeft64(uint64(y)^floatBitsKey, -17))
}

// Run executes the program's main method to completion and returns the VM
// error, if any.
func (m *Machine) Run() error {
	if m.MaxSteps == 0 {
		m.MaxSteps = DefaultMaxSteps
	}
	if m.MaxDepth == 0 {
		m.MaxDepth = DefaultMaxDepth
	}
	m.initStatics()
	if m.AllocsBySite == nil {
		m.AllocsBySite = make([]int64, m.Prog.NumAllocSites())
	}
	m.rng = m.Seed | 1

	entry := &Frame{
		Method: m.Prog.Main,
		Locals: make([]Value, m.Prog.Main.NumLocals),
		RetDst: -1,
	}
	entry.tab, entry.ics = m.methodTab(entry.Method)
	m.frames = append(m.frames[:0], entry)
	if m.Tracer != nil {
		m.Tracer.EnterMethod(entry, nil)
	}
	return m.loop()
}

// CallMethod invokes an arbitrary method with the given arguments and runs
// it to completion, returning the result. It is used by tests and by
// harnesses that drive individual methods.
func (m *Machine) CallMethod(method *ir.Method, args ...Value) (Value, error) {
	if m.MaxSteps == 0 {
		m.MaxSteps = DefaultMaxSteps
	}
	if m.MaxDepth == 0 {
		m.MaxDepth = DefaultMaxDepth
	}
	m.initStatics()
	if m.AllocsBySite == nil {
		m.AllocsBySite = make([]int64, m.Prog.NumAllocSites())
	}
	if m.rng == 0 {
		m.rng = m.Seed | 1
	}
	if len(args) != method.Params {
		return Null, fmt.Errorf("interp: %s takes %d args, got %d", method.QualifiedName(), method.Params, len(args))
	}
	fr := &Frame{Method: method, Locals: make([]Value, method.NumLocals), RetDst: -1}
	fr.tab, fr.ics = m.methodTab(method)
	copy(fr.Locals, args)
	base := len(m.frames)
	m.frames = append(m.frames, fr)
	var recv *Object
	if !method.Static && len(args) > 0 && args[0].K == ir.KindRef {
		recv = args[0].Ref
	}
	if m.Tracer != nil {
		m.Tracer.EnterMethod(fr, recv)
	}
	if err := m.loopUntil(base); err != nil {
		return Null, err
	}
	return m.lastReturn, nil
}

func (m *Machine) loop() error { return m.loopUntil(0) }

// loopUntil runs until the frame stack shrinks below base.
func (m *Machine) loopUntil(base int) error {
	prevBase := m.loopBase
	m.loopBase = base
	defer func() { m.loopBase = prevBase }()
	var done <-chan struct{}
	if m.Ctx != nil {
		done = m.Ctx.Done()
	}
	for len(m.frames) > base {
		fr := m.frames[len(m.frames)-1]
		if uint(fr.PC) >= uint(len(fr.tab)) {
			return m.fail(ErrType, nil, fr, "pc %d out of range in %s", fr.PC, fr.Method.QualifiedName())
		}
		d := &fr.tab[fr.PC]
		m.Steps++
		if m.Steps > m.MaxSteps {
			return m.fail(ErrStepLimit, d.in, fr, "after %d steps", m.Steps-1)
		}
		if done != nil && m.Steps&cancelCheckMask == 0 {
			select {
			case <-done:
				err := m.fail(ErrCanceled, d.in, fr, "after %d steps", m.Steps)
				err.(*VMError).Cause = m.Ctx.Err()
				return err
			default:
			}
		}
		if err := d.fn(m, fr, d); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) compare(in *ir.Instr, fr *Frame) (bool, error) {
	a, b := fr.Locals[in.A], fr.Locals[in.B]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		// Reference comparison: only identity equality is defined.
		if in.Cmp != ir.Eq && in.Cmp != ir.Ne {
			return false, m.fail(ErrType, in, fr, "ordered comparison of references")
		}
		var ar, br *Object
		if a.K == ir.KindRef {
			ar = a.Ref
		}
		if b.K == ir.KindRef {
			br = b.Ref
		}
		if a.K != b.K {
			// Comparing ref with int: only null-vs-0 idiom is tolerated as
			// inequality.
			return in.Cmp == ir.Ne, nil
		}
		eq := ar == br
		if in.Cmp == ir.Eq {
			return eq, nil
		}
		return !eq, nil
	}
	switch in.Cmp {
	case ir.Eq:
		return a.I == b.I, nil
	case ir.Ne:
		return a.I != b.I, nil
	case ir.Lt:
		return a.I < b.I, nil
	case ir.Le:
		return a.I <= b.I, nil
	case ir.Gt:
		return a.I > b.I, nil
	case ir.Ge:
		return a.I >= b.I, nil
	}
	return false, m.fail(ErrType, in, fr, "bad comparison")
}

func (m *Machine) doNative(fr *Frame, in *ir.Instr) (Value, error) {
	arg := func(i int) Value {
		if i < len(in.Args) {
			return fr.Locals[in.Args[i]]
		}
		return IntVal(0)
	}
	argInt := func(i int) int64 {
		v := arg(i)
		if v.K == ir.KindRef {
			if v.Ref == nil {
				return 0
			}
			return v.Ref.Seq
		}
		return v.I
	}
	switch in.Native {
	case ir.NativePrint, ir.NativePrintChar:
		m.Output = append(m.Output, argInt(0))
		return IntVal(0), nil
	case ir.NativeRand:
		n := argInt(0)
		if n <= 0 {
			return IntVal(0), nil
		}
		return IntVal(int64(m.nextRand() % uint64(n))), nil
	case ir.NativeTime:
		m.clock++
		return IntVal(m.clock), nil
	case ir.NativeFloatToBits:
		return IntVal(packFloatBits(argInt(0))), nil
	case ir.NativeBitsToFloat:
		return IntVal(unpackFloatBits(argInt(0))), nil
	case ir.NativeAssert:
		if argInt(0) == 0 {
			m.AssertFailures++
		}
		return IntVal(0), nil
	case ir.NativeDBQuery:
		m.NativeWork += DBQueryCost
		var h uint64 = 0x9E3779B97F4A7C15
		for i := range in.Args {
			h = mix64(h ^ uint64(argInt(i)))
		}
		return IntVal(int64(h >> 1)), nil
	case ir.NativeHash:
		return IntVal(int64(mix64(uint64(argInt(0))) >> 1)), nil
	default:
		return IntVal(0), m.fail(ErrNative, in, fr, "unknown native %v", in.Native)
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
