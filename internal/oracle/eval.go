package oracle

import (
	"math/bits"

	"lowutil/internal/ir"
)

// ErrKind names a VM error as the engine prints its error kinds.
type ErrKind string

// The VM error kinds the evaluator raises.
const (
	ErrNullDeref     ErrKind = "null dereference"
	ErrBounds        ErrKind = "index out of bounds"
	ErrDivZero       ErrKind = "division by zero"
	ErrStepLimit     ErrKind = "step limit exceeded"
	ErrStackOverflow ErrKind = "stack overflow"
	ErrType          ErrKind = "type violation"
	ErrNative        ErrKind = "native error"
)

// maxDepth is the call-depth bound, the VM's default.
const maxDepth = 1 << 16

// dbQueryCost is the synthetic work charged per database query native.
const dbQueryCost = 500

// Result is what one evaluation observes: the printed values, the executed
// instruction count (the failing instruction included), allocations, native
// work, the error the run ended in ("" when it completed) and the Gcost of
// the instructions that completed.
type Result struct {
	Output     []int64
	Steps      int64
	Allocs     int64
	NativeWork int64
	Err        ErrKind
	G          *Gcost
}

// value is an int, or a reference when ref is set; a reference's n is the
// heap address of its object, 0 for null.
type value struct {
	ref bool
	n   int64
}

var null = value{ref: true}

// object is a class instance or an array. slots holds the fields (by field
// slot) or the elements; last holds each slot's last writer — the shadow
// heap — and alloc the allocating node, the object's tag.
type object struct {
	class *ir.Class // nil for arrays
	slots []value
	last  []Node
	site  int
	alloc Node
}

type frame struct {
	method *ir.Method
	pc     int
	locals []value
	last   []Node    // last writer of each local
	ctx    uint64    // encoded receiver-object chain
	call   *ir.Instr // the call that pushed the frame; nil for main
}

type evaluator struct {
	slots      uint64
	heap       []*object // by address; heap[0] is null
	statics    []value
	staticLast []Node
	frames     []*frame
	rng        uint64
	clock      int64
	res        *Result
}

// Run evaluates prog's main method with s = slots context slots, at most
// maxSteps instructions (0 means no bound).
func Run(prog *ir.Program, slots int, maxSteps int64) *Result {
	e := &evaluator{slots: uint64(slots), heap: []*object{nil},
		rng: 0x9E3779B97F4A7C15 | 1, res: &Result{G: NewGcost(prog)}}
	for _, sf := range prog.Statics {
		e.statics = append(e.statics, value{ref: sf.Type.IsRef()})
	}
	e.staticLast = unwritten(len(prog.Statics))
	e.frames = []*frame{newFrame(prog.Main, nil)}
	for len(e.frames) > 0 && e.res.Err == "" {
		f := e.frames[len(e.frames)-1]
		e.res.Steps++
		if maxSteps > 0 && e.res.Steps > maxSteps {
			e.res.Err = ErrStepLimit
		} else {
			e.res.Err = e.step(f, &f.method.Code[f.pc])
		}
	}
	return e.res
}

// unwritten returns last-writer entries for n slots nothing has written.
func unwritten(n int) []Node {
	last := make([]Node, n)
	for i := range last {
		last[i] = None
	}
	return last
}

func newFrame(m *ir.Method, call *ir.Instr) *frame {
	return &frame{method: m, locals: make([]value, m.NumLocals), last: unwritten(m.NumLocals), call: call}
}

func (e *evaluator) alloc(class *ir.Class, slots []value, site int) (int64, *object) {
	o := &object{class: class, slots: slots, last: unwritten(len(slots)), site: site}
	e.heap = append(e.heap, o)
	e.res.Allocs++
	return int64(len(e.heap) - 1), o
}

// deref returns the object v refers to, failing on ints, null, and on an
// array where an instance is wanted or the other way round.
func (e *evaluator) deref(v value, array bool) (*object, ErrKind) {
	switch {
	case !v.ref:
		return nil, ErrType
	case v.n == 0:
		return nil, ErrNullDeref
	case (e.heap[v.n].class == nil) != array:
		return nil, ErrType
	}
	return e.heap[v.n], ""
}

// lookup is virtual dispatch: the most-derived declaration of name on the
// chain from c up.
func lookup(c *ir.Class, name string) *ir.Method {
	for ; c != nil; c = c.Super {
		for _, m := range c.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

func isSubclass(c, of *ir.Class) bool {
	for ; c != nil; c = c.Super {
		if c == of {
			return true
		}
	}
	return false
}

// exec records the completed instruction in in the Gcost and returns its
// node.
func (e *evaluator) exec(in *ir.Instr, f *frame, a access) Node {
	return e.res.G.exec(in, f, e.slots, a)
}

// step executes in, the instruction at f's pc, and advances the pc.
func (e *evaluator) step(f *frame, in *ir.Instr) ErrKind {
	l := f.locals
	set := func(v value) { l[in.Dst] = v; e.exec(in, f, access{}) }
	switch in.Op {
	case ir.OpConst:
		if in.IsNull {
			set(null)
		} else {
			set(value{n: in.Imm})
		}
	case ir.OpMove:
		set(l[in.A])
	case ir.OpBin:
		a, b := l[in.A], l[in.B]
		if a.ref || b.ref {
			return ErrType
		}
		r, err := arith(in.Bin, a.n, b.n)
		if err != "" {
			return err
		}
		set(value{n: r})
	case ir.OpNeg:
		if l[in.A].ref {
			return ErrType
		}
		set(value{n: -l[in.A].n})
	case ir.OpNot:
		if l[in.A].n == 0 {
			set(value{n: 1})
		} else {
			set(value{})
		}
	case ir.OpNew:
		var fields []value // every field on the chain, by slot; references start null
		for c := in.Class; c != nil; c = c.Super {
			for _, fd := range c.Fields {
				if fd.Slot >= len(fields) {
					fields = append(fields, make([]value, fd.Slot+1-len(fields))...)
				}
				fields[fd.Slot].ref = fd.Type.IsRef()
			}
		}
		addr, o := e.alloc(in.Class, fields, in.AllocSite)
		l[in.Dst] = value{ref: true, n: addr}
		o.alloc = e.exec(in, f, access{})
	case ir.OpNewArray:
		n := l[in.A]
		switch {
		case n.ref:
			return ErrType
		case n.n < 0:
			return ErrBounds
		}
		elems := make([]value, n.n)
		for i := range elems {
			elems[i].ref = in.Elem.IsRef()
		}
		addr, o := e.alloc(nil, elems, in.AllocSite)
		l[in.Dst] = value{ref: true, n: addr}
		o.alloc = e.exec(in, f, access{})
	case ir.OpLoadField, ir.OpStoreField:
		o, err := e.deref(l[in.A], false)
		if err != "" {
			return err
		}
		s := in.Field.Slot
		if s >= len(o.slots) {
			return ErrType
		}
		a := access{loc: Loc{o.alloc, in.Field.ID}, at: &o.last[s]}
		if in.Op == ir.OpLoadField {
			l[in.Dst] = o.slots[s]
		} else {
			o.slots[s], a.child = l[in.B], e.tag(l[in.B])
		}
		e.exec(in, f, a)
	case ir.OpALoad, ir.OpAStore:
		o, err := e.deref(l[in.A], true)
		if err != "" {
			return err
		}
		i := l[in.B]
		switch {
		case i.ref:
			return ErrType
		case i.n < 0 || i.n >= int64(len(o.slots)):
			return ErrBounds
		}
		a := access{loc: Loc{o.alloc, -1}, at: &o.last[i.n]}
		if in.Op == ir.OpALoad {
			l[in.Dst] = o.slots[i.n]
		} else {
			o.slots[i.n], a.child = l[in.C2], e.tag(l[in.C2])
		}
		e.exec(in, f, a)
	case ir.OpArrayLen:
		o, err := e.deref(l[in.A], true)
		if err != "" {
			return err
		}
		l[in.Dst] = value{n: int64(len(o.slots))}
		e.exec(in, f, access{loc: Loc{o.alloc, -1}})
	case ir.OpLoadStatic, ir.OpStoreStatic:
		s := in.Static.Slot
		a := access{loc: Loc{None, s}, at: &e.staticLast[s], child: None}
		if in.Op == ir.OpLoadStatic {
			l[in.Dst] = e.statics[s]
		} else {
			e.statics[s] = l[in.A]
		}
		e.exec(in, f, a)
	case ir.OpInstanceOf:
		v := l[in.A]
		if !v.ref {
			return ErrType
		}
		r := value{}
		if o := e.heap[v.n]; o != nil && o.class != nil && isSubclass(o.class, in.Class) {
			r.n = 1
		}
		set(r)
	case ir.OpIf:
		taken, err := compare(in.Cmp, l[in.A], l[in.B])
		if err != "" {
			return err
		}
		e.exec(in, f, access{})
		if taken {
			f.pc = in.Target
			return ""
		}
	case ir.OpGoto:
		f.pc = in.Target
		return ""
	case ir.OpNative:
		v, err := e.native(in, f)
		if err != "" {
			return err
		}
		if in.Dst >= 0 {
			l[in.Dst] = v
		}
		e.exec(in, f, access{})
	case ir.OpCall:
		return e.call(in, f)
	case ir.OpReturn:
		e.ret(in, f)
		return ""
	default:
		return ErrType
	}
	f.pc++
	return ""
}

// tag is the allocation node of the object v refers to, None for ints and
// null.
func (e *evaluator) tag(v value) Node {
	if !v.ref || v.n == 0 {
		return None
	}
	return e.heap[v.n].alloc
}

func arith(op ir.BinOp, a, b int64) (int64, ErrKind) {
	switch op {
	case ir.Add:
		return a + b, ""
	case ir.Sub:
		return a - b, ""
	case ir.Mul:
		return a * b, ""
	case ir.Div, ir.Rem:
		if b == 0 {
			return 0, ErrDivZero
		}
		if op == ir.Div {
			return a / b, ""
		}
		return a % b, ""
	case ir.And:
		return a & b, ""
	case ir.Or:
		return a | b, ""
	case ir.Xor:
		return a ^ b, ""
	case ir.Shl:
		return a << (b & 63), ""
	case ir.Shr:
		return a >> (b & 63), ""
	}
	return 0, ErrType
}

// compare decides a branch. References compare by identity, and only for
// equality; a reference never equals an int.
func compare(c ir.Cmp, a, b value) (bool, ErrKind) {
	if a.ref || b.ref {
		if c != ir.Eq && c != ir.Ne {
			return false, ErrType
		}
		return (a == b) == (c == ir.Eq), ""
	}
	switch c {
	case ir.Eq:
		return a.n == b.n, ""
	case ir.Ne:
		return a.n != b.n, ""
	case ir.Lt:
		return a.n < b.n, ""
	case ir.Le:
		return a.n <= b.n, ""
	case ir.Gt:
		return a.n > b.n, ""
	case ir.Ge:
		return a.n >= b.n, ""
	}
	return false, ErrType
}

// call pushes the callee frame: the declared callee for a static call, else
// the receiver class's own declaration.
func (e *evaluator) call(in *ir.Instr, f *frame) ErrKind {
	callee := in.Callee
	var recv *object
	if !callee.Static {
		o, err := e.deref(f.locals[in.Args[0]], false)
		if err != "" {
			return err
		}
		if callee = lookup(o.class, callee.Name); callee == nil {
			return ErrType
		}
		recv = o
	}
	if len(e.frames) >= maxDepth {
		return ErrStackOverflow
	}
	nf := newFrame(callee, in)
	for i, a := range in.Args {
		nf.locals[i] = f.locals[a]
	}
	enter(in, f, nf, recv)
	e.frames = append(e.frames, nf)
	return ""
}

// ret pops f and hands a returned value to the caller's destination.
func (e *evaluator) ret(in *ir.Instr, f *frame) {
	e.frames = e.frames[:len(e.frames)-1]
	if len(e.frames) == 0 {
		return
	}
	caller := e.frames[len(e.frames)-1]
	if in.HasA && f.call.Dst >= 0 {
		caller.locals[f.call.Dst] = f.locals[in.A]
		e.res.G.returned(f.call, caller, e.slots, f.last[in.A])
	}
	caller.pc++
}

// native runs a built-in. Arguments read as ints, a reference as its heap
// address (0 for null), and a missing argument as 0.
func (e *evaluator) native(in *ir.Instr, f *frame) (value, ErrKind) {
	arg := func(i int) uint64 {
		if i < len(in.Args) {
			return uint64(f.locals[in.Args[i]].n)
		}
		return 0
	}
	switch in.Native {
	case ir.NativePrint, ir.NativePrintChar:
		e.res.Output = append(e.res.Output, int64(arg(0)))
		return value{}, ""
	case ir.NativeRand:
		if n := int64(arg(0)); n > 0 {
			x := e.rng // xorshift64*
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			e.rng = x
			return value{n: int64(x * 0x2545F4914F6CDD1D % uint64(n))}, ""
		}
		return value{}, ""
	case ir.NativeTime:
		e.clock++
		return value{n: e.clock}, ""
	case ir.NativeFloatToBits:
		return value{n: int64(bits.RotateLeft64(arg(0), 17) ^ floatBitsKey)}, ""
	case ir.NativeBitsToFloat:
		return value{n: int64(bits.RotateLeft64(arg(0)^floatBitsKey, -17))}, ""
	case ir.NativeAssert:
		return value{}, ""
	case ir.NativeDBQuery:
		e.res.NativeWork += dbQueryCost
		h := uint64(0x9E3779B97F4A7C15)
		for i := range in.Args {
			h = splitmix(h ^ arg(i))
		}
		return value{n: int64(h >> 1)}, ""
	case ir.NativeHash:
		return value{n: int64(splitmix(arg(0)) >> 1)}, ""
	}
	return value{}, ErrNative
}

// floatBitsKey keys the float-bits bijection: rotate left by 17, then xor.
const floatBitsKey = 0x5A5A_C3C3_0F0F_9696

// splitmix is the splitmix64 finalizer.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
