package interp

// Handler-table dispatch, the machine's only interpreter loop. Instead of
// re-decoding each ir.Instr through an opcode switch on every execution,
// methods get a side table of pre-resolved dinstr records: one handler
// function per opcode variant (per-BinOp arithmetic, per-Cmp branches,
// static vs virtual calls) with operands, field/static slots, branch
// targets and immediates already decoded. The main loop then runs
// d.fn(m, fr, d) — one indirect call, no opcode switch.
//
// Decoded tables are immutable, so they are shared by every machine running
// the same program (cached on ir.Program.TabCache, built under a mutex).
// The exception is a machine with a Prune set, which folds its prune marks
// into private tables. All mutable dispatch state — the inline caches — lives
// in per-machine icSite records, so concurrent profiles over one program
// race on nothing.
//
// Virtual call sites carry a monomorphic inline cache keyed by the
// receiver's dynamic class, with a bounded polymorphic fallback and a
// megamorphic regime that degrades to the plain name lookup.

import (
	"sync"

	"lowutil/internal/ir"
)

// handlerFn executes one pre-decoded instruction. Handlers advance fr.PC
// themselves and report tracer events through m.ev.
type handlerFn func(m *Machine, fr *Frame, d *dinstr) error

// icPolyMax bounds the polymorphic inline-cache fallback; sites that see
// more receiver classes go megamorphic (plain lookup, no further installs).
const icPolyMax = 4

// icEntry is one polymorphic inline-cache way.
type icEntry struct {
	class  *ir.Class
	target *ir.Method
}

// icSite is the per-machine mutable state of one virtual call site: the
// monomorphic inline cache plus its polymorphic fallback. Sites live in
// per-machine per-method slices (Frame.ics), never in the shared tables.
type icSite struct {
	class  *ir.Class
	target *ir.Method
	poly   []icEntry
	mega   bool
}

// dinstr is a pre-decoded instruction: the handler plus everything it needs
// without touching the wider ir.Instr on the hot path. Except for tables
// built under a Prune set, dinstr records are shared between machines and
// must not be written after construction.
type dinstr struct {
	fn     handlerFn
	in     *ir.Instr
	pruned bool

	dst, a, b, c2 int32
	target        int32
	slot          int32 // field or static slot
	icIdx         int32 // virtual sites: index into the frame's icSite slice
	imm           int64

	// callee is the static call target, or the declared callee of a virtual
	// site (dispatch is by name on the receiver's dynamic class).
	callee *ir.Method
}

// mtab is one decoded method table plus the number of virtual call sites it
// contains (the size of the per-machine icSite slice it needs).
type mtab struct {
	tab    []dinstr
	vcount int
}

// progTabs is the per-program shared decode cache, hung off
// ir.Program.TabCache.
type progTabs struct {
	mu   sync.Mutex
	tabs []mtab // by Method.ID
}

func progTabsOf(p *ir.Program) *progTabs {
	if v := p.TabCache.Load(); v != nil {
		return v.(*progTabs)
	}
	pt := &progTabs{}
	if p.TabCache.CompareAndSwap(nil, pt) {
		return pt
	}
	return p.TabCache.Load().(*progTabs)
}

// sharedTab returns the program-wide decoded table for meth, building it
// once. Cached tables are revalidated against the method's current code
// slice: passes that rewrite bodies in place (SSA destruction + Reindex)
// replace Code, which invalidates any table built against the old slice.
func sharedTab(prog *ir.Program, meth *ir.Method) mtab {
	pt := progTabsOf(prog)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.tabs == nil {
		pt.tabs = make([]mtab, prog.NumMethods())
	}
	id := meth.ID
	if id < 0 || id >= len(pt.tabs) {
		return buildTab(meth, nil)
	}
	t := pt.tabs[id]
	if len(t.tab) == len(meth.Code) && len(t.tab) > 0 && t.tab[0].in == &meth.Code[0] {
		return t
	}
	t = buildTab(meth, nil)
	pt.tabs[id] = t
	return t
}

// methodTab returns the dispatch table for meth plus this machine's inline
// caches for it, consulting the machine-local cache first and the shared
// per-program cache behind it. Machines with a Prune set build private
// tables with the marks folded in.
func (m *Machine) methodTab(meth *ir.Method) ([]dinstr, []icSite) {
	if m.tabs == nil {
		n := m.Prog.NumMethods()
		m.tabs = make([][]dinstr, n)
		m.ics = make([][]icSite, n)
	}
	id := meth.ID
	if id >= 0 && id < len(m.tabs) {
		if tab := m.tabs[id]; len(tab) == len(meth.Code) && len(tab) > 0 && tab[0].in == &meth.Code[0] {
			return tab, m.ics[id]
		}
	}
	var t mtab
	if m.Prune != nil {
		t = buildTab(meth, m.Prune)
	} else {
		t = sharedTab(m.Prog, meth)
	}
	var ics []icSite
	if t.vcount > 0 {
		ics = make([]icSite, t.vcount)
	}
	if id >= 0 && id < len(m.tabs) {
		m.tabs[id] = t.tab
		m.ics[id] = ics
	}
	return t.tab, ics
}

// buildTab pre-decodes every instruction of meth. Prune marks are folded in
// here, so the hot path tests one pre-computed bool instead of re-indexing
// the prune set per event.
func buildTab(meth *ir.Method, prune []bool) mtab {
	tab := make([]dinstr, len(meth.Code))
	vcount := 0
	for i := range meth.Code {
		in := &meth.Code[i]
		d := &tab[i]
		d.in = in
		d.dst, d.a, d.b, d.c2 = int32(in.Dst), int32(in.A), int32(in.B), int32(in.C2)
		d.target = int32(in.Target)
		d.imm = in.Imm
		d.pruned = prune != nil && in.ID < len(prune) && prune[in.ID]

		switch in.Op {
		case ir.OpConst:
			if in.IsNull {
				d.fn = hConstNull
			} else {
				d.fn = hConstInt
			}
		case ir.OpMove:
			d.fn = hMove
		case ir.OpBin:
			switch in.Bin {
			case ir.Add:
				d.fn = hAdd
			case ir.Sub:
				d.fn = hSub
			case ir.Mul:
				d.fn = hMul
			case ir.Div:
				d.fn = hDiv
			case ir.Rem:
				d.fn = hRem
			case ir.And:
				d.fn = hAnd
			case ir.Or:
				d.fn = hOr
			case ir.Xor:
				d.fn = hXor
			case ir.Shl:
				d.fn = hShl
			case ir.Shr:
				d.fn = hShr
			default:
				d.fn = hBadBin
			}
		case ir.OpNeg:
			d.fn = hNeg
		case ir.OpNot:
			d.fn = hNot
		case ir.OpNew:
			d.fn = hNew
		case ir.OpNewArray:
			d.fn = hNewArray
		case ir.OpLoadField:
			d.slot = int32(in.Field.Slot)
			d.fn = hLoadField
		case ir.OpStoreField:
			d.slot = int32(in.Field.Slot)
			d.fn = hStoreField
		case ir.OpLoadStatic:
			d.slot = int32(in.Static.Slot)
			d.fn = hLoadStatic
		case ir.OpStoreStatic:
			d.slot = int32(in.Static.Slot)
			d.fn = hStoreStatic
		case ir.OpALoad:
			d.fn = hALoad
		case ir.OpAStore:
			d.fn = hAStore
		case ir.OpArrayLen:
			d.fn = hArrayLen
		case ir.OpIf:
			switch in.Cmp {
			case ir.Eq:
				d.fn = hIfEq
			case ir.Ne:
				d.fn = hIfNe
			case ir.Lt:
				d.fn = hIfLt
			case ir.Le:
				d.fn = hIfLe
			case ir.Gt:
				d.fn = hIfGt
			case ir.Ge:
				d.fn = hIfGe
			default:
				d.fn = hBadIf
			}
		case ir.OpGoto:
			d.fn = hGoto
		case ir.OpInstanceOf:
			d.fn = hInstanceOf
		case ir.OpCall:
			d.callee = in.Callee
			if in.Callee.Static {
				d.fn = hCallStatic
			} else {
				d.a = int32(in.Args[0]) // receiver slot
				d.icIdx = int32(vcount)
				vcount++
				d.fn = hCallVirtual
			}
		case ir.OpReturn:
			if in.HasA {
				d.fn = hReturnVal
			} else {
				d.fn = hReturnVoid
			}
		case ir.OpNative:
			d.fn = hNative
		default:
			d.fn = hBadOp
		}
	}
	return mtab{tab: tab, vcount: vcount}
}

// traced reports whether the event for d should reach the tracer: pruned
// instructions are counted before execution, traced ones emit after.
func (m *Machine) traced(d *dinstr) bool {
	if m.Tracer == nil {
		return false
	}
	if d.pruned {
		m.PrunedEvents++
		return false
	}
	return true
}

// The emit helpers publish events through the machine's single reusable
// record, writing only the fields the opcode defines (see the Event doc:
// fields an opcode does not define are unspecified). Assigning fields
// individually instead of copying a whole Event keeps the per-event GC
// write-barrier work to the pointer stores that actually change: Frame only
// changes at call boundaries (setFrame), and a Value whose Ref is nil over a
// nil Ref is stored as scalars only (setVal), so the common arithmetic event
// pays one barriered store — In. The pointer handed to the tracer is only
// valid for the duration of Exec.

// setFrame publishes fr, skipping the pointer store (and its write barrier)
// when the frame is unchanged since the last event.
func (m *Machine) setFrame(fr *Frame) {
	if m.ev.Frame != fr {
		m.ev.Frame = fr
	}
}

// setVal publishes v. Int values over an event whose Val.Ref is already nil
// are written as scalars, keeping reference write barriers off the
// arithmetic hot path.
func (m *Machine) setVal(v Value) {
	ev := &m.ev
	if v.Ref == nil && ev.Val.Ref == nil {
		ev.Val.K, ev.Val.I = v.K, v.I
		return
	}
	ev.Val = v
}

// emitV reports a value-producing instruction.
func (m *Machine) emitV(in *ir.Instr, fr *Frame, v Value) {
	ev := &m.ev
	ev.In = in
	m.setFrame(fr)
	m.setVal(v)
	m.Tracer.Exec(ev)
}

// emitNew reports an allocation.
func (m *Machine) emitNew(in *ir.Instr, fr *Frame, o *Object, v Value) {
	ev := &m.ev
	ev.In, ev.New = in, o
	m.setFrame(fr)
	m.setVal(v)
	m.Tracer.Exec(ev)
}

// emitBase reports a field access or array-length read on base.
func (m *Machine) emitBase(in *ir.Instr, fr *Frame, base *Object, v Value) {
	ev := &m.ev
	ev.In, ev.Base = in, base
	m.setFrame(fr)
	m.setVal(v)
	m.Tracer.Exec(ev)
}

// emitIndexed reports an array element access.
func (m *Machine) emitIndexed(in *ir.Instr, fr *Frame, base *Object, idx int64, v Value) {
	ev := &m.ev
	ev.In, ev.Base, ev.Index = in, base, idx
	m.setFrame(fr)
	m.setVal(v)
	m.Tracer.Exec(ev)
}

// emitTaken reports a branch.
func (m *Machine) emitTaken(in *ir.Instr, fr *Frame, taken bool) {
	ev := &m.ev
	ev.In, ev.Taken = in, taken
	m.setFrame(fr)
	m.Tracer.Exec(ev)
}

func hConstInt(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v := IntVal(d.imm)
	fr.Locals[d.dst] = v
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hConstNull(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	fr.Locals[d.dst] = Null
	if traced {
		m.emitV(d.in, fr, Null)
	}
	fr.PC++
	return nil
}

func hMove(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v := fr.Locals[d.a]
	fr.Locals[d.dst] = v
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

// binOperands loads the integer operands of an arithmetic handler.
func binOperands(m *Machine, fr *Frame, d *dinstr) (int64, int64, error) {
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return 0, 0, m.fail(ErrType, d.in, fr, "arithmetic on reference")
	}
	return a.I, b.I, nil
}

// finishBin stores and reports an arithmetic result.
func finishBin(m *Machine, fr *Frame, d *dinstr, traced bool, r int64) error {
	v := IntVal(r)
	fr.Locals[d.dst] = v
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hAdd(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a+b)
}

func hSub(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a-b)
}

func hMul(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a*b)
}

func hDiv(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return finishBin(m, fr, d, traced, a/b)
}

func hRem(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	if b == 0 {
		return m.fail(ErrDivZero, d.in, fr, "")
	}
	return finishBin(m, fr, d, traced, a%b)
}

func hAnd(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a&b)
}

func hOr(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a|b)
}

func hXor(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a^b)
}

func hShl(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a<<(uint64(b)&63))
}

func hShr(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b, err := binOperands(m, fr, d)
	if err != nil {
		return err
	}
	return finishBin(m, fr, d, traced, a>>(uint64(b)&63))
}

func hBadBin(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	if _, _, err := binOperands(m, fr, d); err != nil {
		return err
	}
	return m.fail(ErrType, d.in, fr, "bad binop %v", d.in.Bin)
}

func hNeg(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a := fr.Locals[d.a]
	if a.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "negation of reference")
	}
	return finishBin(m, fr, d, traced, -a.I)
}

func hNot(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	var r int64
	if !fr.Locals[d.a].Truthy() {
		r = 1
	}
	return finishBin(m, fr, d, traced, r)
}

func hNew(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	in := d.in
	o := m.NewObject(in.Class, in.AllocSite)
	m.AllocsBySite[in.AllocSite]++
	v := RefVal(o)
	fr.Locals[d.dst] = v
	if traced {
		m.emitNew(in, fr, o, v)
	}
	fr.PC++
	return nil
}

func hNewArray(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	in := d.in
	n := fr.Locals[d.a]
	if n.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "array length is a reference")
	}
	o, err := m.newArray(in.Elem, n.I, in.AllocSite)
	if err != nil {
		return m.fail(ErrBounds, in, fr, "%v", err)
	}
	if in.Elem.IsRef() {
		for i := range o.Elems {
			o.Elems[i] = Null
		}
	}
	m.AllocsBySite[in.AllocSite]++
	v := RefVal(o)
	fr.Locals[d.dst] = v
	if traced {
		m.emitNew(in, fr, o, v)
	}
	fr.PC++
	return nil
}

// refLocal loads a non-null object reference from local slot s.
func refLocal(m *Machine, fr *Frame, d *dinstr, s int32) (*Object, error) {
	v := fr.Locals[s]
	if v.K != ir.KindRef {
		return nil, m.fail(ErrType, d.in, fr, "expected reference in slot %d, got int", s)
	}
	if v.Ref == nil {
		return nil, m.fail(ErrNullDeref, d.in, fr, "")
	}
	return v.Ref, nil
}

func hLoadField(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.fail(ErrType, d.in, fr, "object %s has no field %s", base, d.in.Field.QualifiedName())
	}
	v := base.Fields[d.slot]
	fr.Locals[d.dst] = v
	if traced {
		m.emitBase(d.in, fr, base, v)
	}
	fr.PC++
	return nil
}

func hStoreField(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	base, err := refLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	if base.IsArray() || int(d.slot) >= len(base.Fields) {
		return m.fail(ErrType, d.in, fr, "object %s has no field %s", base, d.in.Field.QualifiedName())
	}
	v := fr.Locals[d.b]
	base.Fields[d.slot] = v
	if traced {
		m.emitBase(d.in, fr, base, v)
	}
	fr.PC++
	return nil
}

func hLoadStatic(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v := m.Statics[d.slot]
	fr.Locals[d.dst] = v
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hStoreStatic(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v := fr.Locals[d.a]
	m.Statics[d.slot] = v
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

// arrayLocal loads a non-null array reference from local slot s.
func arrayLocal(m *Machine, fr *Frame, d *dinstr, s int32) (*Object, error) {
	o, err := refLocal(m, fr, d, s)
	if err != nil {
		return nil, err
	}
	if !o.IsArray() {
		return nil, m.fail(ErrType, d.in, fr, "expected array, got %s", o)
	}
	return o, nil
}

func hALoad(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "array index is a reference")
	}
	if idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
		return m.fail(ErrBounds, d.in, fr, "index %d, length %d", idx.I, len(arr.Elems))
	}
	v := arr.Elems[idx.I]
	fr.Locals[d.dst] = v
	if traced {
		m.emitIndexed(d.in, fr, arr, idx.I, v)
	}
	fr.PC++
	return nil
}

func hAStore(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	idx := fr.Locals[d.b]
	if idx.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "array index is a reference")
	}
	if idx.I < 0 || idx.I >= int64(len(arr.Elems)) {
		return m.fail(ErrBounds, d.in, fr, "index %d, length %d", idx.I, len(arr.Elems))
	}
	v := fr.Locals[d.c2]
	arr.Elems[idx.I] = v
	if traced {
		m.emitIndexed(d.in, fr, arr, idx.I, v)
	}
	fr.PC++
	return nil
}

func hArrayLen(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	arr, err := arrayLocal(m, fr, d, d.a)
	if err != nil {
		return err
	}
	v := IntVal(int64(len(arr.Elems)))
	fr.Locals[d.dst] = v
	if traced {
		m.emitBase(d.in, fr, arr, v)
	}
	fr.PC++
	return nil
}

// finishIf branches and reports the branch event. The event fires after a
// taken branch retargets PC but before a fall-through advances it.
func finishIf(m *Machine, fr *Frame, d *dinstr, traced, taken bool) error {
	if taken {
		fr.PC = int(d.target)
	}
	if traced {
		m.emitTaken(d.in, fr, taken)
	}
	if !taken {
		fr.PC++
	}
	return nil
}

func hIfEq(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return finishIf(m, fr, d, traced, taken)
	}
	return finishIf(m, fr, d, traced, a.I == b.I)
}

func hIfNe(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		taken, err := m.compare(d.in, fr)
		if err != nil {
			return err
		}
		return finishIf(m, fr, d, traced, taken)
	}
	return finishIf(m, fr, d, traced, a.I != b.I)
}

func hIfLt(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "ordered comparison of references")
	}
	return finishIf(m, fr, d, traced, a.I < b.I)
}

func hIfLe(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "ordered comparison of references")
	}
	return finishIf(m, fr, d, traced, a.I <= b.I)
}

func hIfGt(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "ordered comparison of references")
	}
	return finishIf(m, fr, d, traced, a.I > b.I)
}

func hIfGe(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		return m.fail(ErrType, d.in, fr, "ordered comparison of references")
	}
	return finishIf(m, fr, d, traced, a.I >= b.I)
}

func hBadIf(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	a, b := fr.Locals[d.a], fr.Locals[d.b]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		_, err := m.compare(d.in, fr)
		return err
	}
	return m.fail(ErrType, d.in, fr, "bad comparison")
}

func hGoto(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d) // count pruned; pure control transfer emits no event
	fr.PC = int(d.target)
	return nil
}

func hInstanceOf(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v := fr.Locals[d.a]
	if v.K != ir.KindRef {
		return m.fail(ErrType, d.in, fr, "instanceof on non-reference")
	}
	res := int64(0)
	if v.Ref != nil && !v.Ref.IsArray() && v.Ref.Class.IsSubclassOf(d.in.Class) {
		res = 1
	}
	return finishBin(m, fr, d, traced, res)
}

func hCallStatic(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d) // calls never emit Exec events; only the pruned counter applies
	return m.pushCall(fr, d, d.callee, nil)
}

func hCallVirtual(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	v := fr.Locals[d.a]
	if v.K != ir.KindRef {
		return m.fail(ErrType, d.in, fr, "receiver is not a reference")
	}
	if v.Ref == nil {
		return m.fail(ErrNullDeref, d.in, fr, "call %s on null", d.callee.QualifiedName())
	}
	recv := v.Ref
	if recv.IsArray() {
		return m.fail(ErrType, d.in, fr, "method call on array")
	}
	cls := recv.Class
	ic := &fr.ics[d.icIdx]
	var callee *ir.Method
	if cls == ic.class {
		m.ICHits++
		callee = ic.target
	} else if callee = m.dispatchSlow(d, ic, cls); callee == nil {
		return m.fail(ErrType, d.in, fr, "class %s has no method %s", cls.Name, d.callee.Name)
	}
	return m.pushCall(fr, d, callee, recv)
}

// dispatchSlow services an inline-cache miss: probe the polymorphic ways,
// then fall back to the name lookup and install the new (class, target)
// binding — monomorphic first, then polymorphic up to icPolyMax ways, then
// megamorphic (no installs, every dispatch pays the lookup).
func (m *Machine) dispatchSlow(d *dinstr, ic *icSite, cls *ir.Class) *ir.Method {
	for i := range ic.poly {
		if ic.poly[i].class == cls {
			m.ICHits++
			return ic.poly[i].target
		}
	}
	m.ICMisses++
	target := cls.LookupMethod(d.callee.Name)
	if target == nil {
		return nil
	}
	switch {
	case ic.mega:
	case ic.class == nil:
		ic.class, ic.target = cls, target
	case len(ic.poly) < icPolyMax:
		ic.poly = append(ic.poly, icEntry{cls, target})
	default:
		ic.mega = true
	}
	return target
}

// pushCall performs the common tail of both call handlers. Frames come from the machine's pool: a frame popped by a
// return handler is dead (the machine never revisits it, and tracers key
// their state off the live frame's Shadow), so it is recycled here instead
// of allocating a frame and locals slice per call.
func (m *Machine) pushCall(fr *Frame, d *dinstr, callee *ir.Method, recv *Object) error {
	if len(m.frames) >= m.MaxDepth {
		return m.fail(ErrStackOverflow, d.in, fr, "depth %d", len(m.frames))
	}
	if m.Tracer != nil {
		m.Tracer.BeforeCall(d.in, fr, callee, recv)
	}
	var nf *Frame
	if n := len(m.framePool); n > 0 {
		nf = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		nf.Method = callee
		if cap(nf.Locals) < callee.NumLocals {
			nf.Locals = make([]Value, callee.NumLocals)
		} else {
			// Argument slots are overwritten below; only the rest needs
			// clearing to erase the previous tenant's values.
			nf.Locals = nf.Locals[:callee.NumLocals]
			clear(nf.Locals[len(d.in.Args):])
		}
		nf.PC = 0
		nf.RetDst = int(d.dst)
		nf.CallIn = d.in
		nf.Shadow = nil
	} else {
		nf = &Frame{
			Method: callee,
			Locals: make([]Value, callee.NumLocals),
			RetDst: int(d.dst),
			CallIn: d.in,
		}
	}
	for i, a := range d.in.Args {
		nf.Locals[i] = fr.Locals[a]
	}
	nf.tab, nf.ics = m.methodTab(callee)
	m.frames = append(m.frames, nf)
	if m.Tracer != nil {
		m.Tracer.EnterMethod(nf, recv)
	}
	return nil
}

func hReturnVal(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	if m.Tracer != nil {
		m.Tracer.BeforeReturn(d.in, fr)
	}
	ret := fr.Locals[d.a]
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) <= m.loopBase {
		m.lastReturn = ret
		m.framePool = append(m.framePool, fr)
		return nil
	}
	caller := m.frames[len(m.frames)-1]
	if fr.RetDst >= 0 {
		caller.Locals[fr.RetDst] = ret
	}
	if m.Tracer != nil {
		m.Tracer.AfterCall(fr.CallIn, caller, fr.RetDst >= 0)
	}
	caller.PC++
	m.framePool = append(m.framePool, fr)
	return nil
}

func hReturnVoid(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	if m.Tracer != nil {
		m.Tracer.BeforeReturn(d.in, fr)
	}
	m.frames = m.frames[:len(m.frames)-1]
	if len(m.frames) <= m.loopBase {
		m.lastReturn = Value{}
		m.framePool = append(m.framePool, fr)
		return nil
	}
	caller := m.frames[len(m.frames)-1]
	if m.Tracer != nil {
		m.Tracer.AfterCall(fr.CallIn, caller, false)
	}
	caller.PC++
	m.framePool = append(m.framePool, fr)
	return nil
}

func hNative(m *Machine, fr *Frame, d *dinstr) error {
	traced := m.traced(d)
	v, err := m.doNative(fr, d.in)
	if err != nil {
		return err
	}
	if d.dst >= 0 {
		fr.Locals[d.dst] = v
	}
	if traced {
		m.emitV(d.in, fr, v)
	}
	fr.PC++
	return nil
}

func hBadOp(m *Machine, fr *Frame, d *dinstr) error {
	m.traced(d)
	return m.fail(ErrType, d.in, fr, "unknown opcode")
}
