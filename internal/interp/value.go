// Package interp implements the virtual machine that executes ir.Programs.
//
// The machine plays the role of the instrumented IBM J9 JVM in the paper: it
// interprets three-address code one instruction at a time, counts every
// executed instruction instance (domain N), and exposes a Tracer hook that
// receives a resolved event per instruction — the moral equivalent of the
// JVM-level instrumentation in Figure 4 of the paper. Profilers (the
// cost-benefit profiler, the client analyses) are Tracers; running with a
// nil Tracer is the uninstrumented baseline used for overhead measurements.
package interp

import (
	"fmt"

	"lowutil/internal/ir"
)

// Value is a runtime value: an int or a reference. The zero Value is the
// int 0.
type Value struct {
	K   ir.Kind
	I   int64
	Ref *Object
}

// IntVal returns an int value.
func IntVal(i int64) Value { return Value{K: ir.KindInt, I: i} }

// RefVal returns a reference value (obj may be nil for null).
func RefVal(obj *Object) Value { return Value{K: ir.KindRef, Ref: obj} }

// Null is the null reference.
var Null = Value{K: ir.KindRef}

// IsNull reports whether v is the null reference.
func (v Value) IsNull() bool { return v.K == ir.KindRef && v.Ref == nil }

// Truthy reports whether v is a non-zero int or non-null reference.
func (v Value) Truthy() bool {
	if v.K == ir.KindRef {
		return v.Ref != nil
	}
	return v.I != 0
}

func (v Value) String() string {
	switch {
	case v.K == ir.KindRef && v.Ref == nil:
		return "null"
	case v.K == ir.KindRef:
		return v.Ref.String()
	default:
		return fmt.Sprintf("%d", v.I)
	}
}

// Object is a heap object: a class instance (Class non-nil) or an array
// (Elems non-nil). Shadow is reserved for tracers — it is the per-object
// slice of the "shadow heap" in the paper, giving O(1) access to tracking
// data for each field, plus the object tag (environment P).
type Object struct {
	Class  *ir.Class
	Elems  []Value  // arrays only
	ElemT  *ir.Type // array element type
	Fields []Value

	Site int   // allocation-site index (domain O)
	Seq  int64 // unique object sequence number

	// Shadow is owned by the active Tracer; the machine never touches it.
	Shadow any
}

// IsArray reports whether o is an array object.
func (o *Object) IsArray() bool { return o.Elems != nil || o.ElemT != nil }

// Len returns the array length (0 for class instances).
func (o *Object) Len() int { return len(o.Elems) }

func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	if o.IsArray() {
		return fmt.Sprintf("%s[%d]#%d", o.ElemT, len(o.Elems), o.Seq)
	}
	return fmt.Sprintf("%s#%d", o.Class.Name, o.Seq)
}

// Frame is an activation record. Locals[0..Params) are the formal
// parameters; slot 0 holds the receiver for instance methods. Shadow is
// reserved for tracers (the per-frame shadow locals of the paper).
type Frame struct {
	Method *ir.Method
	Locals []Value
	PC     int

	// RetDst is the caller's destination slot for the return value (-1 for
	// none); CallIn is the call instruction that created this frame (nil
	// for the entry frame).
	RetDst int
	CallIn *ir.Instr

	// Shadow is owned by the active Tracer.
	Shadow any

	// tab is the pre-decoded dispatch table for Method and ics the
	// machine's inline caches for its virtual call sites; both are set when
	// the frame is pushed.
	tab []dinstr
	ics []icSite
}
