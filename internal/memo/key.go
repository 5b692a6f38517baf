// Package memo implements the content-addressed design-point cache behind
// synthesis-as-a-service: a canonical, versioned content hash of a synthesis
// request — the communication graph plus the result-affecting options — and a
// two-tier (in-memory LRU + on-disk) store of the JSON-stable Result bytes,
// with single-flight deduplication of concurrent identical requests.
//
// The cache is sound because synthesis is deterministic: for equal
// (CommGraph, Options) inputs the engine produces byte-identical serialised
// Results regardless of parallelism, progress callbacks or the scheduler used
// (the serial==parallel and property tests assert it). The key is total by
// construction: Key walks every exported field of both inputs by reflection,
// so a newly added option is hashed without any edit here. The only fields
// left out are the execution knobs listed in executionKnobs, each with the
// proof that it cannot change the serialised Result (Parallelism, Progress,
// Scheduler, Weight, and the simulator's StatsLevel switch). Two tests hold
// the walker to that: TestKeyCoversEveryLeaf flips every reachable leaf and
// requires each flip to move the key to a value of its own while knob flips
// leave it alone, and TestExecutionKnobsAreFields requires every knob entry to
// name a real exported field and carry a justification.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sync"

	"sunfloor3d/internal/model"
	"sunfloor3d/internal/synth"
)

// Version tags the canonical encoding. It must be bumped whenever the
// encoding itself changes or the synthesis flow changes the bytes it produces
// for unchanged inputs (a golden-corpus diff): entries written under an old
// version must never be returned for a new one. A field added to the inputs
// needs no bump, because the walker hashes it and so moves every key. The
// version string is hashed into every key, so a bump invalidates the whole
// store without touching it.
const Version = "sunfloor3d-memo/v5"

// executionKnobs lists every field reachable from Key's parameters that the
// walker deliberately does NOT hash, keyed by its dotted path from the
// parameter root, with the proof obligation as the value: each entry must
// name a property (usually an existing test) showing the field cannot change
// the serialised Result bytes. Everything else is hashed.
var executionKnobs = map[string]string{
	"Parallelism":    "worker count never changes Result bytes (serial==parallel property, PR 1; re-asserted by the PR 5 harness)",
	"Scheduler":      "a contended shared scheduler is byte-identical to a serial run (scheduler equivalence tests, PR 6)",
	"Weight":         "fair-share weight only reorders slot grants, which the pre-assigned point indices make result-neutral (PR 6)",
	"Progress":       "progress callbacks observe the sweep; results are assembled independently of callback presence or speed (PR 1)",
	"Sim.StatsLevel": "stats level only controls which per-resource rows are materialised; serialised Results exclude Sim stats entirely",
}

// The field plans of Key's two parameter types, built on first use.
// sync.OnceValue replays a build panic on every later call, so an unhashable
// field fails every Key call, not only the first.
var (
	graphPlan   = sync.OnceValue(func() *plan { return planFor(reflect.TypeFor[model.CommGraph](), "") })
	optionsPlan = sync.OnceValue(func() *plan { return planFor(reflect.TypeFor[synth.Options](), "") })
)

// Key returns the canonical content hash of a synthesis request as a
// lowercase hex string. Two requests receive the same key exactly when the
// engine is guaranteed to produce byte-identical serialised Results for them.
//
// The encoding is the version string, then every exported field of the graph
// and of the options in declaration order, skipping executionKnobs and
// unexported fields. Strings and slices are prefixed with their length,
// pointers with a presence bit, integers are fixed-width little endian, and
// floats hash their exact IEEE-754 bit pattern with negative zero normalised
// to positive zero. NaN and infinities never reach the hash — graph and
// option validation reject them first. A map, func, chan or interface field
// outside executionKnobs has no canonical encoding and makes Key panic with
// the field's path.
func Key(g *model.CommGraph, opt synth.Options) string {
	e := encoder{h: sha256.New()}
	e.str(Version)
	e.value(graphPlan(), reflect.ValueOf(g).Elem())
	e.value(optionsPlan(), reflect.ValueOf(&opt).Elem())
	return hex.EncodeToString(e.sum())
}

// plan says how values of one type are hashed: the type's kind, the plan of
// a pointer's, slice's or array's element, and a struct's hashed fields.
type plan struct {
	kind   reflect.Kind
	elem   *plan
	fields []fieldPlan
}

// fieldPlan is one hashed struct field.
type fieldPlan struct {
	index int
	plan  *plan
}

// planFor builds the plan of type t, whose values sit at the dotted field
// path below Key's parameter root.
func planFor(t reflect.Type, path string) *plan {
	p := &plan{kind: t.Kind()}
	switch p.kind {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
	case reflect.Pointer, reflect.Slice, reflect.Array:
		p.elem = planFor(t.Elem(), path)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				// synth.Options has no unexported state, which
				// TestOptionsHaveNoUnexportedFields enforces, and
				// CommGraph's name index is derived from Cores.
				continue
			}
			fp := joinPath(path, f.Name)
			if _, knob := executionKnobs[fp]; !knob {
				p.fields = append(p.fields, fieldPlan{i, planFor(f.Type, fp)})
			}
		}
	default:
		panic(fmt.Sprintf("memo: Key cannot hash field %s of type %s: give it a plain-data type, or list it in executionKnobs with a proof that it cannot change the serialised Result", path, t))
	}
	return p
}

// value writes the canonical encoding of v, laid out by p.
func (e *encoder) value(p *plan, v reflect.Value) {
	switch p.kind {
	case reflect.Bool:
		e.bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.f64(v.Float())
	case reflect.String:
		e.str(v.String())
	case reflect.Pointer:
		e.bool(!v.IsNil())
		if !v.IsNil() {
			e.value(p.elem, v.Elem())
		}
	case reflect.Slice:
		e.u64(uint64(v.Len()))
		fallthrough
	case reflect.Array:
		// An array's length is part of its type, so it needs no framing.
		for i, n := 0, v.Len(); i < n; i++ {
			e.value(p.elem, v.Index(i))
		}
	case reflect.Struct:
		for _, f := range p.fields {
			fv := v.Field(f.index)
			// The two commonest leaves are written inline, saving a call per
			// core and flow field; the encoding is the one value writes.
			switch f.plan.kind {
			case reflect.Int:
				e.u64(uint64(fv.Int()))
			case reflect.Float64:
				e.f64(fv.Float())
			default:
				e.value(f.plan, fv)
			}
		}
	}
}

// joinPath appends a field name to a dotted path.
func joinPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// chunk is how many encoded bytes the encoder gathers before handing them to
// the hash: one Write per 16 SHA-256 blocks instead of one per field.
const chunk = 1 << 10

// encoder writes length-framed primitives into a hash. Every string is
// prefixed with its byte length so that adjacent fields can never alias
// ("ab"+"c" vs "a"+"bc"), and all integers are fixed-width little endian.
type encoder struct {
	h   hash.Hash
	n   int
	buf [chunk]byte
}

func (e *encoder) u64(v uint64) {
	if e.n+8 > chunk {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

// f64 hashes the IEEE-754 bit pattern of v with negative zero normalised to
// positive zero, so the two representations of zero — which compare equal and
// behave identically throughout the flow — share a key.
func (e *encoder) f64(v float64) {
	if v == 0 {
		v = 0
	}
	e.u64(math.Float64bits(v))
}

func (e *encoder) bool(v bool) {
	if v {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	for len(s) > 0 {
		if e.n == chunk {
			e.flush()
		}
		k := copy(e.buf[e.n:], s)
		e.n += k
		s = s[k:]
	}
}

func (e *encoder) flush() {
	e.h.Write(e.buf[:e.n])
	e.n = 0
}

// sum flushes the pending bytes and returns the digest.
func (e *encoder) sum() []byte {
	e.flush()
	return e.h.Sum(nil)
}
