package excache

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"cogdiff/internal/interp"
)

// Both payload kinds the cache stores — explorations (exploration.go)
// and test-unit verdicts (internal/core) — are flat sequences of fields
// one Encoder writes and one Decoder reads back:
//
//   - an integer is a zig-zag varint;
//   - a float is the uvarint of its IEEE 754 bit pattern, so -0.0, NaN,
//     the infinities and subnormals come back bit for bit;
//   - a string is its uvarint length and bytes;
//   - a slice or map is a uvarint that is 0 for nil and n+1 for n
//     elements, so decoded values stay deep-equal to encoded ones; map
//     entries follow in strictly ascending key order.
//
// Every varint is minimal, so a value has exactly one encoding and a
// payload the Decoder accepts re-encodes to the same bytes.

// errPayload reports a payload that does not decode: truncated,
// oversized, out of order, not minimal or followed by trailing bytes.
var errPayload = errors.New("excache: malformed payload")

// Encoder appends payload fields to a byte slice.
type Encoder struct{ b []byte }

// NewEncoder returns an encoder whose buffer starts with room for
// sizeHint bytes.
func NewEncoder(sizeHint int) *Encoder { return &Encoder{b: make([]byte, 0, sizeHint)} }

// Bytes returns the payload written so far.
func (e *Encoder) Bytes() []byte { return e.b }

// Int and Int64 write an integer.
func (e *Encoder) Int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *Encoder) Int64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Float64 writes a float's bit pattern.
func (e *Encoder) Float64(f float64) { e.b = binary.AppendUvarint(e.b, math.Float64bits(f)) }

// Length writes a slice or map length: 0 for nil, n+1 otherwise.
func (e *Encoder) Length(n int, isNil bool) {
	if isNil {
		e.b = append(e.b, 0)
		return
	}
	e.b = binary.AppendUvarint(e.b, uint64(n)+1)
}

// Str writes a string; Strs writes a string slice.
func (e *Encoder) Str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *Encoder) Strs(ss []string) {
	e.Length(len(ss), ss == nil)
	for _, s := range ss {
		e.Str(s)
	}
}

// Exit writes an interpreter exit's kind and control fields. The result
// value is dropped: nothing that reads a cached exit uses it.
func (e *Encoder) Exit(x interp.Exit) {
	e.Int(int(x.Kind))
	e.Int(x.NextPC)
	e.Str(x.Selector)
	e.Int(x.NumArgs)
	e.Int(x.FailCode)
}

// EncodeIntMap writes m's length, then each entry in ascending key
// order: the key, then whatever value writes for it.
func EncodeIntMap[V any](e *Encoder, m map[int]V, value func(V)) {
	e.Length(len(m), m == nil)
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		e.Int(k)
		value(m[k])
	}
}

// Decoder reads a payload with a sticky error: after the first malformed
// field every read returns a zero value, so decoding code needs no
// per-field checks and cannot index past the input.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder reading payload from its first byte.
func NewDecoder(payload []byte) *Decoder { return &Decoder{b: payload} }

// Fail marks the payload malformed.
func (d *Decoder) Fail() {
	d.err = errPayload
	d.b = nil
}

// Err returns the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decoding error, or an error when bytes
// follow the last field.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail()
	}
	return d.err
}

// uvarint reads a minimal uvarint: a longer encoding of the same value
// (one ending in a zero byte) is malformed.
func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.Fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int64, Int, Float64, Str, Strs and Exit read what the Encoder method
// of the same name wrote.
func (d *Decoder) Int64() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *Decoder) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.Fail()
		return 0
	}
	return int(v)
}

func (d *Decoder) Float64() float64 { return math.Float64frombits(d.uvarint()) }

// Length reads a slice or map length written by Encoder.Length. Every
// element takes at least one byte, so a length beyond the remaining input
// is malformed; rejecting it bounds what a corrupt payload can allocate.
func (d *Decoder) Length() (int, bool) {
	n := d.uvarint()
	if n == 0 {
		return 0, false
	}
	if n-1 > uint64(len(d.b)) {
		d.Fail()
		return 0, false
	}
	return int(n - 1), true
}

func (d *Decoder) Str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.Fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *Decoder) Strs() []string {
	n, ok := d.Length()
	if !ok {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.Str()
	}
	return ss
}

func (d *Decoder) Exit() interp.Exit {
	return interp.Exit{
		Kind:     interp.ExitKind(d.Int()),
		NextPC:   d.Int(),
		Selector: d.Str(),
		NumArgs:  d.Int(),
		FailCode: d.Int(),
	}
}

// DecodeIntMap reads a map EncodeIntMap wrote, calling value for each
// entry's value. Keys that do not strictly ascend are malformed.
func DecodeIntMap[V any](d *Decoder, value func() V) map[int]V {
	n, ok := d.Length()
	if !ok {
		return nil
	}
	m := make(map[int]V, n)
	prev := 0
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Int()
		if i > 0 && k <= prev {
			d.Fail()
			break
		}
		prev = k
		m[k] = value()
	}
	return m
}
