package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strconv"

	"operon/internal/geom"
	"operon/internal/signal"
)

// The bodies that can carry an inline design (SolveRequest, a batch of
// them, SessionRequest) are decoded in one pass over the request bytes.
// The pass accepts only a strict canonical subset of JSON, the one
// encoding/json itself writes for these types:
//
//   - keys spelled exactly as the struct tags or field names (no case
//     folding), each at most once per object, none unknown;
//   - ASCII strings without escapes;
//   - numbers in JSON grammar, converted with the calls encoding/json makes
//     (strconv.ParseFloat(s, 64), strconv.ParseInt(s, 10, 64)), so every
//     float is bit-identical;
//   - true and false, and [] as an empty non-nil slice.
//
// Anything else — null, escapes, non-ASCII bytes, case-folded, unknown or
// duplicate keys, a number that does not fit its field, a syntax error —
// makes the pass decline. The target is then reset to its zero value and
// encoding/json decodes the same bytes, so an accepted body decodes to
// exactly encoding/json's value and any other body gets encoding/json's
// value and error unchanged. Bytes after the first value are ignored, as
// json.Decoder.Decode ignores them.

// A wire is the state of one request decode: the cursor of the one-pass
// decoder and the staging lists in which it collects array elements before
// copying them into slices of exact length. A staging list holds one
// array's elements at a time, so it stays small. Neither the wire nor the
// body buffer is pooled: a pooled buffer as large as the largest batch body
// stays live between requests, and serve-mix's peak RSS rose with one.
type wire struct {
	b []byte
	i int

	pts    []geom.Point
	bits   []signal.Bit
	groups []signal.Group
	reqs   []SolveRequest
}

// readBody reads r to its end into a buffer with room for size bytes and
// returns the bytes read and the read error (nil at io.EOF).
func readBody(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, size+1) // +1: the read that sees io.EOF
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// decode decodes data, the request body, into v, which points at a zero
// value. readErr is the error the body read ended with: after a failed read
// encoding/json decodes data followed by that error, which is what it saw
// when it read the body itself.
func (d *wire) decode(data []byte, readErr error, v any) error {
	if readErr == nil && d.canonical(data, v) {
		return nil
	}
	reflect.ValueOf(v).Elem().SetZero()
	var r io.Reader = bytes.NewReader(data)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	return json.NewDecoder(r).Decode(v)
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

// Read implements io.Reader.
func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// canonical decodes data into v in one pass and reports whether it did;
// false means data is outside the canonical subset (or v is not one of the
// decoded types) and v holds garbage.
func (d *wire) canonical(data []byte, v any) bool {
	d.b, d.i = data, 0
	switch v := v.(type) {
	case *SolveRequest:
		return d.solveRequest(v)
	case *[]SolveRequest:
		return array(d, &d.reqs, d.solveRequest, v)
	case *SessionRequest:
		return d.sessionRequest(v)
	}
	return false
}

// solveRequest, sessionRequest, design, group, bit, rect and point each
// decode one object of their type.
func (d *wire) solveRequest(r *SolveRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "bench":
			return found(1, d.str(&r.Bench))
		case "design":
			return found(2, d.design(&r.Design))
		case "mode":
			return found(4, d.str(&r.Mode))
		case "timeout_ms":
			return found(8, d.integer(&r.TimeoutMS))
		case "skip_wdm":
			return found(16, d.boolean(&r.SkipWDM))
		case "async":
			return found(32, d.boolean(&r.Async))
		}
		return 0
	})
}

func (d *wire) sessionRequest(r *SessionRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "bench":
			return found(1, d.str(&r.Bench))
		case "design":
			return found(2, d.design(&r.Design))
		case "mode":
			return found(4, d.str(&r.Mode))
		case "skip_wdm":
			return found(8, d.boolean(&r.SkipWDM))
		case "timeout_ms":
			return found(16, d.integer(&r.TimeoutMS))
		}
		return 0
	})
}

// design decodes an object into a new design and points *p at it.
func (d *wire) design(p **signal.Design) bool {
	g := new(signal.Design)
	*p = g
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "Name":
			return found(1, d.str(&g.Name))
		case "Die":
			return found(2, d.rect(&g.Die))
		case "Groups":
			return found(4, array(d, &d.groups, d.group, &g.Groups))
		}
		return 0
	})
}

func (d *wire) group(g *signal.Group) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "Name":
			return found(1, d.str(&g.Name))
		case "Bits":
			return found(2, array(d, &d.bits, d.bit, &g.Bits))
		}
		return 0
	})
}

func (d *wire) bit(b *signal.Bit) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "Driver":
			return found(1, d.point(&b.Driver))
		case "Sinks":
			return found(2, array(d, &d.pts, d.point, &b.Sinks))
		}
		return 0
	})
}

func (d *wire) rect(r *geom.Rect) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "Lo":
			return found(1, d.point(&r.Lo))
		case "Hi":
			return found(2, d.point(&r.Hi))
		}
		return 0
	})
}

func (d *wire) point(p *geom.Point) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "X":
			return found(1, d.float(&p.X))
		case "Y":
			return found(2, d.float(&p.Y))
		}
		return 0
	})
}

// found returns bit when the field's value decoded, and 0 otherwise.
func found(bit uint, decoded bool) uint {
	if decoded {
		return bit
	}
	return 0
}

// object decodes an object. field decodes the value of one key and returns
// the key's bit, or 0 for an unknown key or a value it could not decode;
// a key seen twice declines.
func (d *wire) object(field func(key []byte) uint) bool {
	if !d.token('{') {
		return false
	}
	if d.token('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok := d.next('}'); !ok || !more {
			return ok
		}
	}
}

// array decodes an array into *out, a slice of exactly its length ([]
// gives an empty non-nil slice, as in encoding/json). Each element decodes
// into a zero value at the end of *stage, which the decoder reuses, and
// waits there until the array closes. No T contains a []T, so no element
// grows its own stage while it decodes.
func array[T any](d *wire, stage *[]T, elem func(*T) bool, out *[]T) bool {
	if !d.token('[') {
		return false
	}
	base := len(*stage)
	if !d.token(']') {
		var zero T
		for {
			*stage = append(*stage, zero)
			if !elem(&(*stage)[len(*stage)-1]) {
				return false
			}
			if more, ok := d.next(']'); !ok {
				return false
			} else if !more {
				break
			}
		}
	}
	*out = make([]T, len(*stage)-base)
	copy(*out, (*stage)[base:])
	*stage = (*stage)[:base]
	return true
}

// space skips JSON whitespace.
func (d *wire) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// token consumes c, after whitespace, and reports whether it was there.
func (d *wire) token(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// next consumes the separator after a member or element: more is true
// after a comma and false after the closing delimiter end.
func (d *wire) next(end byte) (more, ok bool) {
	if d.token(',') {
		return true, true
	}
	return false, d.token(end)
}

// strBytes consumes a string of ASCII bytes from 0x20 up, without escapes,
// and returns its contents, which alias the body.
func (d *wire) strBytes() ([]byte, bool) {
	if !d.token('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// key consumes an object key and its colon.
func (d *wire) key() ([]byte, bool) {
	k, ok := d.strBytes()
	return k, ok && d.token(':')
}

// str, boolean, float and integer each decode one value of their Go type.
func (d *wire) str(s *string) bool {
	b, ok := d.strBytes()
	*s = string(b)
	return ok
}

func (d *wire) boolean(v *bool) bool {
	d.space()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*v, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*v, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

// number consumes a number in JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *wire) number() ([]byte, bool) {
	d.space()
	b, i := d.b, d.i
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	s := b[d.i:i]
	d.i = i
	return s, true
}

func (d *wire) float(v *float64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	*v = f
	return err == nil
}

func (d *wire) integer(v *int64) bool {
	s, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	*v = n
	return err == nil
}
