package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The decoder below parses the Spec schema directly. It accepts exactly
// the inputs encoding/json accepts when decoding into a Spec with
// DisallowUnknownFields and nothing but whitespace after the object, and
// it yields deep-equal values. That includes encoding/json's quieter
// rules:
//
//   - keys match fields exactly or under Unicode case folding;
//   - a duplicate key decodes into the value already there: objects merge,
//     slices are overwritten in place (reusing their backing arrays), and
//     [] yields an empty non-nil slice;
//   - null sets a slice to nil and leaves every other type unchanged;
//   - a [2]int takes the first two elements of a longer array, skips the
//     rest (any valid JSON), and zeroes the missing ones of a shorter one;
//   - int fields take only integer literals, the uint64 seed only
//     non-negative ones;
//   - strings are unquoted with invalid UTF-8 replaced by U+FFFD;
//   - containers nest at most maxDepth deep.
//
// Strings with escapes or invalid UTF-8 are unquoted by encoding/json
// itself; everything else is parsed here in one pass. FuzzDecodeMatchesJSON
// holds the decoder to encoding/json as the reference.

// maxDepth is encoding/json's container nesting limit.
const maxDepth = 10000

// arenaChunk is the element count of one number arena chunk: decoded
// number slices are cut from shared chunks instead of one allocation each.
const arenaChunk = 4096

// eof is what peek returns at the end of the input.
const eof = -1

var (
	specFields       = []string{"version", "name", "graph", "model"}
	graphFields      = []string{"family", "n", "rows", "cols", "dim", "degree", "arity", "depth", "a", "b", "p", "seed", "edges"}
	modelFields      = []string{"kind", "q", "lambda", "beta", "field", "lists", "edgeActivities", "vertexActivities", "constraints", "init", "rounds", "shards", "parallel"}
	constraintFields = []string{"kind", "scope", "table"}
)

type decoder struct {
	data  []byte
	off   int
	depth int

	// Arenas the decoded number slices are cut from, and the scratch
	// buffers an array's numbers are collected in before its length is
	// known.
	floatArena, floatBuf []float64
	intArena, intBuf     []int

	// num is the number token scanned last.
	num number
}

// decodeJSON parses data into a new Spec without validating it.
func decodeJSON(data []byte) (*Spec, error) {
	d := decoder{data: data}
	var s Spec
	if err := d.spec(&s); err != nil {
		return nil, fmt.Errorf("spec: invalid JSON: %w", err)
	}
	if d.peek() != eof {
		return nil, fmt.Errorf("spec: trailing data after the spec object")
	}
	return &s, nil
}

func (d *decoder) spec(s *Spec) error {
	null, err := d.beginObject()
	if null || err != nil {
		return err
	}
	for i := 0; ; i++ {
		f, more, err := d.nextField(i, specFields)
		if !more || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&s.Version)
		case 1:
			err = d.str(&s.Name)
		case 2:
			err = d.graph(&s.Graph)
		case 3:
			err = d.model(&s.Model)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) graph(g *GraphSpec) error {
	null, err := d.beginObject()
	if null || err != nil {
		return err
	}
	for i := 0; ; i++ {
		f, more, err := d.nextField(i, graphFields)
		if !more || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&g.Family)
		case 1:
			err = d.intNum(&g.N)
		case 2:
			err = d.intNum(&g.Rows)
		case 3:
			err = d.intNum(&g.Cols)
		case 4:
			err = d.intNum(&g.Dim)
		case 5:
			err = d.intNum(&g.Degree)
		case 6:
			err = d.intNum(&g.Arity)
		case 7:
			err = d.intNum(&g.Depth)
		case 8:
			err = d.intNum(&g.A)
		case 9:
			err = d.intNum(&g.B)
		case 10:
			err = d.floatNum(&g.P)
		case 11:
			err = d.uintNum(&g.Seed)
		case 12:
			err = slice(d, &g.Edges, (*decoder).edge)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) model(ms *ModelSpec) error {
	null, err := d.beginObject()
	if null || err != nil {
		return err
	}
	for i := 0; ; i++ {
		f, more, err := d.nextField(i, modelFields)
		if !more || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&ms.Kind)
		case 1:
			err = d.intNum(&ms.Q)
		case 2:
			err = d.floatNum(&ms.Lambda)
		case 3:
			err = d.floatNum(&ms.Beta)
		case 4:
			err = d.floatNum(&ms.Field)
		case 5:
			err = slice(d, &ms.Lists, (*decoder).ints)
		case 6:
			err = slice(d, &ms.EdgeActivities, (*decoder).floatSlice)
		case 7:
			err = slice(d, &ms.VertexActivities, (*decoder).floatSlice)
		case 8:
			err = slice(d, &ms.Constraints, (*decoder).constraint)
		case 9:
			err = d.ints(&ms.Init)
		case 10:
			err = d.intNum(&ms.Rounds)
		case 11:
			err = d.intNum(&ms.Shards)
		case 12:
			err = d.intNum(&ms.Parallel)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) constraint(c *ConstraintSpec) error {
	null, err := d.beginObject()
	if null || err != nil {
		return err
	}
	for i := 0; ; i++ {
		f, more, err := d.nextField(i, constraintFields)
		if !more || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&c.Kind)
		case 1:
			err = d.ints(&c.Scope)
		case 2:
			err = d.floatSlice(&c.Table)
		}
		if err != nil {
			return err
		}
	}
}

// edge decodes into a [2]int the way encoding/json decodes into an array.
func (d *decoder) edge(e *[2]int) error {
	null, err := d.beginArray()
	if null || err != nil {
		return err
	}
	i := 0
	for ; ; i++ {
		more, err := d.next(i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i < len(e) {
			err = d.intNum(&e[i])
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
	for ; i < len(e); i++ {
		e[i] = 0
	}
	return nil
}

// slice decodes a JSON array into *dst element by element, reusing the
// existing elements and backing array as encoding/json does.
func slice[T any](d *decoder, dst *[]T, elem func(*decoder, *T) error) error {
	null, err := d.beginArray()
	if err != nil {
		return err
	}
	if null {
		*dst = nil
		return nil
	}
	s := *dst
	i := 0
	for ; ; i++ {
		more, err := d.next(i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i == cap(s) {
			s = slices.Grow(s, 1)
		}
		if i == len(s) {
			s = s[:i+1]
		}
		if err := elem(d, &s[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// floatSlice decodes a []float64. The values are collected first and then
// stored in the existing backing array when it is large enough, or cut
// from the arena; a null element keeps the value the backing array held
// at that index, as encoding/json's in-place decode does.
func (d *decoder) floatSlice(dst *[]float64) error {
	null, err := d.beginArray()
	if err != nil {
		return err
	}
	if null {
		*dst = nil
		return nil
	}
	old := (*dst)[:cap(*dst)]
	buf := d.floatBuf[:0]
	for i := 0; ; i++ {
		more, err := d.next(i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var x float64
		if i < len(old) {
			x = old[i]
		}
		if err := d.floatNum(&x); err != nil {
			return err
		}
		buf = append(buf, x)
	}
	d.floatBuf = buf
	*dst = keep(&d.floatArena, old, buf)
	return nil
}

// ints decodes a []int like floatSlice decodes a []float64.
func (d *decoder) ints(dst *[]int) error {
	null, err := d.beginArray()
	if err != nil {
		return err
	}
	if null {
		*dst = nil
		return nil
	}
	old := (*dst)[:cap(*dst)]
	buf := d.intBuf[:0]
	for i := 0; ; i++ {
		more, err := d.next(i)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var x int
		if i < len(old) {
			x = old[i]
		}
		if err := d.intNum(&x); err != nil {
			return err
		}
		buf = append(buf, x)
	}
	d.intBuf = buf
	*dst = keep(&d.intArena, old, buf)
	return nil
}

// keep stores vals in old's backing array when it fits, else in a slice
// cut (with its capacity capped) from the arena.
func keep[T any](arena *[]T, old, vals []T) []T {
	n := len(vals)
	if n == 0 {
		return []T{}
	}
	if n <= len(old) {
		return append(old[:0], vals...)
	}
	a := *arena
	if n > cap(a)-len(a) {
		a = make([]T, 0, max(n, arenaChunk))
	}
	start := len(a)
	a = append(a, vals...)
	*arena = a
	return a[start:len(a):len(a)]
}

// --- scalars ---

// str decodes a string; null leaves *dst unchanged.
func (d *decoder) str(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.stringToken()
		if err != nil {
			return err
		}
		if plain {
			*dst = string(raw[1 : len(raw)-1])
			return nil
		}
		return json.Unmarshal(raw, dst)
	}
	return d.mismatch("a string")
}

// intNum decodes an integer literal; null leaves *dst unchanged.
func (d *decoder) intNum(dst *int) error {
	n := &d.num
	if null, err := d.numberOrNull(); null || err != nil {
		return err
	}
	// Up to 9 digits fit every int size; longer literals, fractions and
	// exponents go to strconv, which rejects what does not fit.
	if n.integer && len(n.tok) <= 9 {
		v := int(n.m)
		if n.neg {
			v = -v
		}
		*dst = v
		return nil
	}
	v, err := strconv.ParseInt(string(n.tok), 10, strconv.IntSize)
	if err != nil {
		return d.numberErr(n.tok, "int")
	}
	*dst = int(v)
	return nil
}

// uintNum decodes a non-negative integer literal; null leaves *dst
// unchanged.
func (d *decoder) uintNum(dst *uint64) error {
	n := &d.num
	if null, err := d.numberOrNull(); null || err != nil {
		return err
	}
	v, err := strconv.ParseUint(string(n.tok), 10, 64)
	if err != nil {
		return d.numberErr(n.tok, "uint64")
	}
	*dst = v
	return nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// floatNum decodes a number; null leaves *dst unchanged.
//
// A number m·10^exp with at most 15 significant digits and |exp| <= 22 is
// converted directly: m and 10^|exp| are both exact float64s, so one IEEE
// multiply or divide rounds the result correctly — the value
// strconv.ParseFloat returns, which converts every other number.
func (d *decoder) floatNum(dst *float64) error {
	n := &d.num
	if null, err := d.numberOrNull(); null || err != nil {
		return err
	}
	if n.digits <= 15 && n.exp >= -len(pow10)+1 && n.exp <= len(pow10)-1 {
		f := float64(n.m)
		if n.exp > 0 {
			f *= pow10[n.exp]
		} else if n.exp < 0 {
			f /= pow10[-n.exp]
		}
		if n.neg {
			f = -f
		}
		*dst = f
		return nil
	}
	f, err := strconv.ParseFloat(string(n.tok), 64)
	if err != nil {
		return d.numberErr(n.tok, "float64")
	}
	*dst = f
	return nil
}

// --- tokens ---

// peek skips whitespace and returns the next byte, or eof.
func (d *decoder) peek() int {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return int(c)
		}
	}
	return eof
}

// beginObject consumes a '{' (reporting null = false) or a null literal
// (null = true); anything else is a type mismatch.
func (d *decoder) beginObject() (null bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case '{':
		return false, d.open()
	}
	return false, d.mismatch("an object")
}

// beginArray is beginObject for '['.
func (d *decoder) beginArray() (null bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case '[':
		return false, d.open()
	}
	return false, d.mismatch("an array")
}

func (d *decoder) open() error {
	d.off++
	d.depth++
	if d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// next advances to element i of the array being decoded: it reports
// whether one follows, consuming the ',' before it or the closing ']'.
func (d *decoder) next(i int) (bool, error) {
	c := d.peek()
	if c == ']' {
		d.off++
		d.depth--
		return false, nil
	}
	if i == 0 {
		return true, nil
	}
	if c == ',' {
		d.off++
		return true, nil
	}
	return false, d.syntax("after array element")
}

// nextMember advances to member i of the object being decoded: it
// returns the member's key token (see stringToken), consuming the ','
// before it and the ':' after it, or more = false after consuming the
// closing '}'.
func (d *decoder) nextMember(i int) (key []byte, plain, more bool, err error) {
	c := d.peek()
	if c == '}' {
		d.off++
		d.depth--
		return nil, false, false, nil
	}
	if i > 0 {
		if c != ',' {
			return nil, false, false, d.syntax("after object member")
		}
		d.off++
		c = d.peek()
	}
	if c != '"' {
		return nil, false, false, d.syntax("looking for object key")
	}
	if key, plain, err = d.stringToken(); err != nil {
		return nil, false, false, err
	}
	if d.peek() != ':' {
		return nil, false, false, d.syntax("after object key")
	}
	d.off++
	return key, plain, true, nil
}

// nextField is nextMember for an object of the schema: it returns the
// index in names of the field the key names. Keys match as in
// encoding/json: exactly or under Unicode case folding. An unknown key is
// an error.
func (d *decoder) nextField(i int, names []string) (f int, more bool, err error) {
	raw, plain, more, err := d.nextMember(i)
	if !more || err != nil {
		return 0, more, err
	}
	key := raw[1 : len(raw)-1]
	if !plain {
		var k string
		if err := json.Unmarshal(raw, &k); err != nil {
			return 0, false, err
		}
		key = []byte(k)
	}
	for j, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return j, true, nil
		}
	}
	return 0, false, fmt.Errorf("json: unknown field %q", key)
}

// stringToken scans the string literal at d.off and returns it with its
// quotes. plain reports that it has no escapes and is valid UTF-8, so
// its bytes between the quotes are its value.
func (d *decoder) stringToken() (raw []byte, plain bool, err error) {
	start := d.off
	escaped, ascii := false, true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			raw = d.data[start:d.off]
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			i++
			if i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(d.data) || !isHex(d.data[i]) {
						d.off = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.off = len(d.data)
	return nil, false, d.syntax("in string literal")
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// number is a scanned number token, with its value as m·10^exp when it
// has at most 15 significant digits (digits counts them, capped at 16)
// and an exponent below 1000.
type number struct {
	tok     []byte
	neg     bool
	integer bool // no fraction and no exponent
	m       uint64
	digits  int
	exp     int
}

// numberOrNull scans the number at d.off into d.num, or reports null
// after consuming a null literal.
func (d *decoder) numberOrNull() (null bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return true, d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		return false, d.number()
	}
	return false, d.mismatch("a number")
}

// number scans a number token,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and its value into d.num.
func (d *decoder) number() error {
	data, i := d.data, d.off
	n := &d.num
	*n = number{integer: true}
	if data[i] == '-' {
		n.neg = true
		i++
	}
	// Leading zeros are not significant; past 15 significant digits the
	// mantissa is not needed.
	var m uint64
	nd := 0
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			m = m*10 + uint64(data[i]-'0')
			nd++
		}
	default:
		d.off = i
		return d.syntax("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		n.integer = false
		i++
		j := i
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if m != 0 || data[i] != '0' {
				nd++
			}
			m = m*10 + uint64(data[i]-'0')
		}
		if i == j {
			d.off = i
			return d.syntax("after decimal point in numeric literal")
		}
		n.exp = j - i
	}
	n.m, n.digits = m, min(nd, 16)
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		n.integer = false
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
			if e < 1000 {
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == j {
			d.off = i
			return d.syntax("in exponent of numeric literal")
		}
		if e >= 1000 {
			n.digits = 16 // out of the direct range: strconv decides
		}
		if eneg {
			e = -e
		}
		n.exp += e
	}
	n.tok = data[d.off:i]
	d.off = i
	return nil
}

// literal consumes the literal word (true, false or null) at d.off.
func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		return d.syntax("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// skip consumes one JSON value of any type, checking its syntax only —
// what encoding/json does with the elements past the end of an array.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.open(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			_, _, more, err := d.nextMember(i)
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for i := 0; ; i++ {
			more, err := d.next(i)
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("looking for beginning of value")
}

// --- errors ---

func (d *decoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

// mismatch reports a value of the wrong type (or no value at all) where
// the schema wants a value of kind want.
func (d *decoder) mismatch(want string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("cannot decode %q at offset %d as %s", d.data[d.off], d.off, want)
}

func (d *decoder) numberErr(tok []byte, typ string) error {
	return fmt.Errorf("cannot decode number %s at offset %d into a Go %s", tok, d.off-len(tok), typ)
}
