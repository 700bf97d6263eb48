package spec

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// encoder appends the canonical encoding of a spec: byte for byte what
// json.Marshal produces for it (fields in declaration order, omitempty
// elision, HTML-safe string escapes, ES6-style float formatting), written
// directly instead of by reflection. TestHashGolden and
// FuzzDecodeMatchesJSON hold it to json.Marshal.
type encoder struct {
	buf []byte
	// rows remembers where the last few distinct float rows were
	// formatted in buf, so a row equal to one of them is copied rather
	// than formatted again: CSP specs repeat a handful of tables over
	// thousands of constraints.
	rows [8]rowRef
	nrow int
}

// rowRef locates the encoding of the float row xs at buf[start:end].
type rowRef struct {
	xs         []float64
	start, end int
}

// appendSpec appends the canonical encoding of s to dst. s must hold no
// NaN or infinite float, which json.Marshal rejects and Validate rules
// out.
func appendSpec(dst []byte, s *Spec) []byte {
	e := encoder{buf: dst}
	e.spec(s)
	return e.buf
}

func (e *encoder) spec(s *Spec) {
	e.buf = append(e.buf, `{"version":`...)
	e.str(s.Version)
	if s.Name != "" {
		e.buf = append(e.buf, `,"name":`...)
		e.str(s.Name)
	}
	e.buf = append(e.buf, `,"graph":`...)
	e.graph(&s.Graph)
	e.buf = append(e.buf, `,"model":`...)
	e.model(&s.Model)
	e.buf = append(e.buf, '}')
}

func (e *encoder) graph(g *GraphSpec) {
	start := len(e.buf)
	e.buf = append(e.buf, '{')
	if g.Family != "" {
		e.key(start, "family")
		e.str(g.Family)
	}
	e.intField(start, "n", g.N)
	e.intField(start, "rows", g.Rows)
	e.intField(start, "cols", g.Cols)
	e.intField(start, "dim", g.Dim)
	e.intField(start, "degree", g.Degree)
	e.intField(start, "arity", g.Arity)
	e.intField(start, "depth", g.Depth)
	e.intField(start, "a", g.A)
	e.intField(start, "b", g.B)
	e.floatField(start, "p", g.P)
	if g.Seed != 0 {
		e.key(start, "seed")
		e.buf = strconv.AppendUint(e.buf, g.Seed, 10)
	}
	if len(g.Edges) != 0 {
		e.key(start, "edges")
		e.buf = append(e.buf, '[')
		for i, ed := range g.Edges {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, '[')
			e.buf = strconv.AppendInt(e.buf, int64(ed[0]), 10)
			e.buf = append(e.buf, ',')
			e.buf = strconv.AppendInt(e.buf, int64(ed[1]), 10)
			e.buf = append(e.buf, ']')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) model(ms *ModelSpec) {
	e.buf = append(e.buf, `{"kind":`...)
	e.str(ms.Kind)
	const start = -1 // "kind" always comes first: every later key takes a comma
	e.intField(start, "q", ms.Q)
	e.floatField(start, "lambda", ms.Lambda)
	e.floatField(start, "beta", ms.Beta)
	e.floatField(start, "field", ms.Field)
	if len(ms.Lists) != 0 {
		e.key(start, "lists")
		e.buf = append(e.buf, '[')
		for i, l := range ms.Lists {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.ints(l)
		}
		e.buf = append(e.buf, ']')
	}
	if len(ms.EdgeActivities) != 0 {
		e.key(start, "edgeActivities")
		e.floatRows(ms.EdgeActivities)
	}
	if len(ms.VertexActivities) != 0 {
		e.key(start, "vertexActivities")
		e.floatRows(ms.VertexActivities)
	}
	if len(ms.Constraints) != 0 {
		e.key(start, "constraints")
		e.buf = append(e.buf, '[')
		for i := range ms.Constraints {
			c := &ms.Constraints[i]
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, `{"kind":`...)
			e.str(c.Kind)
			e.buf = append(e.buf, `,"scope":`...)
			e.ints(c.Scope)
			if len(c.Table) != 0 {
				e.buf = append(e.buf, `,"table":`...)
				e.floatRow(c.Table)
			}
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	if len(ms.Init) != 0 {
		e.key(start, "init")
		e.ints(ms.Init)
	}
	e.intField(start, "rounds", ms.Rounds)
	e.intField(start, "shards", ms.Shards)
	e.intField(start, "parallel", ms.Parallel)
	e.buf = append(e.buf, '}')
}

// key appends "name": preceded by a comma unless it is the first member
// of the object whose '{' is at buf[start].
func (e *encoder) key(start int, name string) {
	if len(e.buf) != start+1 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
}

func (e *encoder) intField(start int, name string, v int) {
	if v != 0 {
		e.key(start, name)
		e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	}
}

func (e *encoder) floatField(start int, name string, v float64) {
	if v != 0 { // -0 is empty too
		e.key(start, name)
		e.float(v)
	}
}

// ints appends an []int: null when nil.
func (e *encoder) ints(xs []int) {
	if xs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, x := range xs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(x), 10)
	}
	e.buf = append(e.buf, ']')
}

func (e *encoder) floatRows(rows [][]float64) {
	e.buf = append(e.buf, '[')
	for i, r := range rows {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.floatRow(r)
	}
	e.buf = append(e.buf, ']')
}

// floatRow appends a []float64 (null when nil), copying the encoding of
// a bitwise-equal row from the recent-rows memo when there is one.
func (e *encoder) floatRow(xs []float64) {
	if xs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	for i := range e.rows[:min(e.nrow, len(e.rows))] {
		if r := &e.rows[i]; sameBits(r.xs, xs) {
			e.buf = append(e.buf, e.buf[r.start:r.end]...)
			return
		}
	}
	start := len(e.buf)
	e.buf = append(e.buf, '[')
	for i, x := range xs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.float(x)
	}
	e.buf = append(e.buf, ']')
	e.rows[e.nrow%len(e.rows)] = rowRef{xs: xs, start: start, end: len(e.buf)}
	e.nrow++
}

// sameBits reports whether a and b hold the same float64 bit patterns
// (so 0 and -0, which encode differently, differ).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// float appends f as encoding/json does: shortest round-trip digits, in
// exponent form below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded.
func (e *encoder) float(f float64) {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

const hexDigits = "0123456789abcdef"

// str appends s quoted as encoding/json does with HTML escaping: ",
// \ and control bytes escaped (\b \f \n \r \t short), <, > and & as
// \u00XX, invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
