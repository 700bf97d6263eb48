package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"locsample/internal/csp"
	"locsample/internal/graph"
)

// referenceDecodeJSON is the reflective decode the schema decoder
// replaces: encoding/json with unknown fields disallowed and nothing but
// whitespace after the object. It does not validate.
func referenceDecodeJSON(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data")
	}
	return &s, nil
}

// referenceDecode is referenceDecodeJSON plus Decode's size limit,
// normalization and validation.
func referenceDecode(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, errors.New("too large")
	}
	s, err := referenceDecodeJSON(data)
	if err != nil {
		return nil, err
	}
	s.Graph.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkMatchesJSON holds the codec to encoding/json on data: the schema
// decoder and the reference accept and reject the same inputs, with and
// without validation; accepted values are deep-equal; and the encoder
// writes json.Marshal's bytes for every value decoded, valid or not.
func checkMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	raw, err := decodeJSON(data)
	ref, refErr := referenceDecodeJSON(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decode error %v, encoding/json error %v\ninput: %q", err, refErr, data)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(raw, ref) {
		t.Fatalf("decoded values differ\n got: %#v\nwant: %#v\ninput: %q", raw, ref, data)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if got := appendSpec(nil, raw); !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from json.Marshal\n got: %s\nwant: %s", got, want)
	}

	s, err := Decode(data)
	ref, refErr = referenceDecode(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Decode error %v, reference error %v\ninput: %q", err, refErr, data)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(s, ref) {
		t.Fatalf("validated values differ\n got: %#v\nwant: %#v", s, ref)
	}
	enc, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if want, _ = json.Marshal(ref); !bytes.Equal(enc, want) {
		t.Fatalf("Encode differs from json.Marshal\n got: %s\nwant: %s", enc, want)
	}
	s2, h, err := DecodeHash(data)
	if err != nil || !reflect.DeepEqual(s2, s) {
		t.Fatalf("DecodeHash disagrees with Decode: %v", err)
	}
	sum := sha256.Sum256(want)
	if wantH := "sha256:" + hex.EncodeToString(sum[:]); h != wantH {
		t.Fatalf("DecodeHash %s, want %s", h, wantH)
	}
}

// codecEdgeCases are inputs on the quiet edges of encoding/json's
// behaviour that the schema decoder must reproduce.
func codecEdgeCases() []string {
	const ok = `{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4}}`
	nest := func(depth int) string {
		return `{"version":"locsample/v1","graph":{"n":2,"edges":[[0,1,` +
			strings.Repeat("[", depth) + strings.Repeat("]", depth) +
			`]]},"model":{"kind":"coloring","q":3}}`
	}
	return []string{
		ok,
		" \t\r\n" + ok + " \n",
		// Case-folded and escaped keys, including non-ASCII folds
		// (U+017F folds to s, U+212A to k).
		`{"VERSION":"locsample/v1","Graph":{"FAMILY":"path","N":3},"mOdEl":{"KIND":"coloring","Q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"gnp","n":5,"p":0.5,"ſeed":3},"model":{"Kind":"coloring","q":9}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"\u212aind":"coloring","\u0051":4}}`,
		"{\"version\":\"locsample/v1\",\"graph\":{\"family\":\"path\",\"n\":3},\"model\":{\"\u212aIND\":\"coloring\",\"q\":4}}",
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4,"qq":1}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4},"é":1}`,
		// Duplicate keys merge objects and overwrite slices in place.
		`{"version":"x","version":"locsample/v1","graph":{"family":"path"},"graph":{"n":3},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"star","n":4},"model":{"kind":"csp","q":2,"rounds":3,
			"constraints":[{"kind":"table","scope":[0,1],"table":[0,1,1,1]},{"kind":"cover","scope":[1,2,3]}],
			"constraints":[{"kind":"cover","scope":[2,3]}]}}`,
		`{"version":"locsample/v1","graph":{"family":"star","n":4},"model":{"kind":"csp","q":2,"rounds":3,
			"constraints":[{"kind":"cover","scope":[0,1,2]},{"kind":"cover","scope":[1,3]}],
			"constraints":[{"kind":"cover"}],
			"constraints":[{"scope":[null,3]},{}]}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"listcoloring","q":3,
			"lists":[[0,1,2],[1],[2,0]],"lists":[[1]],"lists":[[null,null],[null],[]]}}`,
		`{"version":"locsample/v1","graph":{"n":3,"edges":[[0,1],[1,2]],"edges":[null,[2]]},"model":{"kind":"coloring","q":4}}`,
		// null: slices become nil, everything else is left alone.
		`{"version":"locsample/v1","name":null,"graph":null,"graph":{"family":"path","n":3,"rows":null,"p":null},
			"model":{"kind":"coloring","q":4,"lists":null,"init":null}}`,
		`{"version":"locsample/v1","graph":{"n":3,"edges":[[0,1]],"edges":null,"family":"path"},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"mrf","q":2,
			"edgeActivities":[[1,1,1,0],null],"vertexActivities":[]}}`,
		`{"version":"locsample/v1","graph":{"n":2,"edges":[[0,1]]},"model":{"kind":"mrf","q":2,"edgeActivities":[[1,1,1,0]],
			"vertexActivities":[[1,2],[3,4,5]],"vertexActivities":[[null,3],[null,null,null,6]]}}`,
		`null`,
		// Over-long and short [2]int edges.
		`{"version":"locsample/v1","graph":{"n":3,"edges":[[0,1,2],[1,2,{"x":[true,null]},"s",-1.5e3]]},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"n":3,"edges":[[2],[1,0],[]]},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"n":3,"edges":[[0,1,{"a":1,"a":[}]]},"model":{"kind":"coloring","q":4}}`,
		nest(9996),
		nest(9997),
		// Number forms in int, uint64 and float fields.
		`{"version":"locsample/v1","graph":{"family":"path","n":3.0},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3e0},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":-0},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"grid","rows":-3,"cols":-123456789},"model":{"kind":"coloring","q":4,"shards":-1234567890123}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":03},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":9223372036854775808},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":"3"},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","graph":{"family":"gnp","n":5,"p":0.5,"seed":18446744073709551615},"model":{"kind":"coloring","q":9}}`,
		`{"version":"locsample/v1","graph":{"family":"gnp","n":5,"p":0.5,"seed":18446744073709551616},"model":{"kind":"coloring","q":9}}`,
		`{"version":"locsample/v1","graph":{"family":"gnp","n":5,"p":0.5,"seed":-0},"model":{"kind":"coloring","q":9}}`,
		`{"version":"locsample/v1","graph":{"family":"gnp","n":5,"p":5e-1,"seed":1e2},"model":{"kind":"coloring","q":9}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":-0.0}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":1e400}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"ising","beta":-1.5,"field":-2e-9}}`,
		`{"version":"locsample/v1","graph":{"n":2,"edges":[[0,1]]},"model":{"kind":"mrf","q":2,"edgeActivities":[[1,1,1,0]],
			"vertexActivities":[[-0.0,1],[-0,2.5e-7],[-0e5,1e21]]}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":1e-400}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":0.1e1}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"ising","beta":9007199254740993,"field":123456789012345678901234}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"ising","beta":1E+22,"field":4.9406564584124654e-324}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":0.0000001}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":1.}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":.5}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":+1}}`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},"model":{"kind":"hardcore","lambda":true}}`,
		// Escapes, invalid UTF-8 and HTML-sensitive characters in strings.
		`{"version":"locsample/v1","name":"a\"b\\c\/d\b\f\n\r\t\u0001\u001f <&>    \ud800 \udc00x 😀","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4}}`,
		"{\"version\":\"locsample/v1\",\"name\":\"bad \xff\xfe utf8 \xe2\x82 caf\xc3\xa9 \x7f\",\"graph\":{\"family\":\"path\",\"n\":3},\"model\":{\"kind\":\"coloring\",\"q\":4}}",
		"{\"version\":\"locsample/v1\",\"name\":\"tab\tin string\",\"graph\":{\"family\":\"path\",\"n\":3},\"model\":{\"kind\":\"coloring\",\"q\":4}}",
		`{"version":"locsample/v1","name":"\x","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4}}`,
		`{"version":"locsample/v1","name":"\u12","graph":{"family":"path","n":3},"model":{"kind":"coloring","q":4}}`,
		"{\"version\":\"locsample/v1\",\"gr\xffaph\":{}}",
		// Syntax errors and trailing data.
		ok + " {}",
		ok + "x",
		ok[:len(ok)-1],
		`{"version":"locsample/v1",}`,
		`{"version" "locsample/v1"}`,
		`{,}`,
		`[]`,
		`"spec"`,
		`tru`,
		``,
		`nul`,
		"\xef\xbb\xbf" + ok,
	}
}

func TestDecodeMatchesJSONEdgeCases(t *testing.T) {
	for i, c := range codecEdgeCases() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkMatchesJSON(t, []byte(c)) })
	}
}

// FuzzDecodeMatchesJSON holds the schema decoder and the canonical
// encoder to encoding/json on arbitrary inputs (see checkMatchesJSON).
func FuzzDecodeMatchesJSON(f *testing.F) {
	for _, c := range codecEdgeCases() {
		f.Add([]byte(c))
	}
	for _, c := range goldenSpecs(f) {
		if c.name == "wdomset-64" {
			continue // large: the fuzzer mutates small inputs better
		}
		data, err := Encode(c.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(checkMatchesJSON)
}

// Stray-field errors name the first stray field in declaration order, so
// the same input always yields the same message.
func TestStrayFieldErrorDeterministic(t *testing.T) {
	cases := map[string]string{
		`{"version":"locsample/v1","graph":{"family":"grid","rows":3,"cols":3,"seed":5,"n":9,"dim":2},
			"model":{"kind":"coloring","q":4}}`: `graph family "grid" does not take field "n"`,
		`{"version":"locsample/v1","graph":{"family":"path","n":3},
			"model":{"kind":"coloring","q":4,"parallel":0,"rounds":2,"beta":1,"lambda":2}}`: `model kind "coloring" does not take field "lambda"`,
	}
	for js, want := range cases {
		for i := 0; i < 200; i++ {
			_, err := Decode([]byte(js))
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("decode %d: error %v, want one naming %s", i, err, want)
			}
		}
	}
}

// Validate allocates nothing on a valid spec, however many constraints it
// has: error names are built only on failure.
func TestValidateAllocationFree(t *testing.T) {
	for _, side := range []int{16, 64} {
		g := graph.Grid(side, side)
		s, err := FromCSP(csp.WeightedDominatingSet(g, 1.5), g, nil, 32, "alloc")
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d² spec: Validate allocates %v times per call, want 0", side, allocs)
		}
	}
}
