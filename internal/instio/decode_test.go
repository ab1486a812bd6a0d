package instio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/geom"
)

// refSink and refInstance are the instance schema as encoding/json decodes
// it; referenceReadInstance is the loader built on them that the schema
// decoder replaced. It stays as the oracle of FuzzReadInstance.
type refSink struct {
	ID    *int    `json:"id,omitempty"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	CapFF float64 `json:"cap_ff"`
	Group int     `json:"group"`
}

type refInstance struct {
	Name      string    `json:"name"`
	SourceX   float64   `json:"source_x"`
	SourceY   float64   `json:"source_y"`
	NumGroups int       `json:"num_groups"`
	Sinks     []refSink `json:"sinks"`
}

func referenceReadInstance(r io.Reader) (*ctree.Instance, error) {
	var ji refInstance
	if err := decodeOne(r, &ji); err != nil {
		return nil, err
	}
	if len(ji.Sinks) == 0 {
		return nil, fmt.Errorf("instio: instance %q has no sinks", ji.Name)
	}
	in := &ctree.Instance{
		Name:      ji.Name,
		Source:    geom.Point{X: ji.SourceX, Y: ji.SourceY},
		NumGroups: ji.NumGroups,
		Sinks:     make([]ctree.Sink, len(ji.Sinks)),
	}
	withID := 0
	for _, s := range ji.Sinks {
		if s.ID != nil {
			withID++
		}
	}
	if withID > 0 && withID < len(ji.Sinks) {
		return nil, fmt.Errorf("instio: %d of %d sinks carry an explicit id; ids are all-or-nothing", withID, len(ji.Sinks))
	}
	seen := make([]bool, len(ji.Sinks))
	for i, s := range ji.Sinks {
		id := i
		if withID > 0 {
			id = *s.ID
			if id < 0 || id >= len(ji.Sinks) {
				return nil, fmt.Errorf("instio: sink id %d out of range [0, %d)", id, len(ji.Sinks))
			}
		}
		if seen[id] {
			return nil, fmt.Errorf("instio: duplicate sink id %d", id)
		}
		seen[id] = true
		in.Sinks[id] = ctree.Sink{
			ID:    id,
			Loc:   geom.Point{X: s.X, Y: s.Y},
			CapFF: s.CapFF,
			Group: s.Group,
		}
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	if err := checkFinite(in); err != nil {
		return nil, err
	}
	return in, nil
}

// sameAsReference checks ReadInstance's verdict on data (in, err) against
// the reference loader's. One of three things must hold: both reject; both
// accept the same instance, floats compared by bits; or the input holds a
// duplicate or non-exact key and only ReadInstance rejects.
func sameAsReference(t *testing.T, data string, in *ctree.Instance, err error) {
	t.Helper()
	ref, refErr := referenceReadInstance(strings.NewReader(data))
	switch {
	case err != nil && refErr != nil:
	case err == nil && refErr != nil:
		t.Fatalf("accepted what encoding/json rejects (%v)", refErr)
	case err != nil:
		if !hasTightenedKey(data) {
			t.Fatalf("rejected what encoding/json accepts: %v", err)
		}
	default:
		bits := math.Float64bits
		if in.Name != ref.Name || in.NumGroups != ref.NumGroups || len(in.Sinks) != len(ref.Sinks) ||
			bits(in.Source.X) != bits(ref.Source.X) || bits(in.Source.Y) != bits(ref.Source.Y) {
			t.Fatalf("header %q %v %d/%d sinks, reference %q %v %d/%d",
				in.Name, in.Source, in.NumGroups, len(in.Sinks), ref.Name, ref.Source, ref.NumGroups, len(ref.Sinks))
		}
		for i, s := range in.Sinks {
			r := ref.Sinks[i]
			if s.ID != r.ID || s.Group != r.Group || bits(s.Loc.X) != bits(r.Loc.X) ||
				bits(s.Loc.Y) != bits(r.Loc.Y) || bits(s.CapFF) != bits(r.CapFF) {
				t.Fatalf("sink %d is %+v, reference %+v", i, s, r)
			}
		}
	}
}

// schemaFields are the keys of both object shapes.
var schemaFields = []string{"name", "source_x", "source_y", "num_groups", "sinks", "id", "x", "y", "cap_ff", "group"}

// hasTightenedKey reports whether a well-formed JSON document holds an
// object with a repeated key, or a key that names a schema field only
// case-insensitively (as encoding/json folds it, Kelvin sign included):
// the two forms the reference accepts and ReadInstance refuses.
func hasTightenedKey(data string) bool {
	dec := json.NewDecoder(strings.NewReader(data))
	var value func() bool
	value = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('['):
			for dec.More() {
				if value() {
					return true
				}
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return false
				}
				key := tok.(string)
				if seen[key] {
					return true
				}
				seen[key] = true
				for _, f := range schemaFields {
					if key != f && strings.EqualFold(key, f) {
						return true
					}
				}
				if value() {
					return true
				}
			}
		default:
			return false // a scalar: no closing delimiter to read
		}
		dec.Token() // the closing delimiter
		return false
	}
	return value()
}

const (
	nullSinkInstance = `{"name":"x","num_groups":1,"sinks":[null]}`
	negZeroInstance  = `{"name":"x","source_x":-0,"num_groups":1,"sinks":[{"x":-0,"y":-0.0,"cap_ff":0,"group":-0}]}`
)

// decoderEdgeInputs exercise the decoder's delegations to strconv and
// encoding/json; each must load exactly as the reference loads it, or be
// rejected by both.
var decoderEdgeInputs = []string{
	`{"n\u0061me":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,                 // escaped key
	"{\"name\":\"a\xffb\",\"num_groups\":1,\"sinks\":[{\"x\":0,\"y\":0,\"cap_ff\":1,\"group\":0}]}", // invalid UTF-8
	"{\"name\":\"a\xffb\\u00e9\\n\",\"num_groups\":1,\"sinks\":[{\"x\":0,\"y\":0,\"cap_ff\":1,\"group\":0}]}",
	"{\"name\":\"tab\there\",\"num_groups\":1,\"sinks\":[{\"x\":0,\"y\":0,\"cap_ff\":1,\"group\":0}]}", // raw control byte
	nullSinkInstance,
	`{"name":null,"source_x":null,"num_groups":1,"sinks":[{"id":null,"x":0,"y":0,"cap_ff":1,"group":0}]}`,
	negZeroInstance,
	`{"name":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0.0}]}`,
	`{"name":"x","num_groups":1e2,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":1e999,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":1E-400,"y":2.5e+3,"cap_ff":0.1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":01,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":0x10,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":1.,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":null}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0},]}`,
	` null `,
	``,
}

// tightenedInputs hold a duplicate or non-exact key: encoding/json loads
// every one, ReadInstance rejects every one (TestReadTightenings).
var tightenedInputs = []string{
	`{"name":"x","num_groups":1,"sinks":[{"X":0,"y":0,"cap_ff":1,"group":0}]}`,
	`{"Name":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,
	"{\"name\":\"x\",\"num_groups\":1,\"sin\u212as\":[{\"x\":0,\"y\":0,\"cap_ff\":1,\"group\":0}]}", // Kelvin sign
	`{"name":"a","name":"b","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":0,"x":1,"y":0,"cap_ff":1,"group":0}]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":1,"y":5,"cap_ff":1,"group":0}],"sinks":[{"x":3}]}`,
}

// hugeGroupsInstance once panicked the loader: Validate sized a per-group
// table from num_groups before any range check.
const hugeGroupsInstance = `{"name":"x","num_groups":9000000000000000000,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`

func TestReadHugeNumGroups(t *testing.T) {
	_, err := ReadInstance(strings.NewReader(hugeGroupsInstance))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("huge num_groups: %v", err)
	}
}

// TestReadTightenings pins the two forms the decoder refuses although
// encoding/json loads them: repeated keys and case-folded keys.
func TestReadTightenings(t *testing.T) {
	for _, c := range tightenedInputs {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
		if _, err := referenceReadInstance(strings.NewReader(c)); err != nil {
			t.Errorf("reference rejects %q: %v", c, err)
		}
		if !hasTightenedKey(c) {
			t.Errorf("hasTightenedKey misses %q", c)
		}
	}
	// What the refusal prevents: encoding/json merges a repeated "sinks"
	// array into the first one element by element.
	ref, err := referenceReadInstance(strings.NewReader(tightenedInputs[len(tightenedInputs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if s := ref.Sinks[0]; s.Loc.X != 3 || s.Loc.Y != 5 {
		t.Errorf("reference loaded the repeated sinks as %+v, want x 3, y 5", s)
	}
}

// TestReadDecoderEdges pins what two of the edge inputs load as; the
// seeds of FuzzReadInstance check all of them against the reference.
func TestReadDecoderEdges(t *testing.T) {
	in, err := ReadInstance(strings.NewReader(nullSinkInstance))
	if err != nil || in.Sinks[0] != (ctree.Sink{}) {
		t.Errorf("[null]: %v, %+v; want one zero sink", err, in)
	}
	in, err = ReadInstance(strings.NewReader(negZeroInstance))
	if err != nil || !math.Signbit(in.Source.X) || !math.Signbit(in.Sinks[0].Loc.Y) {
		t.Errorf("-0: %v, %+v; want negative zeros", err, in)
	}
}

// TestReadInstanceReaders reads through a reader that reports no length
// and one byte at a time, and through one that fails.
func TestReadInstanceReaders(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteInstance(&buf, bench.Intermingled(bench.Small(300, 2), 3, 5)); err != nil {
		t.Fatal(err)
	}
	want, err := ReadInstance(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Sinks {
		if got.Sinks[i] != want.Sinks[i] {
			t.Fatalf("sink %d: %+v vs %+v", i, got.Sinks[i], want.Sinks[i])
		}
	}
	boom := errors.New("boom")
	if _, err := ReadInstance(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Errorf("failing reader: %v", err)
	}
}

// BenchmarkReadInstance compares the decoder with the encoding/json
// reference on a 10k-sink power-law instance.
func BenchmarkReadInstance(b *testing.B) {
	var buf bytes.Buffer
	in := bench.PowerLaw(10000, bench.PowerLawClusters, bench.PowerLawAlpha, 1)
	if err := WriteInstance(&buf, in); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, c := range []struct {
		name string
		read func(io.Reader) (*ctree.Instance, error)
	}{{"decoder", ReadInstance}, {"encoding-json", referenceReadInstance}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
