package instio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
)

// nonFiniteInputs must all be rejected (TestReadRejectsNonFinite); they
// also seed FuzzReadInstance.
var nonFiniteInputs = map[string]string{
	"inf sink x":   `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":-1e999,"y":0,"cap_ff":1,"group":0}]}`,
	"inf source":   `{"name":"x","source_x":1e999,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`,
	"huge exp cap": `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1e999,"group":0}]}`,
}

// TestReadRejectsNonFinite pins the boundary checks added for remote
// dispatch: NaN/Inf must die as a parse error naming the field, not as an
// empty merging region three layers down.
func TestReadRejectsNonFinite(t *testing.T) {
	for name, c := range nonFiniteInputs {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Non-finite values that survive JSON parsing (encoding/json rejects
	// bare NaN/Infinity literals, but a loaded instance can still be
	// mutated) are caught on write too.
	in := bench.Small(5, 1)
	in.Sinks[2].CapFF = math.NaN()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN cap written: %v", err)
	}
	in = bench.Small(5, 1)
	in.Source.X = math.Inf(1)
	buf.Reset()
	if err := WriteInstance(&buf, in); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("Inf source written: %v", err)
	}
}

func TestReadRejectsEmptyInstance(t *testing.T) {
	_, err := ReadInstance(strings.NewReader(`{"name":"empty","num_groups":1,"sinks":[]}`))
	if err == nil || !strings.Contains(err.Error(), "no sinks") {
		t.Fatalf("empty instance: %v", err)
	}
}

// sinkIDCases are the sink arrays of TestReadSinkIDs, each with a substring
// of the error it must raise ("" when it loads). They also seed
// FuzzReadInstance, wrapped by sinkIDInstance.
var sinkIDCases = []struct{ sinks, err string }{
	{`{"id":1,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`, ""},
	{`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`, "duplicate sink id"},
	{`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"id":5,"x":2,"y":0,"cap_ff":1,"group":0}`, "out of range"},
	{`{"id":0,"x":1,"y":0,"cap_ff":1,"group":0},{"x":2,"y":0,"cap_ff":1,"group":0}`, "all-or-nothing"},
	{`{"id":-1,"x":1,"y":0,"cap_ff":1,"group":0},{"id":0,"x":2,"y":0,"cap_ff":1,"group":0}`, "out of range"},
}

func sinkIDInstance(sinks string) string {
	return `{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[` + sinks + `]}`
}

func TestReadSinkIDs(t *testing.T) {
	for _, c := range sinkIDCases {
		_, err := ReadInstance(strings.NewReader(sinkIDInstance(c.sinks)))
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.sinks, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: error %v, want one containing %q", c.sinks, err, c.err)
		}
	}
	// Reordering: the sink with id 0 must land in slot 0.
	in, err := ReadInstance(strings.NewReader(sinkIDInstance(sinkIDCases[0].sinks)))
	if err != nil {
		t.Fatal(err)
	}
	if in.Sinks[0].Loc.X != 2 || in.Sinks[1].Loc.X != 1 {
		t.Errorf("sinks not reordered by id: %+v", in.Sinks)
	}
}

// FuzzReadInstance asserts the loader never panics on arbitrary input, that
// it agrees with the encoding/json reference loader (referenceReadInstance,
// see sameAsReference), and that anything it accepts survives a write→read
// round trip unchanged — the property remote dispatch leans on when
// instances cross processes.
func FuzzReadInstance(f *testing.F) {
	var seedBuf bytes.Buffer
	if err := WriteInstance(&seedBuf, bench.Intermingled(bench.Small(12, 4), 2, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.String())
	f.Add(`{"name":"x","source_x":0,"source_y":0,"num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`)
	f.Add(`{"name":"x","num_groups":1,"sinks":[{"id":0,"x":null,"y":0,"cap_ff":1,"group":0}]}`)
	f.Add(`{"sinks":[{}]}`)
	for _, c := range garbageInputs {
		f.Add(c)
	}
	for _, c := range nonFiniteInputs {
		f.Add(c)
	}
	for _, c := range sinkIDCases {
		f.Add(sinkIDInstance(c.sinks))
	}
	for _, c := range decoderEdgeInputs {
		f.Add(c)
	}
	for _, c := range tightenedInputs {
		f.Add(c)
	}
	f.Add(hugeGroupsInstance)
	f.Fuzz(func(t *testing.T, data string) {
		in, err := ReadInstance(strings.NewReader(data)) // must never panic
		sameAsReference(t, data, in, err)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatalf("accepted instance fails to write: %v", err)
		}
		again, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("written instance fails to re-read: %v", err)
		}
		if again.Name != in.Name || again.Source != in.Source || again.NumGroups != in.NumGroups ||
			len(again.Sinks) != len(in.Sinks) {
			t.Fatal("round trip changed the instance header")
		}
		for i := range in.Sinks {
			if again.Sinks[i] != in.Sinks[i] {
				t.Fatalf("round trip changed sink %d: %+v vs %+v", i, again.Sinks[i], in.Sinks[i])
			}
		}
	})
}
