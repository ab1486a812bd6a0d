package instio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestRoundTrip(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 9), 4, 3)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.NumGroups != in.NumGroups || out.Source != in.Source {
		t.Errorf("header mismatch: %+v vs %+v", out, in)
	}
	if len(out.Sinks) != len(in.Sinks) {
		t.Fatalf("sink count mismatch")
	}
	for i := range in.Sinks {
		if out.Sinks[i] != in.Sinks[i] {
			t.Errorf("sink %d mismatch: %+v vs %+v", i, out.Sinks[i], in.Sinks[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	in := bench.Small(10, 1)
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := SaveInstance(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Sinks) != 10 {
		t.Errorf("loaded %d sinks", len(out.Sinks))
	}
}

// validInstance is the smallest valid instance document.
const validInstance = `{"name":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":0}]}`

// garbageInputs must all be rejected (TestReadRejectsGarbage); they also
// seed FuzzReadInstance.
var garbageInputs = []string{
	`not json`,
	`{"name":"x","num_groups":0,"sinks":[]}`,
	`{"name":"x","num_groups":1,"sinks":[{"x":0,"y":0,"cap_ff":1,"group":5}]}`,
	`{"unknown_field":1}`,
	validInstance + ` xyz`,
	validInstance + validInstance,
	validInstance + "\n" + validInstance,
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, c := range garbageInputs {
		if _, err := ReadInstance(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	if _, err := ReadInstance(strings.NewReader(validInstance + " \n\t")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	in := bench.Small(5, 1)
	in.NumGroups = 0
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err == nil {
		t.Error("invalid instance written")
	}
}
