// Package instio serializes clock routing instances and ECO edit scripts as
// JSON, the interchange format of the cmd/ tools (instancegen → astdme).
//
// # Reading instances
//
// ReadInstance and LoadInstance parse the fixed instance schema with a
// byte-cursor decoder of their own (decode.go): no reflection, one input
// buffer, and sinks written straight into the instance. It accepts what
// encoding/json with DisallowUnknownFields accepts for the schema:
//
//   - numbers are checked against the JSON grammar and parsed by the same
//     strconv calls, so floats are bit-identical, and a fraction or an
//     exponent in an int field (0.0, 1e2) or an out-of-range literal
//     (1e999) is an error;
//   - a string holding an escape, a control byte or a non-ASCII byte is
//     decoded by encoding/json itself, so escapes and invalid UTF-8 (which
//     becomes U+FFFD) come out exactly as there;
//   - null as a member means absent, and as a sink element a zero sink;
//   - nothing but whitespace may follow the object.
//
// There are two deliberate tightenings. A repeated key is an error, where
// encoding/json keeps the last one and merges a repeated "sinks" array into
// the first element by element. Keys must match exactly, where
// encoding/json also takes case-folded ones ("X", "Name", or "sinKs" spelled
// with a Kelvin sign). Neither form is written by WriteInstance.
//
// Sink ids are optional on input. When any sink carries one, all must, and
// together they must form a permutation of 0..n-1: the file then pins each
// sink's identity explicitly and ReadInstance orders sinks by it. Files
// without ids take positional identity (sink i gets ID i), which is also
// what WriteInstance emits. Edit scripts (ReadEdits) hold a few dozen
// records and keep encoding/json.
package instio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/ctree"
)

// jsonSink mirrors ctree.Sink with stable field names. WriteInstance emits
// no ids: sinks take positional identity.
type jsonSink struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	CapFF float64 `json:"cap_ff"`
	Group int     `json:"group"`
}

// jsonInstance is the on-disk instance format WriteInstance emits.
type jsonInstance struct {
	Name      string     `json:"name"`
	SourceX   float64    `json:"source_x"`
	SourceY   float64    `json:"source_y"`
	NumGroups int        `json:"num_groups"`
	Sinks     []jsonSink `json:"sinks"`
}

// checkFinite rejects NaN and ±Inf coordinates at the boundary: every
// geometric routine downstream assumes finite arithmetic, and a NaN that
// slips in surfaces later as an inexplicable empty merging region rather
// than a parse error naming the sink.
func checkFinite(in *ctree.Instance) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	if bad(in.Source.X) || bad(in.Source.Y) {
		return fmt.Errorf("instio: non-finite source location (%v, %v)", in.Source.X, in.Source.Y)
	}
	for i := range in.Sinks {
		s := &in.Sinks[i]
		if bad(s.Loc.X) || bad(s.Loc.Y) {
			return fmt.Errorf("instio: sink %d has a non-finite location (%v, %v)", s.ID, s.Loc.X, s.Loc.Y)
		}
		if bad(s.CapFF) {
			return fmt.Errorf("instio: sink %d has a non-finite capacitance %v", s.ID, s.CapFF)
		}
	}
	return nil
}

// WriteInstance serializes an instance as indented JSON.
func WriteInstance(w io.Writer, in *ctree.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if err := checkFinite(in); err != nil {
		return err
	}
	ji := jsonInstance{
		Name:      in.Name,
		SourceX:   in.Source.X,
		SourceY:   in.Source.Y,
		NumGroups: in.NumGroups,
		Sinks:     make([]jsonSink, len(in.Sinks)),
	}
	for i, s := range in.Sinks {
		ji.Sinks[i] = jsonSink{X: s.Loc.X, Y: s.Loc.Y, CapFF: s.CapFF, Group: s.Group}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ji)
}

// decodeOne decodes the single JSON object r holds into v. Unknown fields
// are errors, and so is anything but whitespace after the object, so two
// concatenated documents or a valid one followed by junk never load as
// their first part.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("instio: %w", err)
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("instio: trailing data after the JSON object")
	default:
		return fmt.Errorf("instio: trailing data after the JSON object: %w", err)
	}
}

// ReadInstance parses and validates an instance: structural validation
// (ctree.Instance.Validate — non-empty, coherent groups), finite
// coordinates, and — when the file carries explicit sink ids — id
// uniqueness and completeness, with sinks reordered into id order. r must
// hold exactly one JSON object; the package documentation lists what the
// decoder accepts.
func ReadInstance(r io.Reader) (*ctree.Instance, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	return decodeInstance(data)
}

// LoadInstance reads an instance file.
func LoadInstance(path string) (*ctree.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeInstance(data)
}

// SaveInstance writes an instance file.
func SaveInstance(path string, in *ctree.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteInstance(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
