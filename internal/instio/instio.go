// Package instio serializes clock routing instances and routing results as
// JSON, the interchange format of the cmd/ tools (instancegen → astdme →
// drawtree).
package instio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/ctree"
	"repro/internal/geom"
)

// jsonSink mirrors ctree.Sink with stable field names. ID is optional on
// input: when any sink carries one, all must, and together they must form a
// permutation of 0..n-1 — the file then pins each sink's identity explicitly
// and ReadInstance orders sinks by it. Files without ids take positional
// identity (sink i gets ID i), which is also what WriteInstance emits.
type jsonSink struct {
	ID    *int    `json:"id,omitempty"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	CapFF float64 `json:"cap_ff"`
	Group int     `json:"group"`
}

// jsonInstance is the on-disk instance format.
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
// hold exactly one JSON object.
func ReadInstance(r io.Reader) (*ctree.Instance, error) {
	var ji jsonInstance
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

// LoadInstance reads an instance file.
func LoadInstance(path string) (*ctree.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadInstance(f)
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
