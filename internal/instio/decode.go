package instio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/ctree"
)

// readAll reads r to EOF into one buffer. A reader that reports its
// remaining length (bytes.Reader, strings.Reader, bytes.Buffer) gets the
// buffer sized once; any other grows it as it goes.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// ReadFrom keeps MinRead bytes free for each read, the one that
		// reports EOF included.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decoder walks one instance document with a byte cursor. It knows the
// fixed schema and fills the ctree types directly; see the package
// documentation for what it accepts.
type decoder struct {
	buf []byte
	pos int
}

// The keys of the two object shapes. A member's index in its list is its
// case in the value switch and its bit in the duplicate check.
var (
	instanceFields = []string{"name", "source_x", "source_y", "num_groups", "sinks"}
	sinkFields     = []string{"id", "x", "y", "cap_ff", "group"}
)

// decodeInstance parses data into an instance and applies the same checks,
// in the same order, as the encoding/json loader it replaces: the no-sinks
// error, the id rule, Validate and checkFinite.
func decodeInstance(data []byte) (*ctree.Instance, error) {
	d := decoder{buf: data}
	in, withID, err := d.instance()
	if err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	n := len(in.Sinks)
	if n == 0 {
		return nil, fmt.Errorf("instio: instance %q has no sinks", in.Name)
	}
	if withID > 0 {
		if withID < n {
			return nil, fmt.Errorf("instio: %d of %d sinks carry an explicit id; ids are all-or-nothing", withID, n)
		}
		byID := make([]ctree.Sink, n)
		seen := make([]bool, n)
		for _, s := range in.Sinks {
			if s.ID < 0 || s.ID >= n {
				return nil, fmt.Errorf("instio: sink id %d out of range [0, %d)", s.ID, n)
			}
			if seen[s.ID] {
				return nil, fmt.Errorf("instio: duplicate sink id %d", s.ID)
			}
			seen[s.ID] = true
			byID[s.ID] = s
		}
		in.Sinks = byID
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	if err := checkFinite(in); err != nil {
		return nil, err
	}
	return in, nil
}

// instance decodes the top-level object and checks that only whitespace
// follows it. withID counts the sinks that carry an explicit id; a sink
// without one holds its position in ID.
func (d *decoder) instance() (in *ctree.Instance, withID int, err error) {
	in = &ctree.Instance{}
	err = d.object(instanceFields, func(field int) (err error) {
		switch field {
		case 0:
			in.Name, err = d.string()
		case 1:
			in.Source.X, err = d.float()
		case 2:
			in.Source.Y, err = d.float()
		case 3:
			in.NumGroups, err = d.int()
		case 4:
			in.Sinks, withID, err = d.sinks()
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	d.ws()
	if d.pos < len(d.buf) {
		return nil, 0, d.errorf("trailing data after the JSON object")
	}
	return in, withID, nil
}

// sinks decodes the sink array. The slice is sized from the braces left in
// the input, an upper bound on the objects the array can hold.
func (d *decoder) sinks() ([]ctree.Sink, int, error) {
	if !d.eat('[') {
		return nil, 0, d.errorf("field \"sinks\" wants an array")
	}
	sinks := make([]ctree.Sink, 0, bytes.Count(d.buf[d.pos:], []byte{'{'}))
	withID := 0
	d.ws()
	if d.eat(']') {
		return sinks, 0, nil
	}
	for {
		d.ws()
		s := ctree.Sink{ID: len(sinks)}
		if !d.null() { // a null element is a zero sink
			hasID, err := d.sink(&s)
			if err != nil {
				return nil, 0, err
			}
			if hasID {
				withID++
			}
		}
		sinks = append(sinks, s)
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return sinks, withID, nil
		}
		return nil, 0, d.errorf("expected ',' or ']' in the sink array")
	}
}

// sink decodes one sink object into s, reporting whether it carried an id.
func (d *decoder) sink(s *ctree.Sink) (hasID bool, err error) {
	err = d.object(sinkFields, func(field int) (err error) {
		switch field {
		case 0:
			s.ID, err = d.int()
			hasID = true
		case 1:
			s.Loc.X, err = d.float()
		case 2:
			s.Loc.Y, err = d.float()
		case 3:
			s.CapFF, err = d.float()
		case 4:
			s.Group, err = d.int()
		}
		return err
	})
	return hasID, err
}

// object decodes an object whose keys must be among fields, each at most
// once and spelled exactly. A null member counts as absent; for any other,
// member is called with the key's index in fields and the cursor on the
// value, which it must consume.
func (d *decoder) object(fields []string, member func(field int) error) error {
	d.ws()
	if !d.eat('{') {
		return d.errorf("expected an object")
	}
	d.ws()
	if d.eat('}') {
		return nil
	}
	var seen uint
	for {
		d.ws()
		key, err := d.key()
		if err != nil {
			return err
		}
		field := slices.Index(fields, string(key))
		if field < 0 {
			return d.errorf("unknown field %q", key)
		}
		if seen&(1<<field) != 0 {
			return d.errorf("duplicate field %q", key)
		}
		seen |= 1 << field
		d.ws()
		if !d.eat(':') {
			return d.errorf("expected ':' after object key")
		}
		d.ws()
		if !d.null() {
			if err := member(field); err != nil {
				return err
			}
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat('}') {
			return nil
		}
		return d.errorf("expected ',' or '}' in an object")
	}
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += len("null")
		return true
	}
	return false
}

// stringToken returns the quoted string token at the cursor. plain reports
// that it holds only printable ASCII without escapes, so its bytes between
// the quotes are its value.
func (d *decoder) stringToken() (tok []byte, plain bool, err error) {
	if !d.eat('"') {
		return nil, false, d.errorf("expected a string")
	}
	start := d.pos - 1
	plain = true
	for i := d.pos; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++ // an escaped byte never ends the string
		case c < 0x20 || c >= 0x7f:
			plain = false
		}
	}
	return nil, false, d.errorf("unterminated string")
}

// unquote decodes a string token that is not plain with encoding/json, so
// escapes, surrogates and invalid UTF-8 (which becomes U+FFFD) come out
// exactly as they would there, and whatever it rejects stays rejected.
func (d *decoder) unquote(tok []byte) (string, error) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", d.errorf("bad string: %v", err)
	}
	return s, nil
}

// key returns an object key's value. A plain key aliases the buffer.
func (d *decoder) key() ([]byte, error) {
	tok, plain, err := d.stringToken()
	if err != nil {
		return nil, err
	}
	if plain {
		return tok[1 : len(tok)-1], nil
	}
	s, err := d.unquote(tok)
	return []byte(s), err
}

// string returns a string value.
func (d *decoder) string() (string, error) {
	tok, plain, err := d.stringToken()
	if err != nil {
		return "", err
	}
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	return d.unquote(tok)
}

// number returns the number literal at the cursor after checking it
// against the JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// strconv accepts more (hex, underscores, "Inf"), so the check comes first.
func (d *decoder) number() ([]byte, error) {
	b, i := d.buf, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
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
		return nil, d.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, d.errorf("expected a digit after the decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, d.errorf("expected a digit in the exponent")
		}
	}
	lit := b[d.pos:i]
	d.pos = i
	return lit, nil
}

// float parses a number as encoding/json does for a float64 field, so the
// bits match and an out-of-range literal (1e999) is an error.
func (d *decoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.errorf("number %s does not fit a float64", lit)
	}
	return f, nil
}

// int parses a number as encoding/json does for an int field: a fraction
// or an exponent (0.0, 1e2) is an error, and so is overflow.
func (d *decoder) int() (int, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return 0, d.errorf("number %s is not an int", lit)
	}
	return int(n), nil
}

// errorf reports a decode error at the cursor's byte offset.
func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}
