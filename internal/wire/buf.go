package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"repro/internal/core"
)

// writer accumulates a message body; seal appends the FNV-64a checksum of
// everything written.
type writer struct {
	b []byte
}

func (w *writer) raw(p []byte) { w.b = append(w.b, p...) }
func (w *writer) u8(v byte)    { w.b = append(w.b, v) }

func (w *writer) u16(v uint16) {
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
}

func (w *writer) uv(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *writer) iv(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// f64 writes the IEEE-754 bit pattern verbatim: the codec never passes a
// float through arithmetic or text, which is what makes round-trips bitwise.
func (w *writer) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.uv(uint64(len(s)))
	w.b = append(w.b, s...)
}

// seal appends the checksum trailer and returns the finished message.
func (w *writer) seal() []byte {
	h := fnv.New64a()
	h.Write(w.b)
	return binary.LittleEndian.AppendUint64(w.b, h.Sum64())
}

// reader walks a sealed message with a sticky error: after any failure all
// further reads return zero values, so decode paths can batch their error
// checks. It never panics on arbitrary input — every read is bounds-checked.
type reader struct {
	b   []byte
	off int
	err error
}

// open verifies length, magic, checksum and version, and positions a reader
// over the body (checksum trailer excluded).
func open(data []byte, magic [4]byte) (*reader, error) {
	if len(data) < len(magic)+2+8 {
		return nil, fmt.Errorf("wire: message truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := binary.LittleEndian.Uint64(trailer), h.Sum64(); got != want {
		return nil, fmt.Errorf("wire: checksum mismatch (message corrupted in transit)")
	}
	r := &reader{b: body}
	var m [4]byte
	copy(m[:], body[:4])
	r.off = 4
	if m != magic {
		return nil, fmt.Errorf("wire: bad magic %q", m[:])
	}
	if v := r.u16(); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build speaks %d", ErrVersion, v, Version)
	}
	return r, nil
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// done reports the sticky error, or leftover-byte trailing garbage.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.fail(fmt.Errorf("wire: message truncated at offset %d", r.off))
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *reader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("wire: bad varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

func (r *reader) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("wire: bad varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: bad boolean at offset %d", r.off-1))
		return false
	}
}

func (r *reader) str(max int) string {
	n := int(r.uv())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > max || n > r.remaining() {
		r.fail(fmt.Errorf("wire: string length %d exceeds payload", n))
		return ""
	}
	return string(r.take(n))
}

// ---- stats ----

// encodeStats/decodeStats walk core.Stats reflectively, field by field in
// declaration order (ints as varints, float64s as bit patterns, nested
// structs recursively). Reflection keeps the codec drift-proof: a field
// added to Stats is carried automatically, and a field of an unsupported
// kind fails loudly at encode time instead of being silently dropped.
func encodeStats(w *writer, s core.Stats) error {
	return encodeStruct(w, reflect.ValueOf(s))
}

func encodeStruct(w *writer, v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			w.iv(f.Int())
		case reflect.Float64:
			w.f64(f.Float())
		case reflect.Struct:
			if err := encodeStruct(w, f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wire: stats field %s has unsupported kind %s",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return nil
}

func decodeStats(r *reader, s *core.Stats) error {
	if err := decodeStruct(r, reflect.ValueOf(s).Elem()); err != nil {
		return err
	}
	return r.err
}

func decodeStruct(r *reader, v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			x := r.iv()
			if f.OverflowInt(x) {
				return fmt.Errorf("wire: stats field %s overflows", v.Type().Field(i).Name)
			}
			f.SetInt(x)
		case reflect.Float64:
			f.SetFloat(r.f64())
		case reflect.Struct:
			if err := decodeStruct(r, f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wire: stats field %s has unsupported kind %s",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return nil
}
